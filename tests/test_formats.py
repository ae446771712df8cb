"""The output formats against their references.

The JSON emitter must write exactly what ``json.dumps(payload, indent=2,
sort_keys=True)`` writes, and raise ``TypeError`` wherever it raises; each
CSV cell must be ``_fmt`` of its value.  Draws cover scan results (rows,
summaries with empty lists, ``None`` and nested lists) and ``qfi`` pairs, with
the float edge cases, numpy scalars, Python ints and bools, and strings with
quotes, backslashes and non-ASCII characters.  Dict keys are strings, or
ints, floats, bools and ``None``, which json.dumps writes as strings, at the
top level, in nested dicts and in records; the raising draws also mix key
types that sort_keys cannot order, and numpy keys, which json.dumps refuses.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnac_qfi import load_config, rows_to_csv, scan

EDGE_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
STRINGS = ['"', "\\", "\\\"", "é", "☃", "𝄞", "\x00", "\t", "%s", "%", "plain"]

py_floats = st.floats() | st.sampled_from(EDGE_FLOATS)
floats = py_floats | py_floats.map(np.float64)
texts = st.text(max_size=8) | st.sampled_from(STRINGS)
text_keys = st.text(alphabet=st.sampled_from('ab_%"\\é☃0'), min_size=1, max_size=6)
# One dict's keys come from one group, whose members sort_keys can order.
key_groups = [text_keys, st.integers() | floats | st.booleans(), st.none()]
scalars = floats | st.integers() | st.booleans() | st.none() | texts
# Few distinct values, so columns repeat one value (the sweep constants) or
# mix zeros of both signs, which print differently though they compare equal.
repeats = st.sampled_from([0.0, -0.0, np.float64(-0.0), 1.5, np.float64(1.5), math.nan, math.inf])
numpy_ints_bools = st.integers(-5, 5).map(np.int64) | st.booleans().map(np.bool_)
mixed_keys = st.one_of(*key_groups, numpy_ints_bools)


def dicts(values, any_keys=False, **sizes):
    """Dicts whose keys come from one key group, or from any (any_keys)."""
    groups = st.just(mixed_keys) if any_keys else st.sampled_from(key_groups)
    return groups.flatmap(lambda group: st.dictionaries(group, values, **sizes))


def nesting(any_keys=False):
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | dicts(inner, any_keys, max_size=3),
        max_leaves=8,
    )


nested = nesting()


@st.composite
def records(draw, cells, any_keys=False):
    """A list of dicts sharing one key set (scan rows), sometimes with a
    record of another shape mixed in."""
    group = mixed_keys if any_keys else draw(st.sampled_from(key_groups))
    columns = draw(st.lists(group, min_size=1, max_size=6, unique=True))
    kinds = [draw(st.sampled_from([floats, repeats, cells])) for _ in columns]
    rows = [
        {key: draw(kind) for key, kind in zip(columns, kinds)}
        for _ in range(draw(st.integers(1, 6)))
    ]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(dicts(cells, any_keys, max_size=3)))
    return rows


def scan_results(cells, any_keys=False):
    summary = dicts(cells | st.just([]) | st.lists(cells, max_size=3), any_keys, max_size=4)
    return st.fixed_dictionaries({"rows": records(cells, any_keys), "summary": summary})


def qfi_pairs(cells):
    return st.dictionaries(text_keys, cells, max_size=8).map(
        lambda pairs: {**pairs, "qcrb_bound_time2": math.inf, "state_kind": "global"}
    )


def _rendered(dumps, payload):
    try:
        return dumps(payload)
    except TypeError:
        return TypeError


def _reference(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payload=scan_results(nested) | qfi_pairs(nested) | nested | dicts(nested))
def test_emitter_matches_json_dumps(payload):
    assert scan._dumps(payload) == _reference(payload)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    payload=scan_results(nesting(any_keys=True) | numpy_ints_bools, any_keys=True)
    | qfi_pairs(scalars | numpy_ints_bools) | dicts(nesting(any_keys=True), any_keys=True)
)
def test_emitter_raises_where_json_dumps_raises(payload):
    assert _rendered(scan._dumps, payload) == _rendered(_reference, payload)


@pytest.mark.parametrize("payload", [
    {1: 2.0},
    {"rows": [{"a": 1.0}], "summary": {2.5: True, -1: {None: [1.5]}}},
    {"rows": [{1: 2.0, False: "b"}, {1: 3.0, False: "c"}], "summary": {}},
    {"rows": [{math.nan: 1.0, -0.0: [math.inf]}]},
], ids=["top", "nested", "records", "float-keys"])
def test_emitter_writes_the_keys_json_dumps_writes(payload):
    assert scan._dumps(payload) == _reference(payload)


@pytest.mark.parametrize("bad", [np.int64(3), np.bool_(True)], ids=["int64", "bool_"])
@pytest.mark.parametrize("where", ["row", "lone-row", "summary", "nested", "top"])
def test_emitter_rejects_numpy_ints_and_bools(bad, where):
    rows = [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0}]
    payload = {"rows": rows, "summary": {"maxima_at": [1.0]}}
    if where == "row":
        rows[1]["b"] = bad
    elif where == "lone-row":
        rows.append({"c": bad})
    elif where == "summary":
        payload["summary"]["count"] = bad
    elif where == "nested":
        payload["summary"]["maxima_at"].append([bad])
    else:
        payload["count"] = bad
    with pytest.raises(TypeError):
        _reference(payload)
    with pytest.raises(TypeError):
        scan._dumps(payload)


csv_cells = (
    floats | st.integers() | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.booleans()
    | st.booleans().map(np.bool_)
    | st.text(alphabet=st.characters(blacklist_characters=",\n"), max_size=8)
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    columns=st.lists(text_keys, min_size=1, max_size=6, unique=True), data=st.data()
)
def test_csv_cells_match_fmt(columns, data):
    kinds = [data.draw(st.sampled_from([floats, repeats, csv_cells])) for _ in columns]
    rows = [
        {key: data.draw(kind) for key, kind in zip(columns, kinds)}
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    lines = rows_to_csv(rows, load_config()).split("\n")
    body = lines[lines.index(",".join(columns)) + 1:]
    assert body[-1] == ""
    assert [line.split(",") for line in body[:-1]] == [
        [scan._fmt(row[key]) for key in columns] for row in rows
    ]
