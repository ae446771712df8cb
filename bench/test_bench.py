"""Tests of the benchmark itself: output checks catch corruption, traced
counts repeat, and the tracer's bookkeeping is right.

    python3 -m pytest bench/test_bench.py -q
"""

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import sagnac_qfi  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def _scan_spec(command: str, fmt: str, kind: str = "global", points: int = 20) -> dict:
    return workloads.ClosedScan(Path("."))._spec(random.Random(3), command, points, kind, fmt)


def _scan_output(tmp_path: Path, spec: dict) -> str:
    wl = workloads.ClosedScan(tmp_path)
    assert wl.run(spec) == 0
    return wl.out_path.read_text()


def _alter_digit(text: str, line_no: int, column: int) -> str:
    """Change the first digit of one CSV field."""
    lines = text.split("\n")
    fields = lines[line_no].split(",")
    field = fields[column]
    i = next(i for i, ch in enumerate(field) if ch.isdigit())
    fields[column] = field[:i] + str((int(field[i]) + 1) % 10) + field[i + 1:]
    lines[line_no] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("command", ["scan-tau", "scan-alpha", "scan-n", "qfi", "coeffs"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_clean_cli_output_passes(tmp_path, command, fmt):
    for kind in workloads.STATE_KINDS:
        spec = _scan_spec(command, fmt, kind)
        workloads.check_closed_scan(spec, _scan_output(tmp_path, spec))


@pytest.mark.parametrize("column", ["value", "f_partial", "f_global", "f_general", "beta",
                                    "lambda2", "c1_re", "c2", "t_s", "difference_per_n2"])
def test_one_altered_digit_in_a_csv_row_fails(tmp_path, column):
    spec = _scan_spec("scan-tau", "csv")
    text = _scan_output(tmp_path, spec)
    lines = text.split("\n")
    header_no = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    corrupted = _alter_digit(text, header_no + 5, lines[header_no].split(",").index(column))
    assert corrupted != text
    with pytest.raises(CheckFailed):
        workloads.check_closed_scan(spec, corrupted)


def test_missing_row_and_missing_header_fail(tmp_path):
    spec = _scan_spec("scan-alpha", "csv")
    text = _scan_output(tmp_path, spec)
    with pytest.raises(CheckFailed):
        workloads.check_closed_scan(spec, text.rstrip("\n").rsplit("\n", 1)[0] + "\n")
    with pytest.raises(CheckFailed):
        workloads.check_closed_scan(spec, text.split("\n", 1)[1])


def test_corrupted_json_and_pair_outputs_fail(tmp_path):
    spec = _scan_spec("scan-n", "json")
    payload = json.loads(_scan_output(tmp_path, spec))
    payload["rows"][2]["f_global"] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed):
        workloads.check_closed_scan(spec, json.dumps(payload))
    for command in ("qfi", "coeffs"):
        spec = _scan_spec(command, "csv")
        text = _scan_output(tmp_path, spec)
        lines = text.split("\n")
        corrupted = _alter_digit(text, lines.index("key,value") + 3, 1)
        with pytest.raises(CheckFailed):
            workloads.check_closed_scan(spec, corrupted)


def test_oracle_result_off_by_1e_4_fails():
    wl = workloads.OracleDense(Path("."))
    for spec in itertools.islice(wl.ops(5), 2):
        qfi = wl.run(spec)
        wl.check(spec, qfi)
        with pytest.raises(CheckFailed):
            wl.check(spec, qfi * (1.0 + 1e-4))


def test_stepped_error_above_tolerance_fails():
    wl = workloads.SteppedEvolution(Path("."))
    for spec in ({"profile": "sampled", "tau": 3.0, "steps": 100},
                 {"profile": "constant", "tau": 3.0, "steps": 10_000}):
        wl.check(spec, 0.9 * wl.tolerance(spec))
        with pytest.raises(CheckFailed):
            wl.check(spec, 1.1 * wl.tolerance(spec))


class _CorruptingScan(workloads.ClosedScan):
    """Alters the first digit of the last line holding one, after the CLI wrote it."""

    def run(self, spec):
        code = super().run(spec)
        lines = self.out_path.read_text().split("\n")
        n = max(i for i, line in enumerate(lines) if any(ch.isdigit() for ch in line))
        i = next(i for i, ch in enumerate(lines[n]) if ch.isdigit())
        lines[n] = lines[n][:i] + str((int(lines[n][i]) + 1) % 10) + lines[n][i + 1:]
        self.out_path.write_text("\n".join(lines))
        return code


def test_runner_counts_corrupted_outputs_as_failed(tmp_path):
    runner = worker.Runner(_CorruptingScan(tmp_path))
    for spec in (_scan_spec("scan-tau", "csv"), _scan_spec("qfi", "json")):
        assert runner.step(spec)[1] is None
    assert (runner.attempted, runner.failed) == (2, 2)
    clean = worker.Runner(workloads.ClosedScan(tmp_path))
    assert clean.step(_scan_spec("scan-tau", "csv"))[1] is not None
    assert (clean.attempted, clean.failed) == (1, 0)
    assert clean.check_s > 0.0


def test_op_stream_is_deterministic_per_seed():
    for cls in workloads.WORKLOADS.values():
        wl = cls(Path("."))
        first = list(itertools.islice(wl.ops(11), 2 * wl.block))
        assert first == list(itertools.islice(wl.ops(11), 2 * wl.block))
        assert first != list(itertools.islice(wl.ops(12), 2 * wl.block))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_runs_repeat_counts_exactly(tmp_path, name):
    wl_cls = workloads.WORKLOADS[name]
    assert wl_cls.trace_ops % wl_cls.block == 0
    runs = []
    for _ in range(2):
        runner = worker.Runner(wl_cls(tmp_path))
        result = worker.traced(runner, name, 4, tmp_path)
        assert result["traced_ops"] == wl_cls.trace_ops
        assert runner.failed == 0
        assert result["layers_without_calls"] == []
        runs.append(result["metrics"])
    exact = [k for k, (_, unit) in runs[0].items() if unit in ("calls/op", "d3/op", "ratio")]
    assert "kernel.expm.dim3" in exact and "oracle.trusted_fraction" in exact
    assert {k: runs[0][k] for k in exact} == {k: runs[1][k] for k in exact}


def test_tracer_wraps_every_binding_and_restores_them():
    model, scan, oracle = sagnac_qfi.model, sagnac_qfi.scan, sagnac_qfi.oracle
    original = model.coefficients
    constant_for = model.DrivingProfile.__dict__["constant_for"]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = model.coefficients
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert scan.coefficients is wrapped and oracle.coefficients is wrapped
        assert sagnac_qfi.coefficients is wrapped
        with t.op(0):
            sagnac_qfi.DrivingProfile.constant_for(math.pi)
        names = [t.layers[span[0]] for span in t.spans]
        assert names.count("model.profile") == 2  # constant_for calls constant
    finally:
        t.uninstall()
    assert model.coefficients is original and scan.coefficients is original
    assert model.DrivingProfile.__dict__["constant_for"] is constant_for


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    layer = t.layers.index
    t.spans.extend([
        (layer("op"), 0.0, 10.0, -1, 0, 0),
        (layer("cli.main"), 1.0, 9.0, 0, 0, 0),
        (layer("scan.run_scan"), 2.0, 5.0, 1, 0, 0),
        (layer("scan.serialize"), 6.0, 7.0, 1, 0, 0),
    ])
    totals = t.layer_totals()
    assert totals["op"]["self_s"] == pytest.approx(2.0)
    assert totals["cli.main"]["self_s"] == pytest.approx(4.0)
    assert totals["scan.run_scan"]["self_s"] == pytest.approx(3.0)


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
