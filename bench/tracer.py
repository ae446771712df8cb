"""Span tracer for the traced run: wraps the library's public functions from outside.

Each traced function is replaced by a wrapper in every module namespace that
binds it (``scan``, ``cli`` and ``oracle`` import ``coefficients`` and friends
by name, so wrapping ``model.coefficients`` alone would miss their calls).
Spans are recorded only inside an op (``with tracer.op(i):``), kept in memory
as tuples, and turned into per-layer metrics and a span file once at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

PACKAGE_MODULES = (
    "sagnac_qfi",
    "sagnac_qfi.cli",
    "sagnac_qfi.scan",
    "sagnac_qfi.model",
    "sagnac_qfi.states",
    "sagnac_qfi.qfi",
    "sagnac_qfi.oracle",
)

# Layer -> traced functions, as "module:attribute" of the defining module.
# Functions absent here are not wrapped; their time counts as their caller's
# self time.
LAYERS = {
    "cli.main": ["sagnac_qfi.cli:main"],
    "scan.load_config": ["sagnac_qfi.scan:load_config"],
    "scan.serialize": ["sagnac_qfi.scan:rows_to_csv", "sagnac_qfi.scan:result_to_json"],
    "scan.run_scan": [
        "sagnac_qfi.scan:run_scan_n",
        "sagnac_qfi.scan:run_scan_alpha",
        "sagnac_qfi.scan:run_scan_tau",
    ],
    "model.coefficients": ["sagnac_qfi.model:coefficients"],
    "model.derive_constants": ["sagnac_qfi.model:derive_constants"],
    "model.profile": [
        "sagnac_qfi.model:DrivingProfile.constant",
        "sagnac_qfi.model:DrivingProfile.constant_for",
        "sagnac_qfi.model:DrivingProfile.piecewise",
        "sagnac_qfi.model:DrivingProfile.sampled",
    ],
    "states.make_state": [
        "sagnac_qfi.states:make_partially_entangled",
        "sagnac_qfi.states:make_globally_entangled",
    ],
    "states.displaced_fock_amplitudes": ["sagnac_qfi.states:displaced_fock_amplitudes"],
    "states.auto_truncation": ["sagnac_qfi.states:auto_truncation"],
    "states.correlations": [
        "sagnac_qfi.states:correlations_generic",
        "sagnac_qfi.states:correlations_closed_form",
        "sagnac_qfi.states:correlations_single_branch",
    ],
    "qfi.qfi_general": ["sagnac_qfi.qfi:qfi_general"],
    "qfi.closed_forms": [
        "sagnac_qfi.qfi:qfi_partial_closed",
        "sagnac_qfi.qfi:qfi_global_closed",
        "sagnac_qfi.qfi:qfi_difference",
        "sagnac_qfi.qfi:qfi_commensurate",
    ],
    "oracle.build_displacement": ["sagnac_qfi.oracle:build_displacement"],
    "oracle.build_evolution_closed": ["sagnac_qfi.oracle:build_evolution_closed"],
    "oracle.build_evolution_stepped": ["sagnac_qfi.oracle:build_evolution_stepped"],
    "oracle.generator_numeric": ["sagnac_qfi.oracle:generator_numeric"],
    "oracle.qfi_variance_numeric": ["sagnac_qfi.oracle:qfi_variance_numeric"],
    "oracle.qfi_fidelity_numeric": ["sagnac_qfi.oracle:qfi_fidelity_numeric"],
    "oracle.trusted_columns": ["sagnac_qfi.oracle:trusted_columns"],
    "kernel.expm": ["sagnac_qfi.oracle:expm"],
    "kernel.matrix_power": ["numpy.linalg:matrix_power"],
}


def _expm_work(args, kwargs, result):
    return result.shape[0] ** 3  # computed work count: d^3 per call


def _trusted_work(args, kwargs, result):
    d = args[0] if args else kwargs["d"]
    return result / d


WORK = {"kernel.expm": _expm_work, "oracle.trusted_columns": _trusted_work}

FIDELITY_MIN_EVOLUTIONS = 6  # psi(Omega), psi(Omega + delta), psi(Omega + delta/2): 2 spins each

CALLS = (
    "model.coefficients", "model.derive_constants", "states.make_state",
    "oracle.build_displacement", "oracle.build_evolution_closed",
    "oracle.generator_numeric", "oracle.build_evolution_stepped",
    "kernel.expm", "kernel.matrix_power",
)
SELF_MS = (
    "cli.main", "scan.load_config", "scan.serialize", "scan.run_scan",
    "model.coefficients", "model.profile", "states.make_state",
    "states.displaced_fock_amplitudes", "states.auto_truncation", "states.correlations",
    "qfi.qfi_general", "qfi.closed_forms", "oracle.build_displacement",
    "oracle.build_evolution_closed", "oracle.generator_numeric",
    "oracle.qfi_variance_numeric", "oracle.qfi_fidelity_numeric",
    "oracle.build_evolution_stepped", "kernel.expm", "kernel.matrix_power",
)

# Layers that must record calls on each workload, or the traced run fails.
REQUIRED = {
    "closed-scan": (
        "cli.main", "scan.load_config", "scan.serialize", "scan.run_scan",
        "model.coefficients", "model.derive_constants", "states.make_state",
        "states.displaced_fock_amplitudes", "states.auto_truncation",
        "states.correlations", "qfi.qfi_general", "qfi.closed_forms",
    ),
    "oracle-dense": (
        "model.coefficients", "model.derive_constants", "oracle.build_displacement",
        "oracle.build_evolution_closed", "oracle.generator_numeric",
        "oracle.qfi_variance_numeric", "oracle.qfi_fidelity_numeric",
        "oracle.trusted_columns", "kernel.expm",
    ),
    "stepped-evolution": (
        "model.coefficients", "model.derive_constants", "model.profile",
        "oracle.build_evolution_stepped", "oracle.trusted_columns",
        "kernel.expm", "kernel.matrix_power",
    ),
}


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records (layer, start, end, parent, op, work) spans of traced calls."""

    def __init__(self):
        self.layers = list(LAYERS) + ["op"]
        self.spans: list = []
        self._stack: list[int] = []
        self._op = None
        self._patched: list = []

    def _wrap(self, layer: str, fn):
        layer_id = self.layers.index(layer)
        work = WORK.get(layer)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer_id, start, end, parent, self._op, 0)
            if work is not None:
                spans[index] = spans[index][:5] + (work(args, kwargs, result),)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        namespaces = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr = _resolve(target)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, staticmethod):
                    self._patch(owner, attr, staticmethod(self._wrap(layer, raw.__func__)))
                    continue
                wrapper = self._wrap(layer, raw)
                for namespace in {id(n): n for n in namespaces + [owner]}.values():
                    for name, value in list(vars(namespace).items()):
                        if value is raw:
                            self._patch(namespace, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    @contextmanager
    def op(self, op_id: int):
        """Record spans for one op, under a root span named "op"."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._op = None
            self._stack.pop()
            self.spans[index] = (self.layers.index("op"), start, end, -1, op_id, 0)

    def layer_totals(self) -> dict:
        """Per layer: calls, self seconds and summed work, over all spans."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {name: {"calls": 0, "self_s": 0.0, "work": 0.0} for name in self.layers}
        for (layer, start, end, _, _, work), child in zip(self.spans, covered):
            entry = totals[self.layers[layer]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child
            entry["work"] += work
        return totals

    def fidelity_evolution_ratio(self) -> float:
        """FIDELITY_MIN_EVOLUTIONS per fidelity call over the closed evolutions
        actually built inside fidelity calls; 1.0 means no re-adaptation."""
        fidelity = self.layers.index("oracle.qfi_fidelity_numeric")
        closed = self.layers.index("oracle.build_evolution_closed")
        calls = built = 0
        for layer, _, _, parent, _, _ in self.spans:
            if layer == fidelity:
                calls += 1
            elif layer == closed:
                while parent >= 0 and self.spans[parent][0] != fidelity:
                    parent = self.spans[parent][3]
                built += parent >= 0
        return FIDELITY_MIN_EVOLUTIONS * calls / built if built else 0.0

    def metrics(self, workload: str, n_ops: int) -> tuple[dict, list[str]]:
        """Per-op layer metrics, and the required layers that recorded no call."""
        totals = self.layer_totals()
        per_op = 1.0 / n_ops
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = (totals[name]["calls"] * per_op, "calls/op")
        for name in SELF_MS:
            out[f"{name}.self_ms"] = (totals[name]["self_s"] * 1e3 * per_op, "ms/op")
        out["kernel.expm.dim3"] = (totals["kernel.expm"]["work"] * per_op, "d3/op")
        out["oracle.fidelity_evolution_ratio"] = (self.fidelity_evolution_ratio(), "ratio")
        trusted = totals["oracle.trusted_columns"]
        out["oracle.trusted_fraction"] = (
            trusted["work"] / trusted["calls"] if trusted["calls"] else 0.0, "ratio"
        )
        missing = [name for name in REQUIRED[workload] if totals[name]["calls"] == 0]
        return out, missing

    def write(self, path: Path) -> None:
        """Write every span once, as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layers,
                       "fields": ["layer", "start_s", "end_s", "parent", "op", "work"],
                       "spans": self.spans}, fh)
