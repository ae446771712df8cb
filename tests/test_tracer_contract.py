"""The benchmark's tracer still finds every function it times.

`bench/tracer.py` names its layers as "module:attribute" targets in the
package (`kernel.expm` is `sagnac_qfi.oracle:expm`).  Renaming or dropping
one of them breaks the traced benchmark run, so these tests install the
tracer against the package and remove it again, and run the closed-scan
commands, the oracle-dense routes and the stepped-evolution ops under it.
The tracer is imported by path and used as it is.
"""

import importlib.util
import math
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(tracer, target: str):
    owner, attr = tracer._resolve(target)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_layer_target_resolves_wraps_and_restores(tracer):
    targets = [target for group in tracer.LAYERS.values() for target in group]
    originals = {target: _bound(tracer, target) for target in targets}
    t = tracer.Tracer()
    t.install()
    try:
        for target in targets:
            assert _bound(tracer, target) is not originals[target], target
    finally:
        t.uninstall()
    for target in targets:
        assert _bound(tracer, target) is originals[target], target


def test_oracle_dense_required_layers_record_calls(tracer):
    # The traced oracle-dense run fails when a required layer records no
    # call, e.g. after a refactor that stops going through
    # build_evolution_closed, build_displacement or expm.  Both QFI routes at
    # N = 1 and 2, called through the package as the workload calls them.
    import sagnac_qfi as sq

    tau = 0.537 * 2.0 * math.pi  # an unusual point, so no coefficient memo hit
    params = sq.PhysicalParams(rotation_rate=0.173)
    profile = sq.DrivingProfile.constant_for(tau)
    cases = [(route, n) for route in ("variance", "fidelity") for n in (1, 2)]
    t = tracer.Tracer()
    t.install()
    try:
        for op_id, (route, n_particles) in enumerate(cases):
            with t.op(op_id):
                state = sq.make_partially_entangled(0.7 + 0.3j, 1, n_particles=n_particles)
                oracle_route = getattr(sq, f"qfi_{route}_numeric")
                oracle_route(state, params, profile, tau)
    finally:
        t.uninstall()
    metrics, missing = t.metrics("oracle-dense", len(cases))
    assert missing == []
    # Every fidelity evolution is built through build_evolution_closed.
    assert metrics["oracle.fidelity_evolution_ratio"][0] > 0.0


def test_stepped_evolution_required_layers_record_calls(tracer):
    # The traced stepped-evolution run fails when a required layer records no
    # call, e.g. after a refactor that stops forming step factors through
    # expm or powers through matrix_power.  One sampled, one constant and one
    # piecewise op, each called through the package as the workload calls
    # them: profile, coefficients, sized d, stepped and closed evolution,
    # trusted columns.
    import numpy as np

    import sagnac_qfi as sq
    from sagnac_qfi import oracle

    def profile(kind, tau):
        if kind == "constant":
            return sq.DrivingProfile.constant_for(tau)
        if kind == "piecewise":
            return sq.DrivingProfile.piecewise(
                [[0.4 * tau, 1.5], [0.6 * tau, 0.8]], normalization="rescale"
            )
        t = np.linspace(0.0, tau, 2001)
        return sq.DrivingProfile.sampled(
            t, 1.0 + 0.3 * np.sin(2.0 * t / tau), normalization="rescale"
        )

    ops = [("sampled", 0.6, +1, 8, 200), ("constant", 0.5, -1, 12, 10_000),
           ("piecewise", 0.7, +1, 12, 10_000)]
    t = tracer.Tracer()
    t.install()
    try:
        for op_id, (kind, periods, spin, columns, steps) in enumerate(ops):
            with t.op(op_id):
                params = sq.PhysicalParams()
                tau = periods * 2.0 * math.pi
                drive = profile(kind, tau)
                eta = abs(sq.coefficients(params, drive, tau).eta(spin))
                d = oracle.required_truncation(columns, eta)
                sq.build_evolution_stepped(params, drive, tau, spin, d, steps)
                sq.build_evolution_closed(params, drive, tau, spin, d)
                oracle.trusted_columns(d, eta)
    finally:
        t.uninstall()
    _, missing = t.metrics("stepped-evolution", len(ops))
    assert missing == []


# One op of each closed-scan command; scan-alpha sweeps theta_alpha and |alpha|.
CLOSED_SCAN_OPS = [
    ["scan-tau", "--set", "sweep.variable=tau", "--set", "sweep.start=1.0",
     "--set", "sweep.stop=9.0", "--set", "sweep.scale=linear"],
    ["scan-n", "--set", "profile.tau=2.0"],
    ["scan-alpha", "--set", "profile.tau=2.0", "--set", "sweep.variable=theta_alpha",
     "--set", "sweep.start=0.0", "--set", "sweep.stop=6.0", "--set", "sweep.scale=linear"],
    ["scan-alpha", "--set", "profile.tau=2.0", "--set", "sweep.variable=abs_alpha",
     "--set", "sweep.start=0.1", "--set", "sweep.stop=2.5", "--set", "sweep.scale=linear"],
    ["qfi", "--set", "profile.tau=2.0"],
    ["coeffs", "--set", "profile.tau=2.0"],
]


def test_closed_scan_required_layers_record_calls(tracer, tmp_path):
    # The traced closed-scan run fails when a required layer records no call.
    # scan-alpha builds its states in row blocks, not through the state
    # builders, so its blocks must still size rows through auto_truncation
    # and evaluate them through displaced_fock_amplitudes, where the traced
    # run puts the sweep's state time.
    from sagnac_qfi import cli

    out = str(tmp_path / "op.out")
    ops = [argv + ["--set", f"state.kind={kind}", "--out", out]
           for kind in ("partial", "global") for argv in CLOSED_SCAN_OPS]
    t = tracer.Tracer()
    t.install()
    try:
        for op_id, argv in enumerate(ops):
            with t.op(op_id):
                assert cli.main(argv) == 0
    finally:
        t.uninstall()
    _, missing = t.metrics("closed-scan", len(ops))
    assert missing == []
    scan_alpha = {op_id for op_id, argv in enumerate(ops) if argv[0] == "scan-alpha"}
    layers = {t.layers[span[0]] for span in t.spans if span[4] in scan_alpha}
    assert {"states.auto_truncation", "states.displaced_fock_amplitudes"} <= layers
