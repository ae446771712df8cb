"""What each route loads of scipy.

The package never loads scipy.integrate: its Simpson quadrature is its own.
Its log-Gamma and Laguerre values are its own too, so `import sagnac_qfi` and
the closed-form route load no scipy module at all.  Only the dense oracle
builders load scipy.linalg, on their first exponential or eigensolve, and
only a displaced Fock state with n >= 20 loads scipy.special.

Each check runs in a fresh interpreter: other test modules import scipy into
the pytest process, so sys.modules there says nothing about what
`import sagnac_qfi` loads.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.setdefault(var, "1")
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy_module():
    out = _run("""
        import sys
        import sagnac_qfi
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    assert out.split() == ["[]"]


def test_closed_route_subcommands_load_no_scipy_module(tmp_path):
    out = _run(f"""
        import sys
        from sagnac_qfi import cli

        for command, sets in [
            ("coeffs", []),
            ("qfi", ["state.kind=partial", "state.n=2"]),
            ("scan-n", ["sweep.points=4"]),
            ("scan-alpha", ["state.n=2", "sweep.variable=abs_alpha", "sweep.scale=linear",
                            "sweep.start=0.1", "sweep.stop=2", "sweep.points=4"]),
            ("scan-tau", ["sweep.variable=tau", "sweep.scale=linear",
                          "sweep.start=1", "sweep.stop=9", "sweep.points=4"]),
        ]:
            argv = [command, "--out", {str(tmp_path)!r} + "/" + command + ".csv"]
            if command != "scan-tau":
                sets = ["profile.tau=3.141592653589793", *sets]
            for item in sets:
                argv += ["--set", item]
            loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
            print(command, cli.main(argv), len(loaded))
    """)
    assert out.split() == [
        word
        for command in ("coeffs", "qfi", "scan-n", "scan-alpha", "scan-tau")
        for word in (command, "0", "0")
    ]


def test_oracle_builders_load_scipy_linalg_but_not_scipy_special(tmp_path):
    out = _run(f"""
        import sys
        import numpy as np
        from sagnac_qfi import cli
        from sagnac_qfi.model import DrivingProfile, PhysicalParams
        from sagnac_qfi.oracle import build_evolution_stepped

        times = np.linspace(0.0, 2.5, 401)
        profile = DrivingProfile.sampled(times, 1.0 + 0.3 * np.sin(times), "rescale")
        print("scipy.linalg" in sys.modules)
        u = build_evolution_stepped(PhysicalParams(ring_radius=0.5), profile, 2.5, 1, 12, 100)
        print(u.shape == (12, 12), "scipy.linalg" in sys.modules, "scipy.special" in sys.modules)
        argv = ["oracle-check", "--out", {str(tmp_path / "o.csv")!r},
                "--set", "profile.tau=3.141592653589793", "--set", "oracle.n_max=1"]
        print(cli.main(argv), "scipy.special" in sys.modules)
    """)
    assert out.split() == ["False", "True", "True", "False", "0", "False"]


def test_only_a_fock_level_from_20_loads_scipy_special():
    out = _run("""
        import sys
        from sagnac_qfi.states import make_partially_entangled

        for n in (2, 19, 20):
            make_partially_entangled(0.8 - 0.3j, n)
            print(n, "scipy.special" in sys.modules, "scipy.linalg" in sys.modules)
    """)
    assert out.split() == ["2", "False", "False", "19", "False", "False",
                           "20", "True", "False"]


def test_import_does_not_load_scipy_integrate():
    out = _run("""
        import sys
        import sagnac_qfi
        print("scipy.integrate" in sys.modules)
    """)
    assert out.split() == ["False"]


def test_closed_scan_and_piecewise_oracle_do_not_load_scipy_integrate(tmp_path):
    out = _run(f"""
        import math, sys
        from sagnac_qfi import cli
        from sagnac_qfi.model import DrivingProfile, PhysicalParams
        from sagnac_qfi.oracle import qfi_variance_numeric
        from sagnac_qfi.states import make_globally_entangled

        code = cli.main(["scan-tau", "--set", "sweep.variable=tau", "--set", "sweep.start=1",
                         "--set", "sweep.stop=9", "--set", "sweep.points=5",
                         "--set", "sweep.scale=linear", "--out", {str(tmp_path / "t.csv")!r}])
        print(code, "scipy.integrate" in sys.modules)
        tau = math.pi
        f = qfi_variance_numeric(make_globally_entangled(-0.5, n_particles=1), PhysicalParams(),
                                 DrivingProfile.constant_for(tau), tau)
        print(f > 0, "scipy.integrate" in sys.modules)
    """)
    assert out.split() == ["0", "False", "True", "False"]


def test_sampled_profile_coefficients_and_stepped_evolution_do_not_load_scipy_integrate():
    out = _run("""
        import math, sys
        import numpy as np
        from sagnac_qfi.model import DrivingProfile, PhysicalParams, coefficients
        from sagnac_qfi.oracle import build_evolution_stepped

        tau = 2.5
        for samples in (400, 401):
            times = np.linspace(0.0, tau, samples)
            shape = 1.0 + 0.3 * np.sin(2.0 * times / tau)
            profile = DrivingProfile.sampled(times, shape, normalization="rescale")
            print("scipy.integrate" in sys.modules)
            coeffs = coefficients(PhysicalParams(ring_radius=0.5), profile, tau)
            print(0.0 <= coeffs.c2 <= 1.0, "scipy.integrate" in sys.modules)
            u = build_evolution_stepped(PhysicalParams(ring_radius=0.5), profile, tau, 1, 12, 100)
            print(u.shape == (12, 12), "scipy.integrate" in sys.modules)
    """)
    assert out.split() == ["False", "True", "False", "True", "False"] * 2


def test_every_cli_subcommand_leaves_scipy_integrate_unloaded(tmp_path):
    out = _run(f"""
        import sys
        from sagnac_qfi import cli

        for command, sets in [
            ("coeffs", []),
            ("qfi", ["state.kind=partial", "state.n=1"]),
            ("scan-n", ["sweep.points=4"]),
            ("scan-alpha", ["sweep.variable=abs_alpha", "sweep.scale=linear",
                            "sweep.start=0.1", "sweep.stop=2", "sweep.points=4"]),
            ("scan-tau", ["sweep.variable=tau", "sweep.scale=linear",
                          "sweep.start=1", "sweep.stop=9", "sweep.points=4"]),
            ("oracle-check", ["oracle.n_max=1"]),
        ]:
            argv = [command, "--out", {str(tmp_path)!r} + "/" + command + ".csv"]
            if command != "scan-tau":
                sets = ["profile.tau=3.141592653589793", *sets]
            for item in sets:
                argv += ["--set", item]
            print(command, cli.main(argv), "scipy.integrate" in sys.modules)
    """)
    assert out.split() == [
        word
        for command in ("coeffs", "qfi", "scan-n", "scan-alpha", "scan-tau", "oracle-check")
        for word in (command, "0", "False")
    ]
