"""The package loads scipy.integrate only when a sampled profile needs it.

Each check runs in a fresh interpreter: other test modules import
scipy.integrate into the pytest process, so sys.modules there says nothing
about what `import sagnac_qfi` loads.
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


def test_sampled_profile_loads_scipy_integrate_on_use():
    out = _run("""
        import math, sys
        import numpy as np
        from sagnac_qfi.model import DrivingProfile, PhysicalParams, coefficients

        tau = 2.5
        times = np.linspace(0.0, tau, 401)
        profile = DrivingProfile.sampled(times, np.full_like(times, math.pi / tau))
        coeffs = coefficients(PhysicalParams(), profile, tau)
        print(0.0 <= coeffs.c2 <= 1.0, "scipy.integrate" in sys.modules)
    """)
    assert out.split() == ["True", "True"]
