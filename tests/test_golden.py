"""Golden outputs: the exact bytes and exit code of every subcommand.

Each case runs ``main(argv + ["--out", path])`` and compares the written file
with ``tests/golden/<case>``.  Sweeps stay at 9 points or fewer so the files
stay small.  Rewrite the files only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py

The bytes do not depend on the BLAS thread count: one test runs every case
again in a fresh interpreter at two threads.
"""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

if __name__ == "__main__":
    # Regenerate at one BLAS thread, as conftest.py pins the suite, before
    # numpy is first imported.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from sagnac_qfi.cli import main  # noqa: E402

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"


def _sets(**values) -> list[str]:
    argv = []
    for key, value in values.items():
        argv += ["--set", f"{key.replace('__', '.')}={value}"]
    return argv


TAU = _sets(profile__tau=math.pi)
GLOBAL_ALPHA = _sets(state__alpha_re=-0.8, state__alpha_im=0.3)
N_SCAN = _sets(sweep__points=6)
THETA_SCAN = _sets(
    sweep__variable="theta_alpha", sweep__scale="linear", sweep__start=0.0,
    sweep__stop=2.0 * math.pi, sweep__points=9,
)
ABS_SCAN = _sets(
    sweep__variable="abs_alpha", sweep__scale="linear", sweep__start=0.1,
    sweep__stop=2.5, sweep__points=7,
)
TAU_SCAN = _sets(
    sweep__variable="tau", sweep__scale="linear", sweep__start=0.628,
    sweep__stop=18.8, sweep__points=9,
)
ORACLE = _sets(oracle__n_max=1)

# name -> (exit code, argv); cases with exit code 2 must write no file.
BASE = {
    "coeffs": (0, ["coeffs", *TAU]),
    "qfi-global": (0, ["qfi", *TAU, *GLOBAL_ALPHA, *_sets(n_particles=7)]),
    "qfi-partial": (
        0,
        ["qfi", *TAU, *_sets(state__kind="partial", state__n=1,
                             physical__ring_radius=1.5)],
    ),
    "qfi-product": (0, ["qfi", *TAU, *_sets(state__kind="product", state__n=2)]),
    "scan-n": (0, ["scan-n", *TAU, *N_SCAN]),
    "scan-alpha": (0, ["scan-alpha", *TAU, *GLOBAL_ALPHA, *THETA_SCAN]),
    "scan-tau": (0, ["scan-tau", *TAU_SCAN, *_sets(n_particles=10)]),
    "oracle-check": (0, ["oracle-check", *ORACLE]),
}
CASES = {
    f"{name}.{fmt}": (code, [*argv, "--format", fmt])
    for name, (code, argv) in BASE.items()
    for fmt in ("csv", "json")
}
CASES.update({
    "qfi-commensurate.csv": (
        0, ["qfi", *_sets(profile__tau=2.0 * math.pi, n_particles=100)],
    ),
    "scan-n-product.csv": (
        0, ["scan-n", *TAU, *N_SCAN, *_sets(state__kind="product", state__n=1)],
    ),
    "scan-alpha-partial.csv": (
        0,
        ["scan-alpha", *TAU, *ABS_SCAN, *_sets(state__kind="partial", state__n=2)],
    ),
    "scan-tau-product.json": (
        0,
        ["scan-tau", *TAU_SCAN, *_sets(state__kind="product"), "--format", "json"],
    ),
    "oracle-check-c2-sign.csv": (
        3, ["oracle-check", *ORACLE, *_sets(oracle__inject_fault="c2-sign")],
    ),
    "oracle-check-c2-sign.json": (
        3,
        ["oracle-check", *ORACLE, *_sets(oracle__inject_fault="c2-sign"),
         "--format", "json"],
    ),
    "oracle-check-n2.json": (0, ["oracle-check", "--format", "json"]),
    "oracle-check-n3.csv": (0, ["oracle-check", *_sets(oracle__n_max=3)]),
    "oracle-check-radius.csv": (
        0, ["oracle-check", *ORACLE, *_sets(physical__ring_radius=1.5)],
    ),
    "oracle-check-rotating.csv": (
        0, ["oracle-check", *ORACLE, *_sets(physical__rotation_rate=0.3)],
    ),
    "qfi-missing-tau.csv": (2, ["qfi"]),
    "scan-n-bad-points.csv": (2, ["scan-n", *TAU, *_sets(sweep__points=1)]),
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    code, argv = CASES[name]
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == code
    if code == 2:
        assert not out.exists()
    else:
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_every_case_has_the_same_bytes_at_two_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when numpy is first imported, so the
    # cases run in one fresh interpreter started with two threads.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), str(HERE), env.get("PYTHONPATH")])
    )
    script = textwrap.dedent(f"""
        from test_golden import CASES, main
        for name, (code, argv) in sorted(CASES.items()):
            print(name, main([*argv, "--out", {str(tmp_path)!r} + "/" + name]))
    """)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes = dict(line.split() for line in done.stdout.splitlines())
    assert codes == {name: str(code) for name, (code, _) in CASES.items()}
    for name, (code, _) in CASES.items():
        out = tmp_path / name
        if code == 2:
            assert not out.exists()
        else:
            assert out.read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (code, argv) in sorted(CASES.items()):
        got = main([*argv, "--out", str(GOLDEN / name)])
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")
        print(name, got)
