"""The suite's pytest configuration reports a failing Hypothesis test normally.

`filterwarnings` turns every warning into an error.  A warning raised while
hypothesis reports a falsifying example would then abort the whole session
with INTERNALERROR, and the tests after the failing one would never run.
The check runs a deliberately failing `@given` test in a fresh pytest
process under this repository's `pyproject.toml`.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_given_test_is_reported_as_failed(tmp_path):
    (tmp_path / "test_drawn.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers(0, 10))
        def test_fails(x):
            assert x < 0

        def test_after():
            pass
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_drawn.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    assert len(failed) == 1 and "test_drawn.py::test_fails" in failed[0]
    assert "1 failed, 1 passed" in done.stdout
    assert done.returncode == 1
