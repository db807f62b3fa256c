"""The repo's pytest settings, checked by running pytest on a probe file in a subprocess."""

import subprocess
import sys
from pathlib import Path

_CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

_PROBE = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_a_passing_test():
    pass


def test_another_deprecation_warning():
    warnings.warn("still an error", DeprecationWarning)
'''


def test_a_failing_property_test_is_reported_and_other_warnings_stay_errors(tmp_path):
    # Every warning is an error, but the one hypothesis's report hook raises
    # when a property test fails must not turn into an INTERNALERROR (exit
    # 3) that hides the falsifying example and stops the run.
    (tmp_path / "test_probe.py").write_text(_PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(_CONFIG),
         "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    out = result.stdout + result.stderr
    assert result.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "2 failed, 1 passed" in out
    assert "DeprecationWarning: still an error" in out
