"""The suite's warning filters: every warning fails a test, except the one
libcst raises when Hypothesis imports it to write a failing example's patch.
Without that exception one failing ``@given`` test stops pytest with an
internal error, and every later test goes unreported."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_a_warning_from_the_package_still_fails():
    warnings.warn_explicit(
        "mypy_extensions.TypedDict is deprecated", DeprecationWarning,
        "exterior.py", 1, module="cokahler.exterior")


def test_after_the_failures():
    pass
'''


def test_a_failing_property_test_leaves_the_others_reported(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout
    assert "2 failed, 1 passed" in run.stdout
    assert "FAILED test_probe.py::test_a_failing_property" in run.stdout
    assert "FAILED test_probe.py::test_a_warning_from_the_package_still_fails" \
        in run.stdout
