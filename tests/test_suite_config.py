"""The suite's own settings let a failing property report its falsifying example."""

import subprocess
import sys
from pathlib import Path

INI = Path(__file__).resolve().parent.parent / "pytest.ini"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''

OWN_DEPRECATION = '''
import warnings


def test_warns():
    warnings.warn("ours", DeprecationWarning)
'''


def run_pytest(tmp_path: Path, source: str) -> subprocess.CompletedProcess:
    (tmp_path / "test_throwaway.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(INI), "-p", "no:cacheprovider", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_failing_property_shows_its_example(tmp_path):
    # reporting a failure imports libcst, which warns DeprecationWarning from mypy_extensions
    run = run_pytest(tmp_path, FAILING_PROPERTY)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_our_deprecation_warnings_still_fail(tmp_path):
    run = run_pytest(tmp_path, OWN_DEPRECATION)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "DeprecationWarning: ours" in run.stdout
