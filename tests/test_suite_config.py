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

COMPLEX_INTO_FLOAT = '''
import numpy as np


def test_complex_into_float():
    grid = np.empty(2)
    grid[:] = np.array([1.0 + 2.0j, 3.0 - 1.0j])
'''

USER_WARNING = '''
import warnings


def test_user_warning():
    warnings.warn("ours", UserWarning)
'''


PASSING = '''
def test_passes():
    pass
'''


def run_pytest(tmp_path: Path, source: str, ini: Path = INI) -> subprocess.CompletedProcess:
    (tmp_path / "test_throwaway.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ini), "-p", "no:cacheprovider", "test_throwaway.py"],
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


def test_misspelled_ini_key_fails(tmp_path):
    ini = tmp_path / "pytest.ini"
    ini.write_text(INI.read_text() + "filterwarning = error\n")
    run = run_pytest(tmp_path, PASSING, ini)
    assert run.returncode != 0, run.stdout + run.stderr
    assert "filterwarning" in run.stdout + run.stderr


def test_complex_cast_to_real_fails(tmp_path):
    # the imaginary part would be dropped without a word
    run = run_pytest(tmp_path, COMPLEX_INTO_FLOAT)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "ComplexWarning" in run.stdout


def test_any_warning_fails(tmp_path):
    run = run_pytest(tmp_path, USER_WARNING)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "UserWarning: ours" in run.stdout
