"""The test settings in pyproject.toml, checked by running pytest under them.

Every warning is an error there, so a warning raised while a failure is
reported must not turn that failure into a pytest INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FALSE_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers(min_value=0))
def test_false_property(n):
    assert n < 5


def test_plain():
    print("plain test ran")
'''


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_false.py").write_text(FALSE_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-s", "-rA", "test_false.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "plain test ran" in output
    assert "1 failed, 1 passed" in output
