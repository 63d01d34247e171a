"""The suite's own settings: with warnings turned into errors, a failing
property test must still report its falsifying example."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted(x):
    assert x < 5
'''


def test_failing_property_test_reports_its_example(tmp_path):
    """Runs a deliberately failing hypothesis test under the project's
    pytest settings in a separate process."""
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
         str(tmp_path / "test_planted.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
