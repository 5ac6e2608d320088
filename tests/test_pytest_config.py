"""The project's pytest settings keep a failing property's report readable.

Warnings are errors in this suite, but the ``hypothesis`` plugin's report
hook raises a ``DeprecationWarning`` of its own when a property fails; the
settings let that one through, so the falsifying example is shown instead
of a pytest INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
'''


def test_failing_property_shows_its_falsifying_example(tmp_path):
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY, encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    argv += ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
