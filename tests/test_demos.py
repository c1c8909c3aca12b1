"""The quick demos run to completion; each exercises the public imports.

``unbiasedness_demo.py`` is left out: it runs for about 9 s, and the
tests already cover every name it imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["oracle_crosscheck.py", "two_sample_test.py",
                                  "relative_similarity.py"])
def test_demo_runs(demo):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
