"""The repository's audit tools as tests: tools/reach.py finds every
definition of the package reached from the commands or kept by its KEEP
table."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_reach_exits_0():
    proc = subprocess.run([sys.executable, os.path.join("tools", "reach.py")],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
