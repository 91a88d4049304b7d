"""The benchmark's traced run wraps program functions by module attribute.

perfbench/worker.py replaces names such as iclust.cli.distance_matrix with
timing wrappers. A renamed or removed attribute makes a traced benchmark run
die before its first round, so the lookup is checked here in a fresh process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import iclust, iclust.cli
from spans import Tracer
from worker import _install_spans
_install_spans(Tracer(), iclust)
"""


def test_traced_run_finds_every_wrapped_attribute():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
