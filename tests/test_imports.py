"""What the package imports, checked in fresh processes.

The runtime depends on numpy alone, and a search must not import anything:
numpy loads numpy.random and numpy.ma on first use, and a module first loaded
inside a search is paid for in the search's own time.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NO_SCIPY = """
import sys
import iclust.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""

SEARCH = """
import contextlib, io, sys, tempfile
from pathlib import Path
import numpy as np
from iclust import DataSet, MvHyperParams, SearchConfig, multi_start
from iclust.cli import build_parser, main
from iclust.io import write_csv

# two separated groups, drawn without numpy.random
t = np.arange(30.0)
x = np.column_stack([np.sin(1.7 * t), np.cos(2.3 * t)]) + 8.0 * (t >= 15)[:, None]
params = MvHyperParams(alpha=4.0, tau=0.01, mu=x.mean(axis=0), nu=3.0, omega=1.0)
config = SearchConfig(max_sweeps=3, restarts=2, seed=1)
tmp = Path(tempfile.mkdtemp())
write_csv(x, tmp / "x.csv")
argv = ["cluster", "--data", str(tmp / "x.csv"), "--standardize", "--restarts", "2",
        "--sweeps", "3", "--seed", "1", "--out", str(tmp / "result.json")]
# argparse's messages go through gettext, which imports locale on the first
# parse; that is argument handling, done before any search
build_parser().parse_args(argv)
before = set(sys.modules)
for algorithm in ("plain", "combined"):
    multi_start(DataSet(x), params, config, algorithm=algorithm)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(argv) == 0
loaded = sorted(set(sys.modules) - before)
assert not loaded, loaded
"""


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy():
    proc = _run(NO_SCIPY)
    assert proc.returncode == 0, proc.stderr


def test_searches_and_cluster_command_import_nothing():
    proc = _run(SEARCH)
    assert proc.returncode == 0, proc.stderr
