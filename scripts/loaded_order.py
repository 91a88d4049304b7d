"""Search cost of cluster-3000 with the neighbour order built in the process or loaded from .npy.

Usage:
    python3 scripts/loaded_order.py [--src SRC] [--seeds 1 2 3]

SRC is the src directory of the checkout to measure (default: the one that
holds this script). For each seed the cluster-3000 benchmark input is drawn
(3000 x 3, five groups), standardised and searched as `iclust cluster` does
with that workload's flags: multi_start, combined, 2 restarts x 1 sweep,
beta = (0.2, 0.04), the CLI's default prior. Every search runs in a fresh
Python process, so no run inherits another's malloc history:

- built: the process builds the order with neighbor_order, as the CLI does;
- loaded: the process reads the same order from a .npy file.

Each line gives the minor page faults of the search (getrusage of the
process itself), its seconds and K. The order file sits in a temporary
directory that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _inputs(seed: int):
    """The standardised cluster-3000 data of seed, its prior and search config."""
    import numpy as np
    from iclust import MvHyperParams, SearchConfig, sample_dataset
    from iclust.io import standardize

    gen = MvHyperParams(alpha=4.0, tau=0.001, mu=np.zeros(3), nu=4.0, omega=0.5)
    data, _, _ = standardize(sample_dataset(3000, 5, gen, np.random.default_rng([seed, 3000])).data)
    params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0), nu=4.0, omega=1.0)
    config = SearchConfig(max_sweeps=1, restarts=2, beta1=0.2, beta2=0.04, k_max=20, seed=seed)
    return data, params, config


def _search(seed: int, mode: str, order_path: str) -> dict:
    """One search of seed in this process, its order built or loaded as mode says."""
    import numpy as np
    from iclust import multi_start
    from iclust.io import neighbor_order

    data, params, config = _inputs(seed)
    order = neighbor_order(data) if mode == "built" else np.load(order_path)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    solution = multi_start(data, params, config, order)
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"faults": faults, "search_s": seconds, "K": solution.K}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--one", nargs=3, metavar=("SEED", "MODE", "ORDER"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    if args.one:
        print(json.dumps(_search(int(args.one[0]), args.one[1], args.one[2])))
        return 0

    import numpy as np
    from iclust.io import neighbor_order

    print(f"{'seed':>4} {'order':>6} {'minor faults':>12} {'search s':>9} {'K':>3}")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            order_path = str(Path(tmp) / f"order-{seed}.npy")
            np.save(order_path, neighbor_order(_inputs(seed)[0]))
            for mode in ("built", "loaded"):
                out = subprocess.run([sys.executable, __file__, "--src", str(args.src),
                                      "--one", str(seed), mode, order_path],
                                     capture_output=True, text=True, check=True).stdout
                run = json.loads(out.splitlines()[-1])
                print(f"{seed:4d} {mode:>6} {run['faults']:12d} {run['search_s']:9.3f} "
                      f"{run['K']:3d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
