"""Seeded search outputs of a fixed suite, to tell whether a change moves them.

Usage:
    python3 scripts/seeded_records.py OUT.json
    python3 scripts/seeded_records.py --compare A.json B.json

The first form runs the suite with the iclust of the checkout that holds this
script and writes one record per search: K, the labels, the exact ICL and
restart_bests, floats as hex so equal means bit for bit equal. The suite is
152 seeded multi_start runs, each plain and combined unless noted:

- galaxy: the standardised galaxy data over the 18-cell grid of criterion 1
  (10 restarts, 10 sweeps);
- sep, ovl: criterion 7's separated and overlapping 150-point data over the
  18-point Table-2 grid (10 restarts, 15 sweeps);
- c8: criterion 8's 600-point data over its 6 points (10 restarts, 10 sweeps);
- gen: generated 300-point data at b = 1..5 with 3 seeds each, so the
  stacked Cholesky of b >= 4 has records too;
- big: two combined runs on 3000 x 3 data (2 restarts, 2 sweeps).

It takes 40-70 s on a 2-core machine. The second form reports the records
whose K or labels differ, which exits 1, and how far the ICL and
restart_bests moved where they differ.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _hex(value):
    return None if value is None else float(value).hex()


def _searches():
    """(name, data, params, config, order) of every run of the suite."""
    import numpy as np
    from iclust import MvHyperParams, SearchConfig, UvHyperParams, sample_dataset
    from iclust.io import neighbor_order, read_csv, standardize

    def both(name, data, params, config):
        order = neighbor_order(data)
        for algorithm in ("plain", "combined"):
            yield f"{name}/{algorithm}", data, params, config, algorithm, order

    def drawn(n, k, b, tau, seed):
        gen = MvHyperParams(alpha=4.0, tau=tau, mu=np.zeros(b), nu=b + 1.0, omega=0.5)
        return sample_dataset(n, k, gen, np.random.default_rng(seed)).data

    galaxy, _, _ = standardize(read_csv(ROOT / "src" / "iclust" / "data" / "galaxy.csv"))
    cells = itertools.product((0.1, 0.01, 0.001), (1.0, 0.1, 0.01), (0.5, 10.0))
    for i, (tau, delta, alpha) in enumerate(cells):
        params = UvHyperParams(alpha=alpha, tau=tau, mu=0.0, gamma=1.0, delta=delta)
        yield from both(f"galaxy/{i}", galaxy, params,
                        SearchConfig(max_sweeps=10, restarts=10, k_max=20, seed=1000 + i))

    gen2 = dict(alpha=4.0, mu=np.zeros(2), nu=3.0, omega=0.5)
    table2 = list(itertools.product((0.1, 1.0, 10.0), (0.1, 0.01), (0.5, 4.0, 10.0)))
    for name, tau, rng_seed, seed0 in (("sep", 0.001, 2, 7100), ("ovl", 0.5, 1, 7200)):
        data = sample_dataset(150, 4, MvHyperParams(tau=tau, **gen2),
                              np.random.default_rng(rng_seed)).data
        for i, (omega, tau_i, alpha) in enumerate(table2):
            params = MvHyperParams(alpha=alpha, tau=tau_i, mu=data.values.mean(axis=0),
                                   nu=3.0, omega=omega)
            yield from both(f"{name}/{i}", data, params,
                            SearchConfig(max_sweeps=15, restarts=10, k_max=20, seed=seed0 + i))

    data = sample_dataset(600, 4, MvHyperParams(tau=0.001, **gen2),
                          np.random.default_rng(11)).data
    for i, (tau, omega) in enumerate(itertools.product((0.1, 0.01), (0.1, 1.0, 10.0))):
        params = MvHyperParams(alpha=4.0, tau=tau, mu=data.values.mean(axis=0), nu=3.0,
                               omega=omega)
        yield from both(f"c8/{i}", data, params,
                        SearchConfig(max_sweeps=10, restarts=10, k_max=20, beta1=0.2,
                                     beta2=0.04, seed=8000 + i))

    for b, seed in itertools.product((1, 2, 3, 4, 5), (0, 1, 2)):
        data = drawn(300, 4, b, 0.01, seed)
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0), nu=b + 1.0,
                               omega=0.5)
        yield from both(f"gen/b{b}/{seed}", data, params,
                        SearchConfig(max_sweeps=10, restarts=5, beta1=0.2, beta2=0.04,
                                     seed=seed))

    for seed in (0, 1):
        data = drawn(3000, 5, 3, 0.001, [seed, 3000])
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0), nu=4.0,
                               omega=0.5)
        yield (f"big/{seed}", data, params,
               SearchConfig(max_sweeps=2, restarts=2, beta1=0.2, beta2=0.04, seed=seed),
               "combined", neighbor_order(data))


def record(out: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from iclust import NumericalError, multi_start

    records = []
    for name, data, params, config, algorithm, order in _searches():
        try:
            sol = multi_start(data, params, config, order, algorithm)
        except (ValueError, NumericalError) as exc:
            records.append({"name": name, "error": str(exc)})
            continue
        records.append({"name": name, "K": sol.K, "labels": sol.allocation.labels.tolist(),
                        "icl": _hex(sol.icl),
                        "restart_bests": [_hex(v) for v in sol.restart_bests]})
    out.write_text(json.dumps(records) + "\n", encoding="utf-8")
    print(f"{len(records)} records -> {out}")
    return 0


def compare(path_a: Path, path_b: Path) -> int:
    a = {r["name"]: r for r in json.loads(path_a.read_text(encoding="utf-8"))}
    b = {r["name"]: r for r in json.loads(path_b.read_text(encoding="utf-8"))}
    if a.keys() != b.keys():
        print(f"suites differ: {sorted(a.keys() ^ b.keys())}")
        return 1
    decisions = []
    moved = worst = worst_rel = worst_bests = 0.0
    for name, ra in a.items():
        rb = b[name]
        if (ra.get("K"), ra.get("labels"), ra.get("error")) != (
                rb.get("K"), rb.get("labels"), rb.get("error")):
            decisions.append(name)
            continue
        if "error" in ra:
            continue
        ia, ib = float.fromhex(ra["icl"]), float.fromhex(rb["icl"])
        if ia != ib:
            moved += 1
            worst = max(worst, abs(ia - ib))
            worst_rel = max(worst_rel, abs(ia - ib) / abs(ia))
        for va, vb in zip(ra["restart_bests"], rb["restart_bests"]):
            if (va is None) != (vb is None):
                decisions.append(f"{name} (a restart failed on one side only)")
            elif va is not None:
                worst_bests = max(worst_bests, abs(float.fromhex(va) - float.fromhex(vb)))
    print(f"{len(a)} records; K or labels differ in {len(decisions)}")
    for name in decisions:
        print(f"  differs: {name}")
    print(f"ICL moved in {int(moved)} records, by at most {worst:.3g} ({worst_rel:.3g} relative)")
    print(f"restart_bests moved by at most {worst_bests:.3g}")
    return 1 if decisions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=Path, help="JSON file to write the records to")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two record files instead of running the suite")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT.json or --compare A B")
    return record(args.out)


if __name__ == "__main__":
    sys.exit(main())
