"""Run the end-to-end benchmark of two checkouts in pairs, in random order, and compare.

Usage:
    python3 scripts/bench_pairs.py A_ROOT B_ROOT [--workloads galaxy-sweep,cluster-3000]
        [--pairs 10] [--seconds 8] [--seed0 1]

Each ROOT is a source checkout with its own perfbench/. Pair i runs
``perfbench/run.py --workload W --seed SEED0+i --seconds S --trace 0`` in
both checkouts, one after the other, for each workload in turn; which side
runs first is drawn from a generator seeded with --seed0, so the order is
random but repeatable. Two copies of the same tree give an A/A run, the
spread to read an A/B run against. Both sides need the same bytecode state:
a src/iclust/__pycache__ on one side only lowers that side's setup_s and
peak RSS, so the script exits 2 before any run, naming that side's root.

Every run's metrics go to stderr as it ends. The report then gives, per
workload and end-to-end metric of BENCHMARK.json, each side's median and
quartiles over the pairs and the number of pairs B won, by the metric's
direction; a tie counts for neither side. The exit status is 1 if any run
was not ``correct`` or printed no result. Nothing is written outside the two
checkouts' perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("galaxy-sweep", "cluster-3000", "plain-150")


def run_once(root: Path, workload: str, seed: int, seconds: float):
    """The result line of one benchmark run in root, or None if it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def _spread(values):
    """Median and quartiles of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_root", type=Path)
    parser.add_argument("b_root", type=Path)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    roots = {"A": args.a_root.resolve(), "B": args.b_root.resolve()}
    cached = [root for root in roots.values() if (root / "src/iclust/__pycache__").is_dir()]
    if len(cached) == 1:
        print(f"error: only {cached[0]} has src/iclust/__pycache__; remove it or give "
              "the other root one too", file=sys.stderr)
        return 2

    order = random.Random(args.seed0)
    values = {(w, side): [] for w in workloads for side in roots}
    ok = True
    for i in range(args.pairs):
        seed = args.seed0 + i
        for workload in workloads:
            sides = ["A", "B"] if order.random() < 0.5 else ["B", "A"]
            for side in sides:
                result = run_once(roots[side], workload, seed, args.seconds)
                good = result is not None and result["correct"] and result["metrics"]
                ok = ok and bool(good)
                got = {m["name"]: result["metrics"][m["name"]]["value"]
                       for m in metrics} if good else None
                values[workload, side].append(got)
                print(f"pair {i} seed {seed} {workload} {side} "
                      f"({('first', 'second')[sides.index(side)]}): "
                      f"{'not correct' if got is None else json.dumps(got)}",
                      file=sys.stderr, flush=True)

    print(f"A = {roots['A']}\nB = {roots['B']}\n{args.pairs} pairs, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}, --seconds {args.seconds}, random order")
    print(f"{'workload':14s} {'metric':12s} {'A median [q1, q3]':>28s} "
          f"{'B median [q1, q3]':>28s}  B won")
    for workload in workloads:
        pairs = [(a, b) for a, b in zip(values[workload, "A"], values[workload, "B"])
                 if a is not None and b is not None]
        if not pairs:
            print(f"{workload:14s} no pair with two correct runs")
            continue
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            a = [p[0][name] for p in pairs]
            b = [p[1][name] for p in pairs]
            won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*_spread(v)) for v in (a, b)]
            print(f"{workload:14s} {name:12s} {cells[0]:>28s} {cells[1]:>28s}  "
                  f"{won}/{len(pairs)}")
    if not ok:
        print("error: at least one run was not correct", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
