"""Time the move kernel, the block picker and the order build of two checkouts, in pairs.

Usage:
    python3 scripts/kernel_pairs.py A_ROOT B_ROOT [--pairs 30] [--calls 200]

Each ROOT is a source checkout; its src/iclust is loaded under its own package
name, so both sides run in one process on the same data. For b = 1, 2, 3 a
150-point state with 6 groups is built by each side's make_state from the same
seeded data and labels, and best_moves is timed on five fixed block sets:

- unit B=1: one row;
- unit B=32: 32 rows, as a full run of visits;
- 8x3: 8 blocks of 3 rows;
- 4x15: 4 blocks of 15 rows;
- whole B=K: one block per group, each the whole group.

Then optimizer.neighbor_blocks is timed on 32-visit runs at the sizes of the
galaxy grid (n = 82, b = 1) and of cluster-3000 (n = 3000, b = 3), each with
5 groups, its order from that side's neighbor_order, and three size laws.
Each call gets run = 32 and an empty set of scored groups, so both sides draw
the same 32 visits and skip every whole-group visit after the first to the
same group. The size laws:

- whole: Beta(1e6, 1e-9), so every block is its whole group;
- mixed: Beta(0.2, 0.04), cluster-3000's law: whole, partial and single blocks;
- partial: Beta(2, 2), blocks that are mostly part of their group.

The visits and the size draws come from fixed seeds, the same on both sides,
and the "whole %" column gives the share of whole-group draws among them.
The picker records the size stream's position after each kept visit's draw,
so its rows include those state reads. The size replay they replace ran in
optimizer._sweeps after an accepted row, outside the timed call, so these
rows do not show that trade; judge it end to end, with bench_pairs.py.

Last, io.neighbor_order is timed, in µs per build, under both metrics on
standard normal data at the galaxy grid's size (n = 82, b = 1), at the
criterion-8 grid's (n = 600, b = 2) and at cluster-3000's (n = 3000, b = 3),
and on two tie-heavy 3000 x 2 sets, where nearly every row has tied distances
and is re-sorted stably: a grid of integers in [-20, 20], and standard normal
data rounded to one decimal. A timing builds the order
max(1, calls * 82^2 // n^2) times, so --calls builds at n = 82 and one at
n = 3000.

A pair times --calls calls (or the builds above) on each side, the side
that runs first alternating from pair to pair. The report gives each side's
median µs per call (or build) over the pairs with its quartiles in brackets,
computed inclusively as bench_pairs.py does, and how many pairs each side
won; a pair of equal times counts for neither. No file is written.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

N, K = 150, 6
CASES = (("unit B=1", 1, 1), ("unit B=32", 32, 1), ("8x3", 8, 3), ("4x15", 4, 15),
         ("whole B=K", K, None))
PICKER_SIZES = ((82, 1), (3000, 3))
PICKER_CASES = (("whole", 1e6, 1e-9), ("mixed", 0.2, 0.04), ("partial", 2.0, 2.0))
PICKER_RUN, PICKER_GROUPS = 32, 5
ORDER_CASES = (("normal", 82, 1), ("normal", 600, 2), ("normal", 3000, 3), ("tied grid", 3000, 2),
               ("rounded", 3000, 2))


def _load(root: Path, name: str):
    """The iclust package under root/src, imported as the package name."""
    init = root / "src" / "iclust" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _blocks(labels, count, size, rng):
    """count same-group blocks of size rows each, concatenated, and their sizes.

    A size of None makes each group one whole block, in index order.
    """
    groups = [np.flatnonzero(labels == g) for g in range(1, labels.max() + 1)]
    if size is None:
        return np.concatenate(groups), np.array([g.size for g in groups])
    big = [g for g in groups if g.size >= size]
    picks = [rng.choice(big[i % len(big)], size, replace=False) for i in range(count)]
    return np.concatenate(picks), np.full(count, size)


def _per_call_us(pkg, state, members, sizes, calls):
    best_moves = pkg.icl.best_moves
    start = time.perf_counter()
    for _ in range(calls):
        best_moves(state, members, sizes)
    return (time.perf_counter() - start) / calls * 1e6


def _picker_us(pkg, state, order, batches, betas, calls):
    """µs per neighbor_blocks call over calls runs, the size draws seeded alike on both sides."""
    neighbor_blocks = pkg.optimizer.neighbor_blocks
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for c in range(calls):
        neighbor_blocks(state, batches[c % len(batches)], PICKER_RUN, set(), order, *betas, rng)
    return (time.perf_counter() - start) / calls * 1e6


def _whole_share(state, batches, betas, calls):
    """Per cent of whole-group size draws in the runs that _picker_us times.

    The sizes are drawn here under the picker's law, max(r, 1) with r ~
    Binomial(m, eta) and eta ~ Beta(*betas), from the same seed.
    """
    rng = np.random.default_rng(0)
    whole = total = 0
    for c in range(calls):
        for m in state.counts[state.labels[batches[c % len(batches)]] - 1].tolist():
            whole += max(int(rng.binomial(m, rng.beta(*betas))), 1) == m
            total += 1
    return 100.0 * whole / total


def _order_us(pkg, x, metric, builds):
    """µs per neighbor_order build of x over builds builds."""
    data = pkg.DataSet(x)
    start = time.perf_counter()
    for _ in range(builds):
        pkg.io.neighbor_order(data, metric)
    return (time.perf_counter() - start) / builds * 1e6


def _spread(times):
    """Median [lower quartile, upper quartile] of one side's times."""
    q1, median, q3 = (statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1
                      else times * 3)
    return f"{median:9.1f} [{q1:9.1f}, {q3:9.1f}]"


def _report(name, times, extra=""):
    a_won = sum(ta < tb for ta, tb in zip(*times))
    b_won = sum(tb < ta for ta, tb in zip(*times))
    print(f"{name} {_spread(times[0])} {_spread(times[1])} {a_won:6d} {b_won:6d}{extra}")


def _pairs(run, pairs):
    """Each side's times over pairs, run(i) timing side i, the first side alternating."""
    times = ([], [])
    for pair in range(pairs):
        for i in ((0, 1) if pair % 2 == 0 else (1, 0)):
            times[i].append(run(i))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a_root", type=Path)
    parser.add_argument("b_root", type=Path)
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args(argv)
    sides = (_load(args.a_root.resolve(), "iclust_a"), _load(args.b_root.resolve(), "iclust_b"))

    print(f"{'case':>14} {'A µs [quartiles]':>33} {'B µs [quartiles]':>33} {'A won':>6} "
          f"{'B won':>6}")
    for b in (1, 2, 3):
        rng = np.random.default_rng(b)
        centres = rng.standard_normal((K, b)) * 3.0
        truth = rng.integers(0, K, size=N)
        x = centres[truth] + rng.standard_normal((N, b))
        labels = truth + 1
        states = [pkg.make_state(pkg.DataSet(x), labels,
                                 pkg.MvHyperParams(alpha=1.0, tau=0.1, mu=np.zeros(b),
                                                   nu=b + 1.0, omega=1.0))
                  for pkg in sides]
        for name, count, size in CASES:
            members, sizes = _blocks(labels, count, size, rng)
            times = _pairs(lambda i: _per_call_us(sides[i], states[i], members, sizes,
                                                  args.calls), args.pairs)
            _report(f"b={b} {name:>10}", times)

    print(f"\n{'picker':>18} {'A µs [quartiles]':>33} {'B µs [quartiles]':>33} {'A won':>6} "
          f"{'B won':>6} {'whole %':>8}")
    for n, b in PICKER_SIZES:
        rng = np.random.default_rng(n)
        centres = rng.standard_normal((PICKER_GROUPS, b)) * 3.0
        truth = rng.integers(0, PICKER_GROUPS, size=n)
        x = centres[truth] + rng.standard_normal((n, b))
        batches = [rng.permutation(n)[:PICKER_RUN] for _ in range(16)]
        states, orders = [], []
        for pkg in sides:
            data = pkg.DataSet(x)
            states.append(pkg.make_state(data, truth + 1,
                                         pkg.MvHyperParams(alpha=1.0, tau=0.1, mu=np.zeros(b),
                                                           nu=b + 1.0, omega=1.0)))
            orders.append(pkg.io.neighbor_order(data))
        for name, beta1, beta2 in PICKER_CASES:
            times = _pairs(lambda i: _picker_us(sides[i], states[i], orders[i], batches,
                                                (beta1, beta2), args.calls), args.pairs)
            share = _whole_share(states[0], batches, (beta1, beta2), args.calls)
            _report(f"n={n:<5} {name:>10}", times, f" {share:8.1f}")

    print(f"\n{'order build':>26} {'A µs [quartiles]':>33} {'B µs [quartiles]':>33} "
          f"{'A won':>6} {'B won':>6}")
    for name, n, b in ORDER_CASES:
        rng = np.random.default_rng(n + b)
        x = (rng.integers(-20, 21, size=(n, b)).astype(float) if name == "tied grid"
             else rng.standard_normal((n, b)))
        if name == "rounded":
            x = np.round(x, 1)
        builds = max(1, args.calls * 82 ** 2 // n ** 2)
        for metric in ("euclidean", "manhattan"):
            times = _pairs(lambda i: _order_us(sides[i], x, metric, builds), args.pairs)
            _report(f"{name:>9} {f'{n}x{b}':>6} {metric:>9}", times)
    return 0


if __name__ == "__main__":
    sys.exit(main())
