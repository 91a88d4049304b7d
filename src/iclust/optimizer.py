"""Greedy maximisation of the exact ICL over allocation vectors.

Both search variants run one sweep loop that visits the observations in
random order and moves each visit's block to the group (or a fresh group)
with the best post-move ICL, when that gains more than EPSILON. The plain
variant moves single observations and stops once a sweep gains no more
than EPSILON. The combined variant instead proposes a whole
nearest-neighbour block from the visited observation's group, with the
block size drawn from a Beta-Binomial, which lets the search escape local
optima that single-observation moves cannot leave. One batched picker,
neighbor_blocks, reads a block that is its whole group from a stable sort
of the labels, and every other block off one neighbour order per dataset.

The loop scores a run of upcoming visits in one best_moves call, every block
against the same state, and applies the first accepted move of the run. Most
proposals are rejected, and a rejected visit leaves the state as it was, so
every row up to the first accepted one is exactly what scoring one visit at a
time would have computed. The rows after it were scored against a state that
the move changes, so they are dropped and the loop resumes at the next
visit. A combined run draws its blocks under the current labels; after an
acceptance the block stream is rewound and the size draws up to the accepted
visit are made again, so the stream ends where the one-at-a-time loop leaves
it. A block that is its whole group is scored from the group's state row, so
until the next applied move it would get the same row and the same rejection
again: the combined loop keeps the groups whose whole-group block it has
scored since the last applied move, and the picker still draws such a visit's
size but skips its block. A row whose evidence failed raises NumericalError
only when no accepted row comes before it. The run starts at one scored block,
doubles after a run without an acceptance up to RUN_MAX scored blocks and
never shrinks; seeded output is the same for any run length.

Restarts are independent: each gets its own RNG stream and random initial
allocation. Each final allocation is rescored from its labels by
refresh_state, the build behind icl_exact, and the best exact ICL wins.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, not inside the first search

from . import icl as icl_mod
from .model import (Allocation, DataSet, HyperParams, NumericalError, _require_positive,
                    as_integers, validate_hyperparams)
from .io import distance_matrix, neighbor_order  # perfbench/worker.py wraps distance_matrix

logger = logging.getLogger(__name__)

# The smallest ICL improvement treated as real; exact float comparison of the
# objective is unstable, so sub-EPSILON gains never trigger a move and never
# keep the plain variant's sweep loop alive.
EPSILON = 1e-10

# The most blocks scored in one best_moves call, skipped visits not counted;
# it changes speed only, never output.
RUN_MAX = 32


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the greedy search."""

    max_sweeps: int = 15
    restarts: int = 10
    beta1: float = 0.1
    beta2: float = 0.01
    k_max: int = 20
    seed: Optional[int] = None

    def __post_init__(self):
        for name in ("max_sweeps", "restarts", "k_max"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        _require_positive(self.beta1, "beta1")
        _require_positive(self.beta2, "beta2")
        if not (self.seed is None or isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class Solution:
    """Best allocation found by one restart (or the best across restarts)."""

    allocation: Allocation
    K: int
    icl: float
    trace: tuple
    restart_id: int
    restart_bests: Optional[tuple] = field(default=None)

    @property
    def sweeps_used(self) -> int:
        return int(self.trace[-1][0])


def relabel_compact(z) -> Allocation:
    """Remap arbitrary integer labels to 1..K by order of first appearance."""
    arr = np.asarray(z)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("labels must be a non-empty 1-d vector")
    arr = as_integers(arr, "labels")
    uniq, first = np.unique(arr, return_index=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(1, uniq.size + 1)
    return Allocation(rank[np.searchsorted(uniq, arr)])


def _block_size(m: int, beta1: float, beta2: float, rng) -> int:
    """A block size in a group of m: max(r, 1), r ~ Binomial(m, eta), eta ~ Beta(beta1, beta2)."""
    return max(int(rng.binomial(m, rng.beta(beta1, beta2))), 1)


def _block_sizes(groups, beta1: float, beta2: float, rng) -> list:
    """_block_size for each group size m in turn."""
    return [_block_size(m, beta1, beta2, rng) for m in groups]


def neighbor_blocks(state, visits: np.ndarray, run: int, scored: set, order: np.ndarray,
                    beta1: float, beta2: float, rng):
    """Nearest-neighbour blocks of the next visits, each inside its own group.

    Draws the block size of each visit in turn, stopping after run blocks
    are kept or at the end of visits, which is non-empty. A visit whose
    block is its whole group is skipped when that group is in scored, the
    groups whose whole-group block was scored since the last applied move;
    every kept whole group is added to scored, so a later visit to it in the
    same run is skipped too.

    Visit i's block is the first _block_size of its group in order[i] =
    neighbor_order(data)[i], i first. A block that is its whole group holds
    the same members in index order instead, read from one stable sort of
    the labels; only the other blocks gather their rows of order and mask
    them by group. Both read the labels cast to the narrowest type that holds
    K, which numpy radix-sorts. The sort, then row by row the partial blocks'
    group members nearest first, make one pool, and each block is a run of
    it. Returns the kept blocks concatenated as intp, their sizes, the
    positions in visits of their visits, and the number of visits drawn.
    """
    labels, counts = state.labels, state.counts
    rows, sizes = [], []
    for p, i in enumerate(visits):
        g = labels.item(i)
        m = counts.item(g - 1)
        size = _block_size(m, beta1, beta2, rng)
        if size == m:
            if g in scored:
                continue
            scored.add(g)
        rows.append(p)
        sizes.append(size)
        if len(rows) == run:
            break
    if not rows:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64), rows, p + 1
    batch = visits[rows]
    labels = labels[batch]
    groups = counts[labels - 1]
    sizes = np.array(sizes, dtype=np.int64)
    part = sizes < groups
    small = state.labels.astype(np.min_scalar_type(state.k))
    pool = small.argsort(kind="stable")
    heads = counts.cumsum()[labels - 1] - groups  # where each group starts in pool
    if part.any():
        rows_part = batch[part]
        ranked = order[rows_part]
        hits = (small.take(ranked) == small[rows_part, None]).ravel().nonzero()[0]
        pool = np.concatenate((pool, ranked.ravel()[hits]), dtype=np.intp)
        heads[part] = state.data.n + groups[part].cumsum() - groups[part]
    ends = sizes.cumsum()
    return (pool[np.arange(ends[-1]) + (heads - ends + sizes).repeat(sizes)], sizes, rows,
            p + 1)


def _sweeps(data: DataSet, params: HyperParams, init, config: SearchConfig,
            order: Optional[np.ndarray], rng) -> Solution:
    """The one sweep loop: unit blocks and an early stop when order is None.

    Each sweep visits every observation once in random order and applies the
    best move of its block when that move changes the group and gains more
    than EPSILON. Blocks come from neighbor_blocks when an order is given.
    Visits are scored in runs, as the module docstring describes.
    """
    state = icl_mod.make_state(data, init, params)
    # separate streams so the visit order draws do not depend on whether
    # block sizes are being sampled; unit blocks leave the second unused
    order_rng, block_rng = rng.spawn(2)
    trace = [(0, state.icl)]
    run = 1
    scored = set()  # groups whose whole-group block was rejected since the last move
    for sweep in range(1, config.max_sweeps + 1):
        start = state.icl
        visits = order_rng.permutation(data.n)
        pos = 0
        while pos < data.n:
            if order is None:
                members = visits[pos:pos + run]
                sizes, rows = np.ones(members.size, dtype=np.int64), range(members.size)
                drawn = members.size
            else:
                saved = block_rng.bit_generator.state
                members, sizes, rows, drawn = neighbor_blocks(
                    state, visits[pos:], run, scored, order, config.beta1, config.beta2,
                    block_rng)
                if not rows:
                    break  # the sweep's last visits are all whole groups already rejected
            moves = icl_mod.best_moves(state, members, sizes, allow_new=state.k < config.k_max)
            # staying put scores exactly zero, so a gain above EPSILON moves
            stops = np.flatnonzero(moves.failed | (moves.gains > EPSILON))
            if stops.size == 0:
                pos += drawn
                run = min(2 * run, RUN_MAX)
                continue
            j = int(stops[0])
            p = rows[j]
            if order is not None and p + 1 < drawn:
                # the draws past visit p were made under labels this move changes
                block_rng.bit_generator.state = saved
                _block_sizes(state.counts[state.labels[visits[pos:pos + p + 1]] - 1].tolist(),
                             config.beta1, config.beta2, block_rng)
            # raises NumericalError on a failed row, where one visit at a time would
            icl_mod.apply_move(state, moves, j)
            scored.clear()
            pos += p + 1
        trace.append((sweep, state.icl))
        if order is None and state.icl - start <= EPSILON:
            break
    # report the exact objective of the final labels, not the sum of deltas
    icl_mod.refresh_state(state)
    alloc = relabel_compact(state.labels)
    trace[-1] = (trace[-1][0], state.icl)
    return Solution(allocation=alloc, K=alloc.K, icl=state.icl, trace=tuple(trace), restart_id=0)


def greedy_icl(data: DataSet, params: HyperParams, init, config: SearchConfig, rng) -> Solution:
    """Single-observation greedy sweeps until a sweep improves by <= EPSILON."""
    return _sweeps(data, params, init, config, None, rng)


def greedy_combined_icl(data: DataSet, params: HyperParams, init, config: SearchConfig,
                        order: np.ndarray, rng) -> Solution:
    """Block greedy sweeps over blocks read from order = neighbor_order(data).

    Runs max_sweeps full sweeps. Because the block proposals are random, a
    sweep without an accepted move is weak evidence of convergence, and later
    sweeps regularly escape configurations that an earlier sweep could not
    improve, so there is no early break. An order of another shape or a
    non-integer dtype is a ValueError.
    """
    order = np.asarray(order)
    if order.shape != (data.n, data.n) or not np.issubdtype(order.dtype, np.integer):
        raise ValueError(f"order must be neighbor_order(data), an integer array of shape "
                         f"({data.n}, {data.n}); got shape {order.shape} and dtype {order.dtype}")
    return _sweeps(data, params, init, config, order, rng)


def multi_start(data: DataSet, params: HyperParams, config: SearchConfig,
                order: Optional[np.ndarray] = None, algorithm: str = "combined") -> Solution:
    """Best of config.restarts independent searches from random allocations.

    Initial allocations draw labels uniformly from 1..k_init with
    k_init = min(k_max, n) and are compacted. Each restart owns an
    RNG stream derived from the master seed, so a fixed seed reproduces the
    solution bit for bit. Restarts that die with a numerical error are logged
    and skipped; all of them failing is an error.
    """
    if algorithm not in ("combined", "plain"):
        raise ValueError(f"algorithm must be 'combined' or 'plain', got {algorithm!r}")
    params = validate_hyperparams(params, data.b)
    if algorithm == "combined" and order is None:
        order = neighbor_order(data)
    k_init = min(config.k_max, data.n)
    streams = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best: Optional[Solution] = None
    bests = []
    for restart_id, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        init = relabel_compact(rng.integers(1, k_init + 1, size=data.n))
        try:
            if algorithm == "combined":
                sol = greedy_combined_icl(data, params, init, config, order, rng)
            else:
                sol = greedy_icl(data, params, init, config, rng)
        except NumericalError as exc:
            logger.warning("restart %d aborted: %s", restart_id, exc)
            bests.append(None)
            continue
        sol = replace(sol, restart_id=restart_id)
        bests.append(sol.icl)
        if best is None or sol.icl > best.icl:
            best = sol
    if best is None:
        raise NumericalError("every restart failed with a numerical error")
    return replace(best, restart_bests=tuple(bests))
