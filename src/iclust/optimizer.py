"""Greedy maximisation of the exact ICL over allocation vectors.

Both search variants run one sweep loop that visits the observations in
random order and moves each visit's block to the group (or a fresh group)
with the best post-move ICL, when that gains more than EPSILON. The plain
variant moves single observations and stops once a sweep gains no more
than EPSILON. The combined variant instead proposes a whole
nearest-neighbour block from the visited observation's group, with the
block size drawn from a Beta-Binomial, which lets the search escape local
optima that single-observation moves cannot leave. Blocks are read off one
neighbour order per dataset (io.neighbor_order), shared by every restart.

The loop scores a run of upcoming visits in one best_moves call, every block
against the same state, and applies the first accepted move of the run. Most
proposals are rejected, and a rejected visit leaves the state as it was, so
every row up to the first accepted one is exactly what scoring one visit at a
time would have computed. The rows after it were scored against a state that
the move changes, so they are dropped and the loop resumes at the next
visit. A combined run draws its blocks under the current labels; after an
acceptance the block stream is rewound and the draws up to the accepted visit
are replayed, so the stream ends where the one-at-a-time loop leaves it. A
row whose evidence failed raises NumericalError only when no accepted row
comes before it. The run starts at one visit, doubles after a run without an
acceptance up to RUN_MAX and starts over after one, so seeded output is the
same for any run length.

Restarts are independent: each gets its own RNG stream and random initial
allocation. Each final allocation is rescored with icl_exact, and the best
exact ICL wins.
"""

from __future__ import annotations

import logging
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

# The longest run of upcoming visits scored in one best_moves call; it
# changes speed only, never output.
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
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        _require_positive(self.beta1, "beta1")
        _require_positive(self.beta2, "beta2")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")


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


def neighbor_block(i: int, labels: np.ndarray, order: np.ndarray,
                   beta1: float, beta2: float, rng) -> np.ndarray:
    """Nearest-neighbour block of observation i inside its own group.

    Members are ranked by order[i] = neighbor_order(data)[i], i itself first.
    The block is the first max(r, 1) of them with r ~ Binomial(group size,
    eta) and eta ~ Beta(beta1, beta2), so it always contains i and is a
    prefix of the ranked member list.
    """
    ranked = order[i]
    same = ranked[labels[ranked] == labels[i]]
    if same[0] != i:
        # a duplicate of i with a smaller index ranks ahead of it
        same = np.concatenate(([i], same[same != i]))
    eta = rng.beta(beta1, beta2)
    r = int(rng.binomial(same.size, eta))
    return same[: max(r, 1)]


def _sweeps(data: DataSet, params: HyperParams, init, config: SearchConfig,
            order: Optional[np.ndarray], rng) -> Solution:
    """The one sweep loop: unit blocks and an early stop when order is None.

    Each sweep visits every observation once in random order and applies the
    best move of its block when that move changes the group and gains more
    than EPSILON. Blocks come from neighbor_block when an order is given.
    Visits are scored in runs, as the module docstring describes.
    """
    state = icl_mod.make_state(data, init, params)
    # separate streams so the visit order draws do not depend on whether
    # block sizes are being sampled; unit blocks leave the second unused
    order_rng, block_rng = rng.spawn(2)

    def draw(i):
        return neighbor_block(i, state.labels, order, config.beta1, config.beta2, block_rng)

    trace = [(0, state.icl)]
    run = 1
    for sweep in range(1, config.max_sweeps + 1):
        start = state.icl
        visits = order_rng.permutation(data.n)
        pos = 0
        while pos < data.n:
            batch = visits[pos:pos + run]
            if order is None:
                blocks = batch[:, None]
            else:
                saved = block_rng.bit_generator.state
                blocks = [draw(i) for i in batch]
            moves = icl_mod.best_moves(state, blocks, allow_new=state.k < config.k_max)
            # staying put scores exactly zero, so a gain above EPSILON moves
            stops = np.flatnonzero(moves.failed | (moves.gains > EPSILON))
            if stops.size == 0:
                pos += batch.size
                run = min(2 * run, RUN_MAX)
                continue
            j = int(stops[0])
            if order is not None and j + 1 < batch.size:
                # the draws past visit j were made under labels this move changes
                block_rng.bit_generator.state = saved
                for i in batch[:j + 1]:
                    draw(i)
            # raises NumericalError on a failed row, where one visit at a time would
            icl_mod.apply_move(state, moves, j)
            pos += j + 1
            run = 1
        trace.append((sweep, state.icl))
        if order is None and state.icl - start <= EPSILON:
            break
    # report the exact objective of the final labels, not the sum of deltas
    alloc = relabel_compact(state.labels)
    icl = icl_mod.icl_exact(data, alloc, params).total
    trace[-1] = (trace[-1][0], icl)
    return Solution(allocation=alloc, K=alloc.K, icl=icl, trace=tuple(trace), restart_id=0)


def greedy_icl(data: DataSet, params: HyperParams, init, config: SearchConfig, rng) -> Solution:
    """Single-observation greedy sweeps until a sweep improves by <= EPSILON."""
    return _sweeps(data, params, init, config, None, rng)


def greedy_combined_icl(data: DataSet, params: HyperParams, init, config: SearchConfig,
                        order: np.ndarray, rng) -> Solution:
    """Block greedy sweeps over blocks read from order = neighbor_order(data).

    Runs max_sweeps full sweeps. Because the block proposals are random, a
    sweep without an accepted move is weak evidence of convergence, and later
    sweeps regularly escape configurations that an earlier sweep could not
    improve, so there is no early break.
    """
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
