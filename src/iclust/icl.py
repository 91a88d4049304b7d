"""Exact integrated completed likelihood of a collapsed Gaussian mixture.

With conjugate priors (Dirichlet weights, Wishart or Gamma precisions, and
group centres drawn conditionally on the group precision), the mixture
weights, centres and precisions integrate out analytically. What remains is a
closed-form function of the data and the allocation vector alone:

    ICL_ex(z, K) = log f(x | z, K) + log pi(z | alpha, K)

The data term decomposes over groups. For a group with n_g members, mean
xbar_g, centred scatter S_g and multivariate prior (tau, mu, nu, xi) the
group's log evidence is

    - (b n_g / 2) log(pi)
    + (b / 2) [log(tau) - log(tau + n_g)]
    + sum_{s=1..b} [ lgamma((nu + n_g + 1 - s)/2) - lgamma((nu + 1 - s)/2) ]
    + (nu / 2) log|xi|
    - ((nu + n_g) / 2) log|xi + S_g + (tau n_g / (tau + n_g)) d d^t|

with d = xbar_g - mu. An empty group contributes exactly zero. The allocation
prior is the Dirichlet-multinomial mass

    lgamma(K a) - lgamma(K a + n) - K lgamma(a) + sum_g lgamma(a + n_g).

The univariate Gamma(gamma, rate delta) precision prior is the 1x1 Wishart
with nu = 2 gamma and xi = 2 delta, so one kernel, _batch_evidence, scores
both: validate_hyperparams hands it that Wishart form, and at b = 1 the
kernel takes a scalar shape branch where the log determinant is the log of
the posterior scale itself. Every term that depends on a group's count
alone, the prior's lgamma(a + n_g) included, is read from _count_terms's four
read-only tables over counts, built with one math.lgamma call per distinct
argument and shared by every state and rescoring with the same prior, so the
kernel's own work is the posterior scale and its determinant.

This module also provides exact move deltas: the ICL change from reallocating
a block of same-group observations is computed by re-evaluating only the
source group, the target group and the allocation prior, which is what makes
greedy search over allocations cheap. A fresh group is the search state's
spare empty row, scored through the same batch as every existing group. The
one move kernel, best_moves, scores a stack of blocks against one state in
a single evaluation and flags, row by row, a posterior scale that is not
positive definite instead of raising, so a caller can tell which block
failed. Its MoveBatch is the only move record: apply_move writes one row's
post-move statistics straight into the state and raises on a flagged row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    Allocation,
    ClusterState,
    DataSet,
    GroupStats,
    HyperParams,
    MvHyperParams,
    NumericalError,
    as_integers,
    stats_downdate,  # unused here; perfbench/worker.py wraps this attribute
    validate_hyperparams,
)

_LOG_PI = math.log(math.pi)
_NOT_PD = ("posterior scale matrix is not positive definite; "
           "the input data is numerically pathological")


@dataclass(frozen=True)
class IclValue:
    """Exact ICL split into its data and allocation-prior terms."""

    total: float
    data_term: float
    prior_term: float


def _batch_logdet_spd(post: np.ndarray, b: int):
    """Log determinants of stacked symmetric matrices, b >= 2, and a failure mask.

    Dimension two uses the leading-minor test and closed-form determinant;
    larger dimensions go through a stacked Cholesky, and when that fails each
    matrix is factored on its own to find the failing ones. A matrix that is
    not positive definite is marked in the mask and gets a NaN log
    determinant.
    """
    if b == 2:
        a = post[:, 0, 0]
        c = post[:, 1, 1]
        off = post[:, 0, 1]
        det = a * c - off * off
        # fmin skips a NaN operand, so this is (a <= 0) | (det <= 0)
        bad = np.fmin(a, det) <= 0.0
        if bad.any():
            det[bad] = math.nan
        return np.log(det), bad
    bad = np.zeros(len(post), dtype=bool)
    try:
        chol = np.linalg.cholesky(post)
    except np.linalg.LinAlgError:
        chol = np.empty_like(post)
        for i, mat in enumerate(post):
            try:
                chol[i] = np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                bad[i] = True
                chol[i] = math.nan
    return 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1), bad


def _count_terms(params: MvHyperParams, n_max: int):
    """Tables (coef, base, slope, lg_prior) over counts c = 0..n_max.

    A group of c members whose posterior scale has log determinant L has log
    evidence base[c] - slope[c] * L; coef[c] = tau c / (tau + c) and
    lg_prior[c] = lgamma(alpha + c). Entry 0 of base and slope is zero, so an
    empty row scores exactly zero. Each lgamma is one math.lgamma call, the b
    shifted terms of base sharing lgamma((nu + j) / 2) for j = 1 - b..n_max,
    and the tables are built once per prior and n_max and shared read-only.
    """
    return _tables(params.b, params.alpha, params.tau, params.nu, params.log_det_scale, n_max)


@functools.lru_cache(maxsize=8)
def _tables(b: int, alpha: float, tau: float, nu: float, log_det_scale: float, n_max: int):
    ns = np.arange(n_max + 1, dtype=float)
    half = np.array(list(map(math.lgamma, ((nu + np.arange(1 - b, n_max + 1)) / 2.0).tolist())))
    # lgamma((nu + c + 1 - s) / 2) is half[c + b - s]; entry 0 is the prior's own sum
    lg = sum(half[b - s:b - s + n_max + 1] for s in range(1, b + 1))
    lg -= lg[0]
    base = (
        -0.5 * b * ns * _LOG_PI
        + 0.5 * b * (np.log(tau) - np.log(tau + ns))
        + lg
        + 0.5 * nu * log_det_scale
    )
    slope = 0.5 * (nu + ns)
    base[0] = slope[0] = 0.0
    tables = (tau * ns / (tau + ns), base, slope,
              np.array(list(map(math.lgamma, (alpha + ns).tolist()))))
    for table in tables:
        table.flags.writeable = False
    return tables


def _batch_evidence(ns, means, scatters, params: MvHyperParams, terms):
    """Group log evidence for stacked groups; ns (K,) int, means (K,b), scatters (K,b,b).

    Returns the evidences and a mask of the rows whose posterior scale is not
    positive definite, whose evidence is NaN. terms = _count_terms(params,
    n_max) with n_max >= every count. Rows with a zero count come out exactly
    zero. At b = 1 the posterior scale is a scalar per row and skips the
    matrix shapes.
    """
    coef_t, base_t, slope_t, _ = terms
    coef = coef_t[ns]
    if params.b == 1:
        d = means[:, 0] - params.mu[0]
        post = scatters[:, 0, 0] + params.scale_matrix()[0, 0] + d * d * coef
        bad = post <= 0.0
        if bad.any():
            post[bad] = math.nan
        logdet = np.log(post)
    else:
        d = means - params.mu
        post = scatters + params.scale_matrix() + d[:, :, None] * d[:, None, :] * coef[:, None, None]
        logdet, bad = _batch_logdet_spd(post, params.b)
    return base_t[ns] - slope_t[ns] * logdet, bad


def _checked_evidence(ns, means, scatters, params: MvHyperParams, terms) -> np.ndarray:
    """_batch_evidence that raises NumericalError instead of flagging a row."""
    evidence, bad = _batch_evidence(ns, means, scatters, params, terms)
    if bad.any():
        raise NumericalError(_NOT_PD)
    return evidence


def group_log_evidence(stats: GroupStats, params: HyperParams) -> float:
    """Log marginal likelihood contribution of one group.

    Zero for an empty group. A univariate prior is scored as its 1x1
    Normal-Wishart. A posterior scale matrix that is not positive definite
    raises NumericalError rather than returning NaN.
    """
    params = validate_hyperparams(params, stats.mean.size)
    if stats.n == 0:
        return 0.0
    return float(
        _checked_evidence(
            np.array([stats.n]), stats.mean[None, :], stats.scatter[None, :, :], params,
            _count_terms(params, stats.n),
        )[0]
    )


def allocation_log_prior(counts: Sequence[int], alpha: float, n: int) -> float:
    """Log Dirichlet-multinomial mass of one labelled allocation.

    counts must be the sizes of the K nonempty groups and sum to n.
    A zero count means compactness was violated upstream and is an error.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty vector")
    counts = as_integers(counts, "group counts")
    if np.any(counts <= 0):
        raise ValueError("group counts must all be positive (compact allocation)")
    if int(counts.sum()) != n:
        raise ValueError(f"group counts sum to {int(counts.sum())}, expected n = {n}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    k = counts.size
    # fsum keeps the sum independent of count order, so relabelling a compact
    # allocation reproduces the prior term to the last bit.
    return (
        math.lgamma(k * alpha)
        - math.lgamma(k * alpha + n)
        - k * math.lgamma(alpha)
        + math.fsum(math.lgamma(alpha + int(c)) for c in counts)
    )


def icl_exact(data: DataSet, z, params: HyperParams) -> IclValue:
    """Exact ICL of an allocation, computed from scratch.

    The data term sums per-group evidences in ascending label order with an
    exact (order independent) float accumulator, so label permutations leave
    the value bit-identical.
    """
    alloc = z if isinstance(z, Allocation) else Allocation(np.asarray(z))
    if len(alloc) != data.n:
        raise ValueError(f"allocation has length {len(alloc)}, data has n = {data.n}")
    params = validate_hyperparams(params, data.b)
    # 2n, as make_state asks, so a search's final rescoring reuses its tables
    _, _, _, evidence, prior_term, total = _build_arrays(
        data, alloc.labels, params, _count_terms(params, 2 * data.n)
    )
    return IclValue(total=total, data_term=math.fsum(evidence.tolist()), prior_term=prior_term)


# ---------------------------------------------------------------------------
# Search state construction and exact move deltas
# ---------------------------------------------------------------------------

def _build_arrays(data: DataSet, labels: np.ndarray, params: MvHyperParams, terms):
    # rows 1..K are the groups and row K + 1 is the spare empty row, whose
    # zero count gives an evidence of exactly zero, so fsum is unchanged
    k = int(labels.max())
    b = data.b
    counts = np.zeros(k + 1, dtype=np.int64)
    means = np.zeros((k + 1, b))
    scatters = np.zeros((k + 1, b, b))
    for g in range(1, k + 1):
        st = GroupStats.from_points(data.values[labels == g])
        counts[g - 1] = st.n
        means[g - 1] = st.mean
        scatters[g - 1] = st.scatter
    evidence = _checked_evidence(counts, means, scatters, params, terms)
    prior = allocation_log_prior(counts[:k], params.alpha, data.n)
    icl = math.fsum(evidence.tolist()) + prior
    return counts, means, scatters, evidence, prior, icl


def make_state(data: DataSet, z, params: HyperParams) -> ClusterState:
    """Build a ClusterState with all cached statistics from scratch."""
    alloc = z if isinstance(z, Allocation) else Allocation(np.asarray(z))
    if len(alloc) != data.n:
        raise ValueError(f"allocation has length {len(alloc)}, data has n = {data.n}")
    params = validate_hyperparams(params, data.b)
    labels = alloc.labels.copy()
    # best_moves' garbage source-target row has up to 2n members
    terms = _count_terms(params, 2 * data.n)
    counts, means, scatters, evidence, _, icl = _build_arrays(data, labels, params, terms)
    return ClusterState(data, params, terms, labels, counts, means, scatters, evidence, icl)


def refresh_state(state: ClusterState) -> None:
    """Recompute every cached statistic of the state from its labels."""
    counts, means, scatters, evidence, _, icl = _build_arrays(
        state.data, state.labels, state.params, state.count_terms
    )
    state.counts = counts
    state.means = means
    state.scatters = scatters
    state.group_evidence = evidence
    state.icl = icl


@dataclass
class MoveBatch:
    """Best move of each of B same-group blocks, all scored against one state.

    deltas[j, t - 1] is the exact ICL change of moving blocks[j] to group t,
    for t in 1..K + 1. Target K + 1 is the spare empty row, that is a fresh
    group; its delta is -inf when no fresh group is offered. Staying put
    scores exactly zero. targets[j] is the first maximiser and gains[j] its
    delta, so the fresh group wins only a strict improvement. counts, means,
    scatters and evidence stack the post-move rows, B x (K + 2) leading:
    column t - 1 is row t with the block merged in, and the last column is
    the source after removal, so apply_move copies an accepted row into the
    state without recomputing. failed[j] marks a row whose stacked
    evaluation met a posterior scale that is not positive definite; the
    rest of that row is meaningless.
    """

    blocks: Sequence
    sources: np.ndarray
    targets: np.ndarray
    gains: np.ndarray
    deltas: np.ndarray
    failed: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    scatters: np.ndarray
    evidence: np.ndarray


def best_moves(state: ClusterState, blocks: Sequence, allow_new: bool = True) -> MoveBatch:
    """Evaluate every candidate target for each of B non-empty blocks.

    Each block must lie in one group; different blocks may come from
    different groups. Candidates are all current groups (staying put scores
    exactly zero) plus the spare empty row, a fresh group, when allow_new is
    set. Ties go to the smallest group label, so the fresh group comes last.
    All B (K + 2) rows go through one stacked evidence evaluation, each with
    the expressions a single block would get, so row j is bit for bit what
    best_move(state, blocks[j], allow_new) computes.
    """
    params = state.params
    values = state.data.values
    alpha = params.alpha
    n = state.data.n
    b = state.data.b
    k = state.k
    counts = state.counts
    sizes_l = [len(block) for block in blocks]
    nb = len(sizes_l)
    sizes = np.array(sizes_l)
    flat = np.concatenate(blocks)
    unit = flat.size == nb
    firsts = flat if unit else flat[np.cumsum(sizes) - sizes]
    sources = state.labels[firsts]
    if not unit and (state.labels[flat] != np.repeat(sources, sizes)).any():
        raise ValueError("block members belong to different groups")
    rows = np.arange(nb)
    s = sources - 1

    # block statistics; a one-row block's mean is GroupStats.from_points's
    # add.reduce of that row, which turns -0.0 into 0.0 as adding 0.0 does
    b_means = values[firsts] + 0.0
    b_scats = np.zeros((nb, b, b))
    if not unit:
        for j, m in enumerate(sizes_l):
            if m > 1:
                st = GroupStats.from_points(values[blocks[j]])
                b_means[j] = st.mean
                b_scats[j] = st.scatter

    # the source after removal, by stats_downdate's expressions; an emptied
    # source is all zeros and a one-member source has a zero scatter
    n_src = counts[s]
    n_rest = n_src - sizes
    src_means = ((n_src[:, None] * state.means[s] - sizes[:, None] * b_means)
                 / np.maximum(n_rest, 1)[:, None])
    d = b_means - src_means
    src_scats = (state.scatters[s] - b_scats
                 - d[:, :, None] * d[:, None, :] * (n_rest * sizes / n_src)[:, None, None])
    empties = n_rest == 0
    src_means[empties] = 0.0
    src_scats[n_rest <= 1] = 0.0

    # one stacked evidence evaluation: per block, columns 0..K hold the block
    # merged into every state row, the spare empty row included (which
    # reproduces the block's own statistics), and column K + 1 the source
    # after removal; the source's own column is garbage, its delta the exact zero
    ns_stack = np.empty((nb, k + 2), dtype=np.int64)
    means_stack = np.empty((nb, k + 2, b))
    scat_stack = np.empty((nb, k + 2, b, b))
    n_after = np.add(counts, sizes[:, None], out=ns_stack[:, :k + 1])
    dv = b_means[:, None, :] - state.means
    np.add(state.means, dv * (sizes[:, None] / n_after)[:, :, None], out=means_stack[:, :k + 1])
    weight = counts * sizes[:, None] / n_after
    np.add(state.scatters + b_scats[:, None],
           dv[:, :, :, None] * dv[:, :, None, :] * weight[:, :, None, None],
           out=scat_stack[:, :k + 1])
    ns_stack[:, k + 1] = n_rest
    means_stack[:, k + 1] = src_means
    scat_stack[:, k + 1] = src_scats
    ev_stack, bad = _batch_evidence(ns_stack.reshape(-1), means_stack.reshape(-1, b),
                                    scat_stack.reshape(-1, b, b), params, state.count_terms)
    ev_stack = ev_stack.reshape(nb, k + 2)
    src_ev = ev_stack[:, k + 1]

    lgp = state.count_terms[3]
    lg = math.lgamma
    # an emptied source takes K to K - 1; with K = 1 it leaves only the
    # source and the spare row as targets, both exactly zero below, so its
    # shift is never read
    shift_empty = (
        lg(alpha) + lg((k - 1) * alpha) - lg(k * alpha)
        - lg((k - 1) * alpha + n) + lg(k * alpha + n)
    ) if k > 1 else 0.0
    lgp_rest = lgp[n_rest]
    lgp_rest[empties] = shift_empty
    dprior = lgp[n_after] - lgp[counts] - lgp[n_src][:, None]
    dprior += lgp_rest[:, None]
    # filling the spare row takes K to K + 1
    shift_fill = lg((k + 1) * alpha) - lg(k * alpha) - lg((k + 1) * alpha + n) + lg(k * alpha + n)
    dprior[~empties, k] += shift_fill
    deltas = ((src_ev - state.group_evidence[s])[:, None]
              + (ev_stack[:, :k + 1] - state.group_evidence) + dprior)
    deltas[rows, s] = 0.0
    # a whole group moving to the spare row only relabels: exactly zero, so
    # it never beats staying put
    deltas[empties, k] = 0.0
    if not allow_new:
        deltas[:, k] = -math.inf

    t = deltas.argmax(axis=1)            # first maximiser, smallest label
    return MoveBatch(
        blocks=blocks, sources=sources, targets=t + 1, gains=deltas[rows, t], deltas=deltas,
        failed=bad.reshape(nb, k + 2).any(axis=1), counts=ns_stack, means=means_stack,
        scatters=scat_stack, evidence=ev_stack,
    )


def best_move(state: ClusterState, block, allow_new: bool = True) -> MoveBatch:
    """best_moves for one non-empty block, checked.

    A block whose members span several groups raises ValueError, and a
    posterior scale that is not positive definite raises NumericalError.
    """
    moves = best_moves(state, [np.asarray(block, dtype=np.int64).ravel()], allow_new)
    if moves.failed[0]:
        raise NumericalError(_NOT_PD)
    return moves


def apply_move(state: ClusterState, moves: MoveBatch, j: int = 0) -> None:
    """Write row j of a MoveBatch into the state, updating all cached terms.

    A failed row raises NumericalError and leaves the state untouched; a row
    whose target is its source changes nothing. A filled spare row gets a
    new empty row after it; an emptied source row is dropped and every
    higher label shifts down by one.
    """
    if moves.failed[j]:
        raise NumericalError(_NOT_PD)
    source, target = int(moves.sources[j]), int(moves.targets[j])
    if target == source:
        return
    s, t = source - 1, target - 1
    fill, empty = t == state.k, moves.counts[j, -1] == 0
    state.labels[moves.blocks[j]] = target
    for name, stack in (("counts", moves.counts), ("means", moves.means),
                        ("scatters", moves.scatters), ("group_evidence", moves.evidence)):
        rows = getattr(state, name)
        rows[t] = stack[j, t]
        rows[s] = stack[j, -1]
        if fill:
            rows = np.concatenate([rows, np.zeros_like(rows[:1])])
        if empty:
            rows = np.delete(rows, s, axis=0)
        setattr(state, name, rows)
    if empty:
        state.labels[state.labels > source] -= 1
    state.icl += float(moves.gains[j])
    state.accepted_moves += 1
    if state.accepted_moves % ClusterState.refresh_interval == 0:
        refresh_state(state)
