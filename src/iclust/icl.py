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
log determinant of the 1x1 posterior scale is the log of its one entry.
Every term that depends on a group's count alone, the prior's
lgamma(a + n_g) included, is read from _count_terms's four read-only tables
over counts 0..n, built with one math.lgamma call per distinct argument and
shared by every state and rescoring with the same prior and n, so the
kernel's own work is the posterior scale and its determinant.

This module also provides exact move deltas: the ICL change from reallocating
a block of same-group observations is computed by re-evaluating only the
source group, the target group and the allocation prior, which is what makes
greedy search over allocations cheap. A fresh group is the search state's
spare empty row, scored through the same batch as every existing group. A
state keeps its data as b-major columns of x - mu, so every mean it holds is
d itself. refresh_state is the one build of a state's statistics from its
labels, behind make_state, icl_exact and each restart's final rescoring. The
one move kernel, best_moves, takes a block that is a whole group of two or
more members from its group's own state row and sums every other block over
the same columns. It scores them in one evaluation of K + 1 rows per block,
aligned with the state's rows, flagging each row whose posterior scale is
not positive definite. Each row is one signed merge of the block into a
state row, with weight m into a target and -m out of the source (Chan,
Golub & LeVeque 1983); a source column that the merge's rounding leaves not
positive definite is rebuilt from its members. Each delta is the target's
row gain plus the source's, evidence and lgamma(a + n_g), plus the change in
the K term lgamma(K a) - lgamma(K a + n). Its MoveBatch is the only move
record: apply_move writes one row into the state and raises on a flagged row.
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
    HyperParams,
    MvHyperParams,
    NumericalError,
    _require_positive,
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
    """Log determinants of stacked symmetric b x b matrices and a failure mask.

    Dimensions one and two use the leading-minor test and the closed-form
    determinant, at b = 1 the single entry itself; larger dimensions go
    through a stacked Cholesky, and when that fails each matrix is factored
    on its own to find the failing ones. A matrix that is not positive
    definite, or has a NaN minor, is marked in the mask and gets a NaN log
    determinant.
    """
    if b <= 2:
        a = post[:, 0, 0]
        det = a if b == 1 else a * post[:, 1, 1] - post[:, 0, 1] * post[:, 0, 1]
        # minimum propagates a NaN operand, so a NaN minor or determinant is bad
        bad = ~(np.minimum(a, det) > 0.0)
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
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    # LAPACK factors a matrix with a NaN entry without an error
    return logdet, bad | np.isnan(logdet)


def _count_terms(params: MvHyperParams, n_max: int):
    """Tables (coef, base, slope, lg_prior) over counts c = 0..n_max.

    A group of c members whose posterior scale has log determinant L has log
    evidence base[c] - slope[c] * L; coef[c] = tau c / (tau + c) and
    lg_prior[c] = lgamma(alpha + c). Entry 0 of base and slope is zero, so an
    empty row scores exactly zero. Each lgamma is one math.lgamma call, the b
    shifted terms of base sharing lgamma((nu + j) / 2) for j = 1 - b..n_max,
    and the tables are built once per prior and n_max and shared read-only. A
    prior whose lgamma terms overflow, the K term's up to K = n_max + 1
    included, is a ValueError.
    """
    return _tables(params.b, params.alpha, params.tau, params.nu, params.log_det_scale, n_max)


@functools.lru_cache(maxsize=8)
def _tables(b: int, alpha: float, tau: float, nu: float, log_det_scale: float, n_max: int):
    ns = np.arange(n_max + 1, dtype=float)
    try:
        half = np.array(list(map(math.lgamma, ((nu + np.arange(1 - b, n_max + 1)) / 2.0).tolist())))
        lg_prior = np.array(list(map(math.lgamma, (alpha + ns).tolist())))
        # lgamma rises past 2, so a finite K term at K = n_max + 1 bounds every K term
        if not math.isfinite(_k_term(n_max + 1, alpha, n_max)):
            raise OverflowError
    except OverflowError:
        raise ValueError(f"alpha = {alpha!r} or nu = {nu!r} is too large: "
                         "lgamma overflows") from None
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
    tables = (tau * ns / (tau + ns), base, slope, lg_prior)
    for table in tables:
        table.flags.writeable = False
    return tables


def _batch_evidence(ns, means, scatters, params: MvHyperParams, terms):
    """Group log evidence for stacked groups; ns (K,) int, means (K,b), scatters (K,b,b).

    The means are relative to mu, as a ClusterState holds them. Returns the
    evidences and a mask of the rows whose posterior scale is not positive
    definite, whose evidence is NaN. terms = _count_terms(params, n_max) with
    n_max >= every count. Rows with a zero count come out exactly zero. One
    expression builds the posterior scales for every b; at b = 1 it is the
    scalar s + xi + d d coef, in that order.
    """
    coef_t, base_t, slope_t, _ = terms
    post = (scatters + params.scale_matrix()
            + means[:, :, None] * means[:, None, :] * coef_t[ns][:, None, None])
    logdet, bad = _batch_logdet_spd(post, params.b)
    return base_t[ns] - slope_t[ns] * logdet, bad


def _k_term(k: int, alpha: float, n: int) -> float:
    """The allocation prior's terms in K and n alone, lgamma(K a) - lgamma(K a + n)."""
    return math.lgamma(k * alpha) - math.lgamma(k * alpha + n)


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
    _require_positive(alpha, "alpha")
    k = counts.size
    # fsum keeps the sum independent of count order, so relabelling a compact
    # allocation reproduces the prior term to the last bit.
    return (
        _k_term(k, alpha, n)
        - k * math.lgamma(alpha)
        + math.fsum(math.lgamma(alpha + int(c)) for c in counts)
    )


def icl_exact(data: DataSet, z, params: HyperParams) -> IclValue:
    """Exact ICL of an allocation, computed from scratch by make_state.

    Each group's statistics are summed over its members in index order and
    the data term sums the evidences with an exact (order independent) float
    accumulator, so label permutations leave the value bit-identical.
    """
    state = make_state(data, z, params)
    return IclValue(total=state.icl, data_term=math.fsum(state.group_evidence.tolist()),
                    prior_term=allocation_log_prior(state.counts[:-1], state.params.alpha, data.n))


# ---------------------------------------------------------------------------
# Search state construction and exact move deltas
# ---------------------------------------------------------------------------

def make_state(data: DataSet, z, params: HyperParams) -> ClusterState:
    """Build a ClusterState with all cached statistics from scratch."""
    alloc = z if isinstance(z, Allocation) else Allocation(np.asarray(z))
    if len(alloc) != data.n:
        raise ValueError(f"allocation has length {len(alloc)}, data has n = {data.n}")
    params = validate_hyperparams(params, data.b)
    state = ClusterState(data, params, _count_terms(params, data.n), alloc.labels.copy())
    refresh_state(state)
    return state


def refresh_state(state: ClusterState) -> None:
    """Compute every cached statistic of the state from its labels.

    The groups are _block_stats blocks of their members in index order. Row
    K + 1 is the spare empty row, whose zero count gives an evidence of
    exactly zero, so the fsum of the evidences is the data term. A posterior
    scale that is not positive definite, or an ICL that is not finite, raises
    NumericalError.
    """
    labels, params = state.labels, state.params
    k = int(labels.max())
    counts = np.bincount(labels, minlength=k + 2)[1:]
    sizes = counts[:k]
    means = np.zeros((k + 1, state.data.b))
    scatters = np.zeros((k + 1, state.data.b, state.data.b))
    means[:k], scatters[:k] = _block_stats(state.columns, np.argsort(labels, kind="stable"), sizes)
    evidence, bad = _batch_evidence(counts, means, scatters, params, state.count_terms)
    if bad.any():
        raise NumericalError(_NOT_PD)
    state.counts, state.means, state.scatters = counts, means, scatters
    state.group_evidence = evidence
    state.icl = (math.fsum(evidence.tolist())
                 + allocation_log_prior(sizes, params.alpha, state.data.n))
    if not math.isfinite(state.icl):
        raise NumericalError(f"the exact ICL is {state.icl}; "
                             "the input data or prior is numerically pathological")


@dataclass
class MoveBatch:
    """Best move of each of B same-group blocks, all scored against one state.

    Block j is members[bounds[j]:bounds[j + 1]]; deltas[j, t - 1] is the
    exact ICL change of moving it to group t, for t in 1..K + 1. Target K + 1
    is the spare empty row, a fresh group, with delta -inf when not offered.
    Staying put scores exactly zero. targets[j] is the first maximiser and
    gains[j] its delta. counts, means, scatters and evidence stack the
    post-move rows, relative to mu as in the state, B x (K + 1) leading and
    aligned with the state's rows: column t - 1 is row t after the block
    moves to t, one signed merge each, so the source's own column is the
    source merged with weight -m, after removal. A block that is a whole
    group of two or more members merges its source's state row, other
    blocks their summed members. failed[j] marks a row with a posterior
    scale that is not positive definite; it is void.
    """

    members: np.ndarray
    bounds: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    gains: np.ndarray
    deltas: np.ndarray
    failed: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    scatters: np.ndarray
    evidence: np.ndarray


def _block_stats(columns, members, sizes):
    """Means (B, b) and scatters (B, b, b) of the blocks concatenated in members.

    columns is a state's b-major data. np.add.reduceat sums each contiguous
    block's rows; the gathered rows are then centred in place, and the
    products of each column pair p <= q are summed one pair at a time into
    [p, q] and [q, p], so the scratch stays near two b x M arrays. That
    matches from_points to rounding, and a one-row block exactly.
    """
    starts = np.cumsum(sizes) - sizes
    cols = columns[:, members]
    means = (np.add.reduceat(cols, starts, axis=1) / sizes).T
    cols -= np.repeat(means.T, sizes, axis=1)
    b = cols.shape[0]
    scatters = np.empty((sizes.size, b, b))
    for p in range(b):
        for q in range(p, b):
            scatters[:, p, q] = scatters[:, q, p] = np.add.reduceat(cols[p] * cols[q], starts)
    return means, scatters


def best_moves(state: ClusterState, members, sizes, allow_new: bool = True) -> MoveBatch:
    """Evaluate every candidate target for each of B non-empty blocks.

    Block j is the next sizes[j] entries of members and lies in one group.
    Candidates are all current groups (staying put scores exactly zero) plus
    the spare empty row, a fresh group, when allow_new is set. Ties go to the
    smallest label, so the fresh group comes last. A block of two or more
    members that is its whole group takes its statistics from its source's
    state row; only the other blocks' members are gathered and summed. Every
    one of the B (K + 1) after-move rows is one signed merge of the block's
    statistics into the state's row, and all of them go through one stacked
    evidence evaluation; a source column that fails it is rebuilt from its
    remaining members. The delta of target t is the row gains of t and of the
    source plus the change in the K term. Each row gets the expressions a
    single block would get, so row j is bit for bit best_move's for block j.
    """
    params = state.params
    alpha = params.alpha
    n = state.data.n
    b = state.data.b
    k = state.k
    counts = state.counts
    members = np.asarray(members, dtype=np.intp)
    sizes = np.asarray(sizes, dtype=np.int64)
    nb = sizes.size
    unit = members.size == nb
    bounds = np.arange(nb + 1) if unit else np.concatenate(([0], np.cumsum(sizes)))
    sources = state.labels[members[bounds[:-1]]]
    if not unit and (state.labels[members] != np.repeat(sources, sizes)).any():
        raise ValueError("block members belong to different groups")
    rows = np.arange(nb)
    s = sources - 1

    # block statistics; unit blocks skip the segmented sums, and either way a
    # one-row block's mean is its column. A whole group of two or more members
    # is its source row.
    if unit:
        b_means = state.columns[:, members].T
        b_scats = np.zeros((nb, b, b))
    else:
        part = (sizes == 1) | (sizes != counts[s])
        b_means, b_scats = state.means[s], state.scatters[s]
        if part.any():
            b_means[part], b_scats[part] = _block_stats(
                state.columns, members[np.repeat(part, sizes)], sizes[part])

    # one signed merge per column, aligned with the state's rows: the block
    # joins row t with weight m, the spare empty row included (which
    # reproduces the block's own statistics), and leaves its source with
    # weight -m (Chan, Golub & LeVeque 1983). An emptied source gets an all-zero
    # mean and a row of at most one member a zero scatter.
    signed = np.repeat(sizes[:, None], k + 1, axis=1)
    signed[rows, s] = -sizes
    n_after = counts + signed
    n_div = np.maximum(n_after, 1)
    dv = b_means[:, None, :] - state.means
    means_stack = state.means + dv * (signed / n_div)[:, :, None]
    scat_stack = (state.scatters + np.sign(signed)[:, :, None, None] * b_scats[:, None]
                  + dv[:, :, :, None] * dv[:, :, None, :]
                  * (counts * signed / n_div)[:, :, None, None])
    means_stack[n_after == 0] = 0.0
    scat_stack[n_after <= 1] = 0.0
    ev_stack, bad = _batch_evidence(n_after.reshape(-1), means_stack.reshape(-1, b),
                                    scat_stack.reshape(-1, b, b), params, state.count_terms)
    ev_stack, bad = ev_stack.reshape(nb, k + 1), bad.reshape(nb, k + 1)
    # the merge out of a source keeps rounding noise of about eps times its
    # scatter, so a flagged source column that keeps members is rebuilt from
    # them in index order, as refresh_state does; one still flagged stays so
    redo = np.flatnonzero(bad[rows, s] & (n_after[rows, s] > 0)) if bad.any() else ()
    if len(redo):
        rs, r_sizes = s[redo], n_after[redo, s[redo]]
        rest = [np.setdiff1d(np.flatnonzero(state.labels == sources[j]),
                             members[bounds[j]:bounds[j + 1]]) for j in redo]
        means_stack[redo, rs], scat_stack[redo, rs] = _block_stats(
            state.columns, np.concatenate(rest), r_sizes)
        ev_stack[redo, rs], bad[redo, rs] = _batch_evidence(
            r_sizes, means_stack[redo, rs], scat_stack[redo, rs], params, state.count_terms)

    # each delta is the target's and the source's row gain, evidence and
    # lgamma(alpha + n_g), plus the change in the K term: filling the spare
    # row takes K to K + 1 and emptying the source K to K - 1. With K = 1 an
    # emptied source leaves only the source and the spare row as targets,
    # both exactly zero below, so that shift is never needed.
    lgp = state.count_terms[3]
    gain = (ev_stack - state.group_evidence) + (lgp[n_after] - lgp[counts])
    deltas = gain + gain[rows, s][:, None]
    k_now = _k_term(k, alpha, n)
    deltas[:, k] += _k_term(k + 1, alpha, n) - k_now
    empties = n_after[rows, s] == 0
    if k > 1:
        deltas[empties] += _k_term(k - 1, alpha, n) - k_now
    deltas[rows, s] = 0.0
    # a whole group moving to the spare row only relabels: exactly zero, so
    # it never beats staying put
    deltas[empties, k] = 0.0
    if not allow_new:
        deltas[:, k] = -math.inf

    t = deltas.argmax(axis=1)            # first maximiser, smallest label
    return MoveBatch(
        members=members, bounds=bounds, sources=sources, targets=t + 1, gains=deltas[rows, t],
        deltas=deltas, failed=bad.any(axis=1), counts=n_after,
        means=means_stack, scatters=scat_stack, evidence=ev_stack,
    )


def best_move(state: ClusterState, block, allow_new: bool = True) -> MoveBatch:
    """best_moves for one non-empty block, checked.

    A block whose members span several groups raises ValueError, and a
    posterior scale that is not positive definite raises NumericalError.
    """
    block = np.asarray(block, dtype=np.intp).ravel()
    moves = best_moves(state, block, [block.size], allow_new)
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
    fill, empty = t == state.k, moves.counts[j, s] == 0
    if empty:
        # the rows to keep, every one but the emptied source, shared by the four fields
        keep = np.arange(state.k + fill)
        keep[s:] += 1
    state.labels[moves.members[moves.bounds[j]:moves.bounds[j + 1]]] = target
    for name, stack in (("counts", moves.counts), ("means", moves.means),
                        ("scatters", moves.scatters), ("group_evidence", moves.evidence)):
        rows = getattr(state, name)
        rows[t] = stack[j, t]
        rows[s] = stack[j, s]
        if fill:
            rows = np.concatenate([rows, np.zeros_like(rows[:1])])
        if empty:
            rows = rows.take(keep, axis=0)
        setattr(state, name, rows)
    if empty:
        state.labels[state.labels > source] -= 1
    state.icl += float(moves.gains[j])
