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
alone is read from _count_terms, a table over counts built once per search
state, so the kernel's own work is the posterior scale and its determinant.

This module also provides exact move deltas: the ICL change from reallocating
a block of same-group observations is computed by re-evaluating only the
source group, the target group and the allocation prior, which is what makes
greedy search over allocations cheap. A fresh group is the search state's
spare empty row, scored through the same batch as every existing group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .model import (
    Allocation,
    ClusterState,
    DataSet,
    GroupStats,
    HyperParams,
    MvHyperParams,
    NumericalError,
    stats_downdate,
    validate_hyperparams,
)

_LOG_PI = math.log(math.pi)


@dataclass(frozen=True)
class IclValue:
    """Exact ICL split into its data and allocation-prior terms."""

    total: float
    data_term: float
    prior_term: float


def _batch_logdet_spd(post: np.ndarray, b: int) -> np.ndarray:
    """Log determinants of stacked symmetric positive definite matrices, b >= 2.

    Dimension two uses the leading-minor test and closed-form determinant;
    larger dimensions go through a stacked Cholesky. Any
    non-positive-definite input raises NumericalError.
    """
    if b == 2:
        a = post[:, 0, 0]
        c = post[:, 1, 1]
        off = post[:, 0, 1]
        det = a * c - off * off
        # fmin skips a NaN operand, so this is (a <= 0).any() or (det <= 0).any()
        if (np.fmin(a, det) <= 0.0).any():
            raise NumericalError(
                "posterior scale matrix is not positive definite; "
                "the input data is numerically pathological"
            )
        return np.log(det)
    try:
        chol = np.linalg.cholesky(post)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "factorization of the posterior scale matrix failed; "
            "the input data is numerically pathological"
        ) from None
    return 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)


def _count_terms(params: MvHyperParams, n_max: int):
    """Tables (coef, base, slope) over counts c = 0..n_max of the evidence terms.

    A group of c members whose posterior scale has log determinant L has log
    evidence base[c] - slope[c] * L; coef[c] = tau c / (tau + c). Entry 0 of
    base and slope is zero, so an empty row scores exactly zero.
    """
    b = params.b
    tau = params.tau
    nu = params.nu
    ns = np.arange(n_max + 1, dtype=float)
    s = np.arange(1, b + 1, dtype=float)
    lgamma_nu = gammaln((nu + 1.0 - s) / 2.0).sum()
    if b == 1:
        lg = gammaln((nu + ns) / 2.0) - lgamma_nu
    else:
        lg = gammaln((nu + ns[:, None] + 1.0 - s) / 2.0).sum(axis=1) - lgamma_nu
    base = (
        -0.5 * b * ns * _LOG_PI
        + 0.5 * b * (np.log(tau) - np.log(tau + ns))
        + lg
        + 0.5 * nu * params.log_det_scale
    )
    slope = 0.5 * (nu + ns)
    base[0] = slope[0] = 0.0
    return tau * ns / (tau + ns), base, slope


def _batch_evidence(ns, means, scatters, params: MvHyperParams, terms) -> np.ndarray:
    """Group log evidence for stacked groups; ns (K,) int, means (K,b), scatters (K,b,b).

    terms = _count_terms(params, n_max) with n_max >= every count. Rows with
    a zero count come out exactly zero. At b = 1 the posterior scale is a
    scalar per row and skips the matrix shapes.
    """
    coef_t, base_t, slope_t = terms
    coef = coef_t[ns]
    if params.b == 1:
        d = means[:, 0] - params.mu[0]
        post = scatters[:, 0, 0] + params.scale_matrix()[0, 0] + d * d * coef
        if (post <= 0.0).any():
            raise NumericalError(
                "posterior scale matrix is not positive definite; "
                "the input data is numerically pathological"
            )
        logdet = np.log(post)
    else:
        d = means - params.mu
        post = scatters + params.scale_matrix() + d[:, :, None] * d[:, None, :] * coef[:, None, None]
        logdet = _batch_logdet_spd(post, params.b)
    return base_t[ns] - slope_t[ns] * logdet


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
        _batch_evidence(
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
    if not np.issubdtype(counts.dtype, np.integer):
        as_int = counts.astype(np.int64)
        if not np.array_equal(as_int, counts):
            raise ValueError("group counts must be integers")
        counts = as_int
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
    _, _, _, evidence, prior_term, total = _build_arrays(
        data, alloc.labels, params, _count_terms(params, data.n)
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
    evidence = _batch_evidence(counts, means, scatters, params, terms)
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
    # best_move's garbage source row has up to 2n members
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
class MoveProposal:
    """Best reallocation of a same-group block, with the delta of every target.

    deltas[t - 1] is the exact ICL change of moving the block to group t, for
    t in 1..K + 1. Target K + 1 is the spare empty row, that is a fresh group;
    its delta is -inf when no fresh group is offered. Staying put scores
    exactly zero. target is the first maximiser, so the fresh group wins only
    a strict improvement; target == source means staying put, which
    apply_move ignores. The post-move statistics and evidence of the source
    and target rows ride along so an accepted move never recomputes.
    """

    block: np.ndarray
    source: int
    target: int
    delta: float
    deltas: np.ndarray
    src_stats: GroupStats
    src_ev: float
    tgt_stats: GroupStats
    tgt_ev: float


def _source_group_of(state: ClusterState, block: np.ndarray) -> int:
    src_labels = state.labels[block]
    source = int(src_labels[0])
    if (src_labels != source).any():
        raise ValueError("block members belong to different groups")
    return source


def best_move(state: ClusterState, block, allow_new: bool = True) -> MoveProposal:
    """Evaluate every candidate target for a non-empty block; return the best.

    Candidates are all current groups (staying put scores exactly zero) plus
    the spare empty row, a fresh group, when allow_new is set. Ties go to the
    smallest group label, so the fresh group comes last. Every target is
    evaluated in one vectorised batch, and the delta of every candidate is
    kept on the proposal.
    """
    block = np.asarray(block, dtype=np.int64).ravel()
    params = state.params
    data = state.data
    source = _source_group_of(state, block)
    k = state.k
    s = source - 1
    counts = state.counts
    n_src = int(counts[s])
    alpha = params.alpha
    n = data.n
    b = data.b

    block_stats = GroupStats.from_points(data.values[block])
    m = block_stats.n
    src_view = GroupStats(n_src, state.means[s], state.scatters[s])
    src_after = stats_downdate(src_view, block_stats)
    src_ev_before = float(state.group_evidence[s])
    src_empties = src_after.n == 0

    # one stacked evidence evaluation: rows 0..K hold the block merged into
    # every row, the spare empty row included (which reproduces the block's
    # own statistics), and row K + 1 the source after removal; the
    # source-target row is garbage and gets overwritten with the exact zero
    ns_stack = np.empty(k + 2, dtype=np.int64)
    means_stack = np.empty((k + 2, b))
    scat_stack = np.empty((k + 2, b, b))
    n_after = np.add(counts, m, out=ns_stack[:k + 1])
    dv = block_stats.mean - state.means
    means_after = np.add(state.means, dv * (m / n_after)[:, None], out=means_stack[:k + 1])
    scat_after = np.add(
        state.scatters + block_stats.scatter,
        dv[:, :, None] * dv[:, None, :] * (counts * m / n_after)[:, None, None],
        out=scat_stack[:k + 1],
    )
    ns_stack[k + 1] = src_after.n
    means_stack[k + 1] = src_after.mean
    scat_stack[k + 1] = src_after.scatter
    ev_stack = _batch_evidence(ns_stack, means_stack, scat_stack, params, state.count_terms)
    ev_after = ev_stack[:k + 1]
    src_ev_after = float(ev_stack[k + 1])

    alpha_nt = alpha + counts
    dprior = gammaln(alpha_nt + m) - gammaln(alpha_nt) - math.lgamma(alpha + n_src)
    if not src_empties:
        dprior += math.lgamma(alpha + n_src - m)
        # filling the spare row takes K to K + 1
        dprior[k] += (
            math.lgamma((k + 1) * alpha)
            - math.lgamma(k * alpha)
            - math.lgamma((k + 1) * alpha + n)
            + math.lgamma(k * alpha + n)
        )
    elif k > 1:
        # with K = 1 the only targets are the source and the spare row,
        # both exactly zero below
        dprior += (
            math.lgamma(alpha)
            + math.lgamma((k - 1) * alpha)
            - math.lgamma(k * alpha)
            - math.lgamma((k - 1) * alpha + n)
            + math.lgamma(k * alpha + n)
        )
    deltas = (src_ev_after - src_ev_before) + (ev_after - state.group_evidence) + dprior
    deltas[s] = 0.0
    if src_empties:
        # a whole group moving to the spare row only relabels: exactly zero,
        # so it never beats staying put
        deltas[k] = 0.0
    if not allow_new:
        deltas[k] = -math.inf

    t = int(deltas.argmax())             # first maximiser, smallest label
    return MoveProposal(
        block=block, source=source, target=t + 1, delta=float(deltas[t]), deltas=deltas,
        src_stats=src_after, src_ev=src_ev_after,
        tgt_stats=GroupStats(int(n_after[t]), means_after[t], scat_after[t]),
        tgt_ev=float(ev_after[t]),
    )


def apply_move(state: ClusterState, prop: MoveProposal) -> None:
    """Apply an accepted proposal to the state, updating all cached terms.

    A filled spare row gets a new empty row after it; an emptied source row
    is dropped and every higher label shifts down by one.
    """
    if prop.target == prop.source:
        return
    s, t = prop.source - 1, prop.target - 1
    state.labels[prop.block] = prop.target
    state.counts[t] = prop.tgt_stats.n
    state.means[t] = prop.tgt_stats.mean
    state.scatters[t] = prop.tgt_stats.scatter
    state.group_evidence[t] = prop.tgt_ev
    state.counts[s] = prop.src_stats.n
    state.means[s] = prop.src_stats.mean
    state.scatters[s] = prop.src_stats.scatter
    state.group_evidence[s] = prop.src_ev
    if t == state.k:
        b = state.data.b
        state.counts = np.append(state.counts, 0)
        state.means = np.concatenate([state.means, np.zeros((1, b))])
        state.scatters = np.concatenate([state.scatters, np.zeros((1, b, b))])
        state.group_evidence = np.append(state.group_evidence, 0.0)
    if prop.src_stats.n == 0:
        state.counts = np.delete(state.counts, s)
        state.means = np.delete(state.means, s, axis=0)
        state.scatters = np.delete(state.scatters, s, axis=0)
        state.group_evidence = np.delete(state.group_evidence, s)
        state.labels[state.labels > prop.source] -= 1
    state.icl += prop.delta
    state.accepted_moves += 1
    if state.accepted_moves % ClusterState.refresh_interval == 0:
        refresh_state(state)
