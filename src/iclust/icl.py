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

The univariate variant replaces the Wishart with a Gamma(gamma, delta) prior
on the precision, giving

    - (n_g / 2) log(2 pi)
    + (1 / 2) [log(tau) - log(tau + n_g)]
    + lgamma(gamma + n_g / 2) - lgamma(gamma)
    + gamma log(delta)
    - (gamma + n_g / 2) log(delta + S_g / 2 + (tau n_g / (tau + n_g)) d^2 / 2).

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
    UvHyperParams,
    stats_downdate,
    validate_hyperparams,
)

_LOG_PI = math.log(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class IclValue:
    """Exact ICL split into its data and allocation-prior terms."""

    total: float
    data_term: float
    prior_term: float


def _batch_logdet_spd(post: np.ndarray, b: int) -> np.ndarray:
    """Log determinants of stacked symmetric positive definite matrices.

    Dimensions one and two use the leading-minor test and closed-form
    determinant; larger dimensions go through a stacked Cholesky. Any
    non-positive-definite input raises NumericalError.
    """
    if b == 1:
        d = post[:, 0, 0]
        if np.any(d <= 0.0):
            raise NumericalError(
                "posterior scale matrix is not positive definite; "
                "the input data is numerically pathological"
            )
        return np.log(d)
    if b == 2:
        a = post[:, 0, 0]
        c = post[:, 1, 1]
        off = post[:, 0, 1]
        det = a * c - off * off
        if np.any(a <= 0.0) or np.any(det <= 0.0):
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


def _batch_evidence_mv(ns, means, scatters, params: MvHyperParams) -> np.ndarray:
    """Group log evidence for stacked groups; ns (K,), means (K,b), scatters (K,b,b).

    Rows with a zero count come out exactly zero.
    """
    b = params.b
    tau = params.tau
    nu = params.nu
    ns = np.asarray(ns, dtype=float)
    d = means - params.mu
    coef = tau * ns / (tau + ns)
    post = scatters + params.scale_matrix() + d[:, :, None] * d[:, None, :] * coef[:, None, None]
    logdet = _batch_logdet_spd(post, b)
    s = np.arange(1, b + 1, dtype=float)
    lg = gammaln((nu + ns[:, None] + 1.0 - s) / 2.0).sum(axis=1) - gammaln((nu + 1.0 - s) / 2.0).sum()
    out = (
        -0.5 * b * ns * _LOG_PI
        + 0.5 * b * (np.log(tau) - np.log(tau + ns))
        + lg
        + 0.5 * nu * params.log_det_scale
        - 0.5 * (nu + ns) * logdet
    )
    if np.any(ns == 0.0):
        out = np.where(ns == 0.0, 0.0, out)
    return out


def _batch_evidence_uv(ns, means, m2s, params: UvHyperParams) -> np.ndarray:
    """Univariate analogue of _batch_evidence_mv; all arguments are (K,) arrays."""
    tau = params.tau
    gam = params.gamma
    ns = np.asarray(ns, dtype=float)
    d = means - params.mu
    post = params.delta + 0.5 * m2s + 0.5 * (tau * ns / (tau + ns)) * d * d
    if np.any(post <= 0.0):
        raise NumericalError(
            "posterior rate of the precision turned non-positive; "
            "the input data is numerically pathological"
        )
    out = (
        -0.5 * ns * _LOG_2PI
        + 0.5 * (np.log(tau) - np.log(tau + ns))
        + gammaln(gam + 0.5 * ns)
        - gammaln(gam)
        + gam * math.log(params.delta)
        - (gam + 0.5 * ns) * np.log(post)
    )
    if np.any(ns == 0.0):
        out = np.where(ns == 0.0, 0.0, out)
    return out


def _batch_evidence(ns, means, scatters, params: HyperParams) -> np.ndarray:
    if isinstance(params, UvHyperParams):
        return _batch_evidence_uv(ns, means[:, 0], scatters[:, 0, 0], params)
    return _batch_evidence_mv(ns, means, scatters, params)


def group_log_evidence(stats: GroupStats, params: MvHyperParams) -> float:
    """Log marginal likelihood contribution of one group, multivariate model.

    Zero for an empty group. Log determinants go through a Cholesky
    factorization of the posterior scale matrix; a factorization failure
    raises NumericalError rather than returning NaN.
    """
    if not isinstance(params, MvHyperParams):
        raise TypeError("group_log_evidence expects multivariate hyperparameters")
    if stats.n == 0:
        return 0.0
    return float(
        _batch_evidence_mv(
            np.array([stats.n]), stats.mean[None, :], stats.scatter[None, :, :], params
        )[0]
    )


def group_log_evidence_1d(stats: GroupStats, params: UvHyperParams) -> float:
    """Log marginal likelihood contribution of one group, univariate model."""
    if not isinstance(params, UvHyperParams):
        raise TypeError("group_log_evidence_1d expects univariate hyperparameters")
    if stats.n == 0:
        return 0.0
    mean = float(np.atleast_1d(stats.mean)[0])
    m2 = float(np.atleast_2d(stats.scatter)[0, 0])
    return float(_batch_evidence_uv(np.array([stats.n]), np.array([mean]), np.array([m2]), params)[0])


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
    validate_hyperparams(params, data.b)
    _, _, _, evidence, prior_term, total = _build_arrays(data, alloc.labels, params)
    return IclValue(total=total, data_term=math.fsum(evidence.tolist()), prior_term=prior_term)


# ---------------------------------------------------------------------------
# Search state construction and exact move deltas
# ---------------------------------------------------------------------------

def _build_arrays(data: DataSet, labels: np.ndarray, params: HyperParams):
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
    evidence = _batch_evidence(counts, means, scatters, params)
    prior = allocation_log_prior(counts[:k], params.alpha, data.n)
    icl = math.fsum(evidence.tolist()) + prior
    return counts, means, scatters, evidence, prior, icl


def make_state(data: DataSet, z, params: HyperParams) -> ClusterState:
    """Build a ClusterState with all cached statistics from scratch."""
    alloc = z if isinstance(z, Allocation) else Allocation(np.asarray(z))
    if len(alloc) != data.n:
        raise ValueError(f"allocation has length {len(alloc)}, data has n = {data.n}")
    validate_hyperparams(params, data.b)
    labels = alloc.labels.copy()
    counts, means, scatters, evidence, _, icl = _build_arrays(data, labels, params)
    return ClusterState(data, params, labels, counts, means, scatters, evidence, icl)


def refresh_state(state: ClusterState) -> None:
    """Recompute every cached statistic of the state from its labels."""
    counts, means, scatters, evidence, _, icl = _build_arrays(
        state.data, state.labels, state.params
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
    if np.any(src_labels != source):
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
    n_src = int(state.counts[s])
    alpha = params.alpha
    n = data.n

    block_stats = GroupStats.from_points(data.values[block])
    m = block_stats.n
    src_view = GroupStats(n_src, state.means[s], state.scatters[s])
    src_after = stats_downdate(src_view, block_stats)
    src_ev_before = float(state.group_evidence[s])
    src_empties = src_after.n == 0

    # one stacked evidence evaluation: the block merged into every row, the
    # spare empty row included (which reproduces the block's own statistics),
    # then the source after removal; the source-target row is garbage and
    # gets overwritten with the exact zero
    nt = state.counts.astype(float)
    n_after = nt + m
    dv = block_stats.mean[None, :] - state.means
    means_after = state.means + dv * (m / n_after)[:, None]
    scat_after = (
        state.scatters
        + block_stats.scatter[None, :, :]
        + dv[:, :, None] * dv[:, None, :] * (nt * m / n_after)[:, None, None]
    )
    ns_stack = np.append(n_after.astype(np.int64), src_after.n)
    means_stack = np.concatenate([means_after, src_after.mean[None, :]])
    scat_stack = np.concatenate([scat_after, src_after.scatter[None, :, :]])
    ev_stack = _batch_evidence(ns_stack, means_stack, scat_stack, params)
    ev_after = ev_stack[:k + 1]
    src_ev_after = float(ev_stack[k + 1])

    dprior = gammaln(alpha + nt + m) - gammaln(alpha + nt) - math.lgamma(alpha + n_src)
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

    t = int(np.argmax(deltas))           # first maximiser, smallest label
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
