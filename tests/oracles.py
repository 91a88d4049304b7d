"""Independent reference implementations used to check the closed forms.

Everything here is deliberately written from first principles (Student-t
predictive densities, posterior parameter updates, numerical integration,
exhaustive partition enumeration) and never calls back into the code paths
it is checking. The one exception is icl_delta, a per-target reading of the
move kernel for the tests that check its deltas against icl_exact.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.integrate import dblquad
from scipy.special import gammaln

from iclust import DataSet, MvHyperParams, UvHyperParams, icl_exact
from iclust.icl import best_move


def icl_delta(state, block, target: int) -> float:
    """Exact ICL change of moving a block to group target; state untouched.

    target is any label in 1..K + 1, K + 1 being a fresh group. An empty block
    gives 0.0; a block spanning several groups raises ValueError.
    """
    block = np.asarray(block, dtype=np.int64).ravel()
    if block.size == 0:
        return 0.0
    if not 1 <= target <= state.k + 1:
        raise ValueError(f"target must be in 1..{state.k + 1}, got {target}")
    return float(best_move(state, block).deltas[0, target - 1])


def mvt_logpdf(x, loc, scale, df):
    """Multivariate Student-t log density."""
    x = np.atleast_1d(np.asarray(x, float))
    loc = np.atleast_1d(np.asarray(loc, float))
    b = loc.size
    scale = np.atleast_2d(np.asarray(scale, float))
    chol = np.linalg.cholesky(scale)
    w = np.linalg.solve(chol, x - loc)
    maha = float(w @ w)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return (
        gammaln(0.5 * (df + b))
        - gammaln(0.5 * df)
        - 0.5 * b * math.log(df * math.pi)
        - 0.5 * logdet
        - 0.5 * (df + b) * math.log1p(maha / df)
    )


def mv_posterior(params: MvHyperParams, rows: np.ndarray):
    """Posterior (tau, mu, nu, xi) after observing the given rows."""
    rows = np.atleast_2d(rows)
    m = rows.shape[0]
    if m == 0:
        return params.tau, params.mu.copy(), params.nu, params.scale_matrix().copy()
    xbar = rows.mean(axis=0)
    centred = rows - xbar
    scatter = centred.T @ centred
    tau_n = params.tau + m
    mu_n = (params.tau * params.mu + m * xbar) / tau_n
    nu_n = params.nu + m
    d = xbar - params.mu
    xi_n = params.scale_matrix() + scatter + (params.tau * m / tau_n) * np.outer(d, d)
    return tau_n, mu_n, nu_n, xi_n


def mv_predictive_logpdf(params: MvHyperParams, seen: np.ndarray, x: np.ndarray):
    """Log density of the next observation given the ones already seen."""
    tau_n, mu_n, nu_n, xi_n = mv_posterior(params, seen)
    b = params.b
    df = nu_n - b + 1
    scale = xi_n * (tau_n + 1.0) / (tau_n * df)
    return mvt_logpdf(x, mu_n, scale, df)


def mv_evidence_chain_rule(params: MvHyperParams, rows: np.ndarray):
    """Group evidence as a telescoping product of one-point predictives."""
    rows = np.atleast_2d(rows)
    return math.fsum(
        mv_predictive_logpdf(params, rows[:j], rows[j]) for j in range(rows.shape[0])
    )


def uv_predictive_logpdf(params: UvHyperParams, seen, x):
    """Univariate posterior predictive: Student-t with 2*gamma_n df."""
    seen = np.asarray(seen, float).ravel()
    m = seen.size
    tau_n = params.tau + m
    gamma_n = params.gamma + 0.5 * m
    if m:
        xbar = seen.mean()
        s = float(np.sum((seen - xbar) ** 2))
        mu_n = (params.tau * params.mu + m * xbar) / tau_n
        delta_n = params.delta + 0.5 * s + 0.5 * (params.tau * m / tau_n) * (xbar - params.mu) ** 2
    else:
        mu_n = params.mu
        delta_n = params.delta
    df = 2.0 * gamma_n
    scale2 = delta_n * (tau_n + 1.0) / (gamma_n * tau_n)
    return mvt_logpdf([x], [mu_n], [[scale2]], df)


def uv_log_evidence(params: UvHyperParams, n: int, xbar: float, m2: float) -> float:
    """Normal-Gamma group log evidence in gamma and delta, as published.

    n members with mean xbar and centred sum of squares m2, under a
    Gamma(gamma, rate delta) precision; the reference for the 1x1 Wishart
    form that the package evaluates.
    """
    tau, gam = params.tau, params.gamma
    d = xbar - params.mu
    post = params.delta + 0.5 * m2 + 0.5 * (tau * n / (tau + n)) * d * d
    return (
        -0.5 * n * math.log(2.0 * math.pi)
        + 0.5 * (math.log(tau) - math.log(tau + n))
        + gammaln(gam + 0.5 * n)
        - gammaln(gam)
        + gam * math.log(params.delta)
        - (gam + 0.5 * n) * math.log(post)
    )


def uv_evidence_quadrature(params: UvHyperParams, xs):
    """Log evidence of a univariate group by 2-d adaptive quadrature.

    Integrates the full hierarchy (Gaussian likelihood, conditional Gaussian
    centre, Gamma precision) over centre and precision.
    """
    xs = np.asarray(xs, float).ravel()
    n = xs.size
    lognorm = (
        -0.5 * (n + 1) * math.log(2.0 * math.pi)
        + 0.5 * math.log(params.tau)
        + params.gamma * math.log(params.delta)
        - gammaln(params.gamma)
    )

    def integrand(m, r):
        quad = np.sum((xs - m) ** 2) + params.tau * (m - params.mu) ** 2
        logval = (
            lognorm
            + 0.5 * (n + 1) * math.log(r)
            + (params.gamma - 1.0) * math.log(r)
            - params.delta * r
            - 0.5 * r * quad
        )
        return math.exp(logval)

    value, _ = dblquad(integrand, 0.0, np.inf, -np.inf, np.inf,
                       epsabs=1e-14, epsrel=1e-11)
    return math.log(value)


def partitions_upto(n: int, k_max: int):
    """All set partitions of range(n) into at most k_max blocks.

    Yields label vectors in restricted growth form (first appearance order),
    which enumerates each partition exactly once.
    """
    labels = np.zeros(n, dtype=np.int64)

    def rec(i, used):
        if i == n:
            yield labels.copy() + 1
            return
        for g in range(min(used + 1, k_max)):
            labels[i] = g
            yield from rec(i + 1, max(used, g + 1))

    yield from rec(0, 0)


def brute_force_max_icl(data: DataSet, params, k_max: int):
    """Exhaustive maximum of the exact ICL over partitions with K <= k_max.

    Per-subset evidences are cached so the enumeration stays fast; the prior
    term is recomputed per partition.
    """
    from iclust.icl import allocation_log_prior, group_log_evidence
    from iclust.model import GroupStats

    n = data.n
    cache = {}

    def subset_ev(key):
        if key not in cache:
            rows = data.values[[i for i in range(n) if key >> i & 1]]
            cache[key] = group_log_evidence(GroupStats.from_points(rows), params)
        return cache[key]

    best = -math.inf
    best_labels = None
    for labels in partitions_upto(n, k_max):
        k = labels.max()
        keys = [0] * k
        counts = [0] * k
        for i, g in enumerate(labels):
            keys[g - 1] |= 1 << i
            counts[g - 1] += 1
        total = math.fsum(subset_ev(key) for key in keys)
        total += allocation_log_prior(counts, params.alpha, n)
        if total > best:
            best = total
            best_labels = labels
    return best, best_labels


def interval_split_max_icl(data: DataSet, params):
    """Best exact ICL over K = 1 and the two-group interval splits of 1-d data.

    The candidates are the single group and every two-group allocation in
    which one group is a contiguous run of the sorted data, which covers both
    threshold splits and tails-versus-middle splits. Each candidate is scored
    with `icl_exact`, so nothing here shares a code path with the search's
    move deltas. Returns the best ICL with its K and label vector.
    """
    if data.b != 1:
        raise ValueError("interval splits are defined for univariate data only")
    n = data.n
    order = np.argsort(data.values[:, 0], kind="stable")
    best_labels = np.ones(n, dtype=np.int64)
    best = icl_exact(data, best_labels, params).total
    # a run starting at sorted position 0 is the complement of a run ending
    # at position n, so runs starting at 1 list every split exactly once
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            labels = np.ones(n, dtype=np.int64)
            labels[order[i:j]] = 2
            value = icl_exact(data, labels, params).total
            if value > best:
                best, best_labels = value, labels
    return best, int(best_labels.max()), best_labels


def dm_count_log_pmf(counts, alpha: float, K: int, n: int) -> float:
    """Log pmf of an ordered component count vector under the allocation model.

    Zero counts are allowed: an unused component contributes nothing beyond
    the leading terms. Includes the multinomial coefficient, so this is the
    distribution of the raw count vector over all K**n label vectors.
    """
    counts = list(counts)
    log_coeff = gammaln(n + 1) - sum(gammaln(c + 1) for c in counts)
    log_alloc = (
        gammaln(K * alpha)
        - gammaln(K * alpha + n)
        + sum(gammaln(alpha + c) - gammaln(alpha) for c in counts)
    )
    return float(log_coeff + log_alloc)


def enumerate_label_vectors(n: int, K: int):
    """All raw label vectors in {1..K}^n."""
    return product(range(1, K + 1), repeat=n)
