"""Independent exact ICL evaluator used to check the program's outputs.

Written from the closed forms of the collapsed conjugate Gaussian mixture and
sharing no code with ``iclust.icl``. Hyperparameters are plain dicts:

    multivariate  {"family": "mv", "alpha", "tau", "mu" (length b), "nu", "omega"}
    univariate    {"family": "uv", "alpha", "tau", "mu", "gamma", "delta"}

The multivariate precision prior is Wishart with inverse scale omega * I; the
univariate one is Gamma(gamma, rate delta). ``self_test`` cross-checks the
closed forms against a sequential Student-t predictive chain rule.
"""

from __future__ import annotations

import math

import numpy as np

LOG_PI = math.log(math.pi)
LOG_2PI = math.log(2.0 * math.pi)


def group_stats(rows: np.ndarray):
    """Count, mean and centred scatter of a (m, b) block, two-pass."""
    rows = np.asarray(rows, dtype=float)
    mean = rows.mean(axis=0)
    centred = rows - mean
    return rows.shape[0], mean, centred.T @ centred


def log_evidence_batch(ns, means, scatters, hp) -> np.ndarray:
    """Log marginal likelihood of stacked groups: ns (G,), means (G,b), scatters (G,b,b)."""
    ns = np.asarray(ns, dtype=float)
    means = np.asarray(means, dtype=float)
    scatters = np.asarray(scatters, dtype=float)
    tau = hp["tau"]
    coef = tau * ns / (tau + ns)
    if hp["family"] == "uv":
        gam, dlt = hp["gamma"], hp["delta"]
        d = means[:, 0] - hp["mu"]
        rate = dlt + 0.5 * scatters[:, 0, 0] + 0.5 * coef * d * d
        if np.any(rate <= 0.0):
            raise ArithmeticError("non-positive posterior rate")
        lg = np.array([math.lgamma(gam + 0.5 * n) for n in ns]) - math.lgamma(gam)
        return (-0.5 * ns * LOG_2PI + 0.5 * (math.log(tau) - np.log(tau + ns)) + lg
                + gam * math.log(dlt) - (gam + 0.5 * ns) * np.log(rate))
    mu = np.asarray(hp["mu"], dtype=float)
    nu = hp["nu"]
    b = mu.size
    xi = hp["omega"] * np.eye(b)
    d = means - mu
    post = xi + scatters + coef[:, None, None] * d[:, :, None] * d[:, None, :]
    sign, logdet = np.linalg.slogdet(post)
    if np.any(sign <= 0):
        raise ArithmeticError("posterior scale matrix is not positive definite")
    logdet_xi = b * math.log(hp["omega"])
    lg = np.array([
        sum(math.lgamma((nu + n + 1 - s) / 2.0) - math.lgamma((nu + 1 - s) / 2.0)
            for s in range(1, b + 1))
        for n in ns
    ])
    return (-0.5 * b * ns * LOG_PI + 0.5 * b * (math.log(tau) - np.log(tau + ns)) + lg
            + 0.5 * nu * logdet_xi - 0.5 * (nu + ns) * logdet)


def log_prior(counts, alpha: float) -> float:
    """Dirichlet-multinomial log mass of a labelled allocation with these group sizes."""
    k = len(counts)
    n = int(sum(counts))
    return (math.lgamma(k * alpha) - math.lgamma(k * alpha + n) - k * math.lgamma(alpha)
            + math.fsum(math.lgamma(alpha + c) for c in counts))


def icl(x: np.ndarray, labels, hp) -> float:
    """Exact ICL of a labelling (any distinct integer labels) of the rows of x."""
    x = np.asarray(x, dtype=float).reshape(len(labels), -1)
    labels = np.asarray(labels)
    stats = [group_stats(x[labels == g]) for g in np.unique(labels)]
    ev = log_evidence_batch([s[0] for s in stats], [s[1] for s in stats],
                            [s[2] for s in stats], hp)
    return math.fsum(ev.tolist()) + log_prior([s[0] for s in stats], hp["alpha"])


def best_single_move_gain(x: np.ndarray, labels, hp, allow_new: bool) -> float:
    """Largest ICL gain of moving one observation to another group or a fresh one.

    Group statistics for the candidates come from raw sums (count, sum and
    sum of outer products), which is ample precision for a tolerance check on
    data of moderate offset.
    """
    x = np.asarray(x, dtype=float).reshape(len(labels), -1)
    labels = np.asarray(labels)
    groups = list(np.unique(labels))
    alpha = hp["alpha"]
    idx = {g: j for j, g in enumerate(groups)}
    cnt = np.array([np.sum(labels == g) for g in groups], dtype=float)
    sums = np.array([x[labels == g].sum(axis=0) for g in groups])
    quads = np.array([x[labels == g].T @ x[labels == g] for g in groups])
    k, b = len(groups), x.shape[1]

    def evid(n, s, q):
        n = np.asarray(n, dtype=float)
        safe = np.where(n > 0, n, 1.0)
        mean = s / safe[:, None]
        scat = q - safe[:, None, None] * mean[:, :, None] * mean[:, None, :]
        ev = log_evidence_batch(safe, mean, scat, hp)
        return np.where(n > 0, ev, 0.0)

    base_ev = evid(cnt, sums, quads)
    base_prior = log_prior(cnt.astype(int).tolist(), alpha)
    best = -math.inf
    for i in range(x.shape[0]):
        s = idx[labels[i]]
        xi, xx = x[i], np.outer(x[i], x[i])
        targets = [t for t in range(k) if t != s] + ([k] if allow_new else [])
        if not targets:
            continue
        src_ev = evid([cnt[s] - 1], sums[s][None] - xi, quads[s][None] - xx)[0]
        tn = np.array([cnt[t] if t < k else 0.0 for t in targets])
        ts = np.array([sums[t] if t < k else np.zeros(b) for t in targets])
        tq = np.array([quads[t] if t < k else np.zeros((b, b)) for t in targets])
        tgt_ev = evid(tn + 1, ts + xi, tq + xx)
        for j, t in enumerate(targets):
            after = cnt.copy()
            if t < k:
                after[t] += 1
                before_t = base_ev[t]
            else:
                after = np.append(after, 1.0)
                before_t = 0.0
            after[s] -= 1
            prior = log_prior([int(c) for c in after if c > 0], alpha)
            gain = (src_ev - base_ev[s]) + (tgt_ev[j] - before_t) + (prior - base_prior)
            best = max(best, float(gain))
    return best


def interval_split_optimum(x: np.ndarray, hp):
    """Best exact ICL over the single group and every two-group interval split of 1-d data.

    One group of each candidate is a contiguous run of the sorted data, which
    covers threshold splits and tails-versus-middle splits. Returns the best
    ICL and its K.
    """
    v = np.sort(np.asarray(x, dtype=float).ravel())
    n = v.size
    best, best_k = icl(v, np.ones(n, dtype=int), hp), 1
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            labels = np.ones(n, dtype=int)
            labels[i:j] = 2
            value = icl(v, labels, hp)
            if value > best:
                best, best_k = value, 2
    return best, best_k


def _mvt_logpdf(x, loc, scale, dof):
    b = x.size
    sign, logdet = np.linalg.slogdet(scale)
    r = x - loc
    maha = float(r @ np.linalg.solve(scale, r))
    return (math.lgamma((dof + b) / 2.0) - math.lgamma(dof / 2.0)
            - 0.5 * b * math.log(dof * math.pi) - 0.5 * logdet
            - 0.5 * (dof + b) * math.log1p(maha / dof))


def chain_rule_evidence(rows: np.ndarray, hp) -> float:
    """Log evidence as a sum of sequential Student-t posterior predictive densities."""
    rows = np.asarray(rows, dtype=float)
    total = 0.0
    for m in range(rows.shape[0]):
        seen = rows[:m]
        x = rows[m]
        kappa = hp["tau"] + m
        if hp["family"] == "uv":
            mean = seen.mean() if m else 0.0
            ss = float(((seen - mean) ** 2).sum()) if m else 0.0
            loc = (hp["tau"] * hp["mu"] + m * mean) / kappa
            shape = hp["gamma"] + 0.5 * m
            rate = hp["delta"] + 0.5 * ss + 0.5 * hp["tau"] * m / kappa * (mean - hp["mu"]) ** 2
            scale = np.array([[rate * (kappa + 1) / (shape * kappa)]])
            total += _mvt_logpdf(np.atleast_1d(x), np.atleast_1d(loc), scale, 2.0 * shape)
            continue
        mu = np.asarray(hp["mu"], dtype=float)
        b = mu.size
        if m:
            mean, (_, _, scat) = seen.mean(axis=0), group_stats(seen)
        else:
            mean, scat = np.zeros(b), np.zeros((b, b))
        d = mean - mu
        psi = hp["omega"] * np.eye(b) + scat + hp["tau"] * m / kappa * np.outer(d, d)
        dof = hp["nu"] + m - b + 1
        loc = (hp["tau"] * mu + m * mean) / kappa
        total += _mvt_logpdf(x, loc, psi * (kappa + 1) / (kappa * dof), dof)
    return total


def self_test() -> float:
    """Largest disagreement between the closed forms and the chain rule on small groups."""
    rng = np.random.default_rng(20141115)
    worst = 0.0
    cases = [
        {"family": "uv", "alpha": 0.5, "tau": 0.01, "mu": 0.3, "gamma": 1.0, "delta": 0.1},
        {"family": "mv", "alpha": 4.0, "tau": 0.1, "mu": [0.5, -1.0], "nu": 3.0, "omega": 1.0},
        {"family": "mv", "alpha": 4.0, "tau": 0.001, "mu": [0.0, 0.2, 1.0], "nu": 4.5, "omega": 0.5},
    ]
    for hp in cases:
        b = 1 if hp["family"] == "uv" else len(hp["mu"])
        for m in (1, 2, 3, 6):
            rows = rng.normal(size=(m, b)) * 1.7 + 0.4
            n, mean, scat = group_stats(rows)
            closed = float(log_evidence_batch([n], [mean], [scat], hp)[0])
            worst = max(worst, abs(closed - chain_rule_evidence(rows, hp)) / max(1.0, abs(closed)))
    return worst
