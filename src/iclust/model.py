"""Core domain types for collapsed Gaussian mixture clustering.

Holds the fixed inputs (data, prior hyperparameters), the allocation vector
that the search optimises over, and the per-group sufficient statistics
(count, mean, centred scatter) that make incremental objective updates cheap.

Everything except ClusterState is immutable after construction and is
shared by the restarts, which run one after another. A ClusterState is owned
and mutated by exactly one search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np


class NumericalError(RuntimeError):
    """A positive definite factorization failed, or the exact ICL is not finite.

    The posterior scale matrix is positive definite whenever the prior scale
    matrix is, so this error signals catastrophic numerical input, such as
    values whose squares overflow, or a bug, never an expected condition. It
    is raised instead of letting NaNs leak into the objective.
    """


def _require_positive(value: float, name: str) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be strictly positive, got {value!r}")


def as_integers(values, what: str) -> np.ndarray:
    """values as an integer array, or ValueError("<what> must be integers")."""
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        as_int = arr.astype(np.int64)
        if not np.array_equal(as_int, arr):
            raise ValueError(f"{what} must be integers")
        arr = as_int
    return arr


@dataclass(frozen=True)
class DataSet:
    """n observations in b dimensions, the fixed clustering input."""

    values: np.ndarray
    n: int = field(init=False)
    b: int = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("data must be a non-empty 2-d matrix of reals")
        if not np.all(np.isfinite(values)):
            raise ValueError("data contains NaN or infinite entries")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", int(values.shape[0]))
        object.__setattr__(self, "b", int(values.shape[1]))


@dataclass(frozen=True)
class Allocation:
    """Compact label vector: integer labels 1..K with every group nonempty."""

    labels: np.ndarray
    K: int = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-d vector")
        labels = as_integers(labels, "labels").astype(np.int64, copy=True)
        if int(labels.min()) < 1:
            raise ValueError("labels must be >= 1")
        k, n = int(labels.max()), labels.size
        # K <= n when compact, so a missing label shows among 1..n and
        # counting those alone bounds the work by n
        low = labels <= n
        counts = np.bincount(labels[low], minlength=n + 1)[1:]
        missing = (np.flatnonzero(counts[:k] == 0) + 1)[:10]
        if missing.size:
            more = k - np.count_nonzero(counts) - np.unique(labels[~low]).size - missing.size
            raise ValueError(f"allocation is not compact, missing group(s) {missing.tolist()}"
                             + (f" and {more} more" if more else ""))
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "K", k)

    def __len__(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True)
class MvHyperParams:
    """Symmetric prior constants for the multivariate model.

    alpha   Dirichlet weight shared by all groups.
    tau     precision scale tying a group centre to its own covariance.
    mu      prior centre location, length b.
    nu      Wishart degrees of freedom, must exceed b - 1.
    omega   diagonal entry of the Wishart inverse scale matrix (omega * I).

    A full positive definite inverse scale xi = L L^t is this model at
    omega = 1 on whitened data: for every allocation z,
    ICL_ex(z; x, mu, xi) = ICL_ex(z; L^-1 x, L^-1 mu, omega = 1) - (n / 2) log|xi|,
    as the evidence reads xi only in log|xi| and log|xi + S_g + c_g d d^t|
    (icl's module docstring). So map the rows and mu by L^-1 to use one.
    """

    alpha: float
    tau: float
    mu: np.ndarray
    nu: float
    omega: float = 1.0

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if mu.ndim != 1 or mu.size < 1 or not np.all(np.isfinite(mu)):
            raise ValueError("mu must be a finite real vector")
        mu = mu.copy()
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        _require_positive(self.alpha, "alpha")
        _require_positive(self.tau, "tau")
        _require_positive(self.omega, "omega")
        b = mu.size
        if not (np.isfinite(self.nu) and self.nu > b - 1):
            raise ValueError(f"nu must exceed b - 1 = {b - 1}, got {self.nu!r}")
        scale = np.eye(b) * self.omega
        scale.setflags(write=False)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_logdet_scale", b * float(np.log(self.omega)))

    @property
    def b(self) -> int:
        return int(self.mu.size)

    def scale_matrix(self) -> np.ndarray:
        """Read-only inverse scale matrix of the precision prior, omega * I."""
        return self._scale

    @property
    def log_det_scale(self) -> float:
        return self._logdet_scale


@dataclass(frozen=True)
class UvHyperParams:
    """Symmetric prior constants for the univariate model.

    The group precision prior is Gamma(gamma, delta) with rate delta, in
    place of the multivariate Wishart. That is the 1x1 Wishart with nu =
    2 gamma and inverse scale xi = 2 delta, which is how validate_hyperparams
    hands it to the evidence and the sampler.
    """

    alpha: float
    tau: float
    mu: float
    gamma: float
    delta: float

    def __post_init__(self):
        _require_positive(self.alpha, "alpha")
        _require_positive(self.tau, "tau")
        _require_positive(self.gamma, "gamma")
        _require_positive(self.delta, "delta")
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")


HyperParams = Union[MvHyperParams, UvHyperParams]


def validate_hyperparams(params: HyperParams, b: int) -> MvHyperParams:
    """Check the prior against the data dimension b; return its Wishart form.

    Positivity constraints are already enforced at construction; this adds
    the dimension dependent ones. Multivariate parameters come back
    unchanged. Univariate ones come back as the 1x1 Normal-Wishart with
    nu = 2 gamma and omega = 2 delta, which has the same group evidence and
    the same sampling law; doubling is exact in binary.
    """
    if isinstance(params, MvHyperParams):
        if params.b != b:
            raise ValueError(f"mu has length {params.b} but the data has b = {b}")
        return params
    if isinstance(params, UvHyperParams):
        if b != 1:
            raise ValueError(f"univariate hyperparameters require 1-d data, got b = {b}")
        return MvHyperParams(alpha=params.alpha, tau=params.tau, mu=[params.mu],
                             nu=2.0 * params.gamma, omega=2.0 * params.delta)
    raise TypeError(f"unsupported hyperparameter type {type(params).__name__}")


@dataclass
class GroupStats:
    """Count, mean and centred scatter matrix of one group's members.

    The scatter is sum_i (x_i - mean)(x_i - mean)^t over the members. It is
    exactly zero while the group has at most one member, and the mean is the
    zero vector for an empty group.
    """

    n: int
    mean: np.ndarray
    scatter: np.ndarray

    @classmethod
    def empty(cls, b: int) -> "GroupStats":
        return cls(0, np.zeros(b), np.zeros((b, b)))

    @classmethod
    def from_points(cls, rows: np.ndarray) -> "GroupStats":
        """Two-pass mean and scatter over a matrix of member rows."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        m, b = rows.shape
        if m == 0:
            return cls.empty(b)
        # ndarray.mean's own sum and division, without its Python dispatch
        mean = np.add.reduce(rows, axis=0) / m
        if m == 1:
            return cls(1, mean, np.zeros((b, b)))
        centred = rows - mean
        return cls(m, mean, centred.T @ centred)


def stats_downdate(total: GroupStats, part: GroupStats) -> GroupStats:
    """Statistics of total minus part, a non-empty subset of total."""
    if part.n > total.n:
        raise ValueError("cannot remove more observations than the group holds")
    n = total.n - part.n
    bdim = total.mean.size
    if n == 0:
        return GroupStats.empty(bdim)
    mean = (total.n * total.mean - part.n * part.mean) / n
    if n == 1:
        return GroupStats(1, mean, np.zeros((bdim, bdim)))
    d = part.mean - mean
    scatter = total.scatter - part.scatter - d[:, None] * d[None, :] * (n * part.n / total.n)
    return GroupStats(n, mean, scatter)


class ClusterState:
    """Single-owner mutable search state.

    Keeps the compact label vector together with stacked per-group sufficient
    statistics and cached evidences, so a reallocation only has to touch the
    source group, the target group and the allocation prior. The K + 1 rows
    are groups 1..K and then one spare empty row (count, mean, scatter and
    evidence all zero) that stands for a fresh group. The statistics are
    those of the data relative to the prior mean mu, which is all the
    evidence reads, so shifting the data and mu together by an exactly
    representable amount changes no bit. icl.refresh_state builds the caches
    from the labels, and the score-bearing mutations live in the icl module
    too; this class is the container.
    """

    def __init__(self, data, params, count_terms, labels):
        self.data = data
        self.params = params
        self.count_terms = count_terms  # icl._count_terms(params, n), read-only
        self.labels = labels            # (n,) int64, values 1..K
        # (b, n) x - mu, b-major for the block sums; + 0.0 turns -0.0 into 0.0
        self.columns = np.ascontiguousarray((data.values - params.mu).T) + 0.0
        # the caches, set by icl.refresh_state
        self.counts = None              # (K + 1,) int64
        self.means = None               # (K + 1, b), relative to mu
        self.scatters = None            # (K + 1, b, b)
        self.group_evidence = None      # (K + 1,) cached per-group log evidence
        self.icl = None

    @property
    def k(self) -> int:
        return int(self.counts.size) - 1
