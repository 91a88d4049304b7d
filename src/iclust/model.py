"""Core domain types for collapsed Gaussian mixture clustering.

Holds the fixed inputs (data, prior hyperparameters), the allocation vector
that the search optimises over, and the per-group sufficient statistics
(count, mean, centred scatter) that make incremental objective updates cheap.

Everything except ClusterState is immutable after construction and can be
shared freely across concurrent restarts. A ClusterState is owned and mutated
by exactly one search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np


class NumericalError(RuntimeError):
    """A positive definite factorization failed on supposedly valid input.

    The posterior scale matrix is positive definite whenever the prior scale
    matrix is, so this error signals catastrophic numerical input or a bug,
    never an expected condition. It is raised instead of letting NaNs leak
    into the objective.
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
        k = int(labels.max())
        missing = np.flatnonzero(np.bincount(labels)[1:] == 0) + 1
        if missing.size:
            raise ValueError(f"allocation is not compact, missing group(s) {missing.tolist()}")
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
    xi      optional full positive definite inverse scale matrix; when given
            it overrides omega. Kept as a validated input path only, the
            command line exposes omega alone.
    """

    alpha: float
    tau: float
    mu: np.ndarray
    nu: float
    omega: float = 1.0
    xi: Optional[np.ndarray] = None

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
        if self.xi is not None:
            xi = np.asarray(self.xi, dtype=float)
            if xi.shape != (b, b):
                raise ValueError(f"xi must be a {b}x{b} matrix")
            if not np.allclose(xi, xi.T, rtol=0.0, atol=1e-12):
                raise ValueError("xi must be symmetric")
            xi = 0.5 * (xi + xi.T)
            try:
                chol = np.linalg.cholesky(xi)
            except np.linalg.LinAlgError:
                raise ValueError("xi must be positive definite") from None
            logdet = 2.0 * float(np.sum(np.log(np.diagonal(chol))))
            xi.setflags(write=False)
            object.__setattr__(self, "xi", xi)
            object.__setattr__(self, "_scale", xi)
        else:
            scale = np.eye(b) * self.omega
            scale.setflags(write=False)
            logdet = b * float(np.log(self.omega))
            object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_logdet_scale", logdet)

    @property
    def b(self) -> int:
        return int(self.mu.size)

    def scale_matrix(self) -> np.ndarray:
        """Inverse scale matrix of the precision prior (omega * I unless xi set)."""
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
    evidence all zero) that stands for a fresh group. Construction and all
    score-bearing mutations live in the icl module; this class is the
    container.

    A full rebuild of the cached statistics is triggered every
    ``refresh_interval`` accepted moves to bound floating point drift.
    """

    refresh_interval = 1000

    def __init__(self, data, params, count_terms, labels, counts, means, scatters,
                 group_evidence, icl):
        self.data = data
        self.params = params
        self.count_terms = count_terms  # icl._count_terms(params, 2 n), read-only
        self.labels = labels            # (n,) int64, values 1..K
        self.counts = counts            # (K + 1,) int64
        self.means = means              # (K + 1, b)
        self.scatters = scatters        # (K + 1, b, b)
        self.group_evidence = group_evidence  # (K + 1,) cached per-group log evidence
        self.icl = float(icl)
        self.accepted_moves = 0

    @property
    def k(self) -> int:
        return int(self.counts.size) - 1
