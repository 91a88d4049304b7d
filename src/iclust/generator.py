"""Sampling synthetic datasets from the hierarchical mixture model.

The draw order follows the model hierarchy: mixture weights from a symmetric
Dirichlet, allocations from the weights, one precision matrix per component
from a Wishart (the univariate Gamma prior as its 1x1 Wishart), component
centres conditionally on their own precision, then the observations.
Components that end up with zero observations are dropped and the labels
compacted, so the returned allocation is always compact with K no larger than
requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Allocation, DataSet, HyperParams, validate_hyperparams


@dataclass(frozen=True)
class GeneratedSample:
    """A dataset plus the latent quantities it was generated from.

    weights, centres and precisions cover the realised components only, in
    the order of their component numbers, which the labels 1..K follow; the
    weights are renormalised after empty components are dropped so they stay
    a simplex.
    """

    data: DataSet
    allocation: Allocation
    weights: np.ndarray
    centres: np.ndarray
    precisions: np.ndarray


def _wishart_root(nu: float, scale_root: np.ndarray, rng) -> np.ndarray:
    """Lower-triangular factor W with W W^t distributed Wishart(nu, scale).

    Bartlett construction: chi-square (gamma) draws on the diagonal and
    standard normals below it, premultiplied by a square root of the scale
    matrix. Valid for any nu > b - 1, integer or not.
    """
    b = scale_root.shape[0]
    a = np.zeros((b, b))
    for i in range(b):
        a[i, i] = np.sqrt(rng.gamma(shape=0.5 * (nu - i), scale=2.0))
        for j in range(i):
            a[i, j] = rng.standard_normal()
    return scale_root @ a


def _compact_sample(data_values, z_raw, lam, centres, precisions):
    """The sample with its realised components ranked 1..K by component number."""
    realised, ranks = np.unique(z_raw, return_inverse=True)
    order = realised - 1
    weights = lam[order]
    weights = weights / weights.sum()
    return GeneratedSample(
        data=DataSet(data_values),
        allocation=Allocation(ranks + 1),
        weights=weights,
        centres=centres[order],
        precisions=precisions[order],
    )


def sample_dataset(n: int, K: int, params: HyperParams, rng) -> GeneratedSample:
    """Draw n observations from a K-component mixture.

    A univariate prior is drawn as its 1x1 Wishart, in the same order: one
    gamma, one centre normal and the member normals per component.
    """
    if n < 1 or K < 1:
        raise ValueError("n and K must be at least 1")
    # a univariate prior has no b attribute and is 1-d; any other object
    # without one is rejected by validate_hyperparams with a TypeError
    params = validate_hyperparams(params, getattr(params, "b", 1))
    b = params.b
    lam = rng.dirichlet(np.full(K, params.alpha))
    z_raw = rng.choice(K, size=n, p=lam) + 1

    # xi = omega I is the inverse scale of the precision prior, so the Bartlett
    # factor uses xi^{-1}'s square root I / sqrt(omega)
    scale_root = np.eye(b) / np.sqrt(params.omega)

    centres = np.empty((K, b))
    precisions = np.empty((K, b, b))
    values = np.empty((n, b))
    sqrt_tau = np.sqrt(params.tau)
    for g in range(K):
        w = _wishart_root(params.nu, scale_root, rng)
        precisions[g] = w @ w.T
        centres[g] = params.mu + np.linalg.solve(w.T, rng.standard_normal(b)) / sqrt_tau
        members = np.flatnonzero(z_raw == g + 1)
        if members.size:
            noise = rng.standard_normal((members.size, b))
            values[members] = centres[g] + np.linalg.solve(w.T, noise.T).T
    return _compact_sample(values, z_raw, lam, centres, precisions)
