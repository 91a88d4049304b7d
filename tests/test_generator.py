import math

import numpy as np
import pytest
from scipy.stats import chi2

from iclust import MvHyperParams, UvHyperParams, sample_dataset
from iclust.icl import allocation_log_prior

from oracles import dm_count_log_pmf


def mv_params(**kw):
    defaults = dict(alpha=4.0, tau=0.1, mu=np.zeros(2), nu=3.0, omega=1.0)
    defaults.update(kw)
    return MvHyperParams(**defaults)


class TestSampleDataset:
    def test_shapes_and_compactness(self):
        sample = sample_dataset(40, 5, mv_params(), np.random.default_rng(0))
        assert sample.data.n == 40 and sample.data.b == 2
        assert len(sample.allocation) == 40
        assert sample.allocation.K <= 5
        k = sample.allocation.K
        assert sample.weights.shape == (k,)
        assert sample.centres.shape == (k, 2)
        assert sample.precisions.shape == (k, 2, 2)

    def test_weights_are_simplex(self):
        sample = sample_dataset(30, 4, mv_params(), np.random.default_rng(1))
        assert sample.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(sample.weights > 0)

    def test_empty_component_is_dropped_and_the_rest_keep_their_order(self):
        # component 2 draws no observation; labels and parameters of 1 and 3
        # are ranked by component number, not by first appearance
        from iclust.generator import _compact_sample

        lam = np.array([0.2, 0.3, 0.5])
        centres = np.array([[1.0], [2.0], [3.0]])
        precisions = np.array([[[1.0]], [[2.0]], [[3.0]]])
        sample = _compact_sample(np.zeros((3, 1)), np.array([3, 1, 3]), lam, centres, precisions)
        assert sample.allocation.labels.tolist() == [2, 1, 2]
        assert sample.centres.tolist() == [[1.0], [3.0]]
        assert sample.precisions.tolist() == [[[1.0]], [[3.0]]]
        assert sample.weights.tolist() == [0.2 / 0.7, 0.5 / 0.7]

    def test_fixed_seed_reproducible(self):
        a = sample_dataset(25, 3, mv_params(), np.random.default_rng(42))
        b = sample_dataset(25, 3, mv_params(), np.random.default_rng(42))
        assert np.array_equal(a.data.values, b.data.values)
        assert np.array_equal(a.allocation.labels, b.allocation.labels)
        assert np.array_equal(a.precisions, b.precisions)

    def test_precisions_positive_definite(self):
        for seed in range(5):
            sample = sample_dataset(20, 4, mv_params(nu=2.5), np.random.default_rng(seed))
            for prec in sample.precisions:
                np.linalg.cholesky(prec)  # raises if not PD

    def test_law_of_large_numbers_single_component(self):
        # all K=1 observations share one centre draw, so tau is taken large
        # enough to pin that centre at mu; the sample mean then converges to
        # mu at the usual sd / sqrt(n) rate
        mu = np.array([1.5, -2.0])
        params = mv_params(mu=mu, tau=1e6, nu=6.0)
        sample = sample_dataset(5000, 1, params, np.random.default_rng(3))
        x = sample.data.values
        se = x.std(axis=0, ddof=1) / math.sqrt(5000)
        assert np.all(np.abs(x.mean(axis=0) - mu) < 4 * se)

    def test_fractional_degrees_of_freedom(self):
        # nu in the open interval (b - 1, b) is valid and must sample fine
        params = mv_params(nu=1.7)
        sample = sample_dataset(15, 2, params, np.random.default_rng(9))
        for prec in sample.precisions:
            np.linalg.cholesky(prec)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_dataset(0, 3, mv_params(), np.random.default_rng(0))
        # a univariate prior samples through its 1x1 Wishart form
        sample = sample_dataset(10, 3, UvHyperParams(alpha=1, tau=1, mu=0, gamma=1, delta=1),
                                np.random.default_rng(0))
        assert sample.data.b == 1
        # an object of neither prior type, with or without a b attribute
        for bad in (object(), sample.data):
            with pytest.raises(TypeError):
                sample_dataset(10, 3, bad, np.random.default_rng(0))


class TestSampleDataset1d:
    PARAMS = UvHyperParams(alpha=4.0, tau=0.1, mu=0.0, gamma=0.5, delta=0.5)

    def test_shapes(self):
        sample = sample_dataset(30, 3, self.PARAMS, np.random.default_rng(0))
        assert sample.data.b == 1
        assert sample.allocation.K <= 3
        assert sample.precisions.shape[1:] == (1, 1)
        assert np.all(sample.precisions > 0)

    def test_reproducible(self):
        a = sample_dataset(20, 3, self.PARAMS, np.random.default_rng(5))
        b = sample_dataset(20, 3, self.PARAMS, np.random.default_rng(5))
        assert np.array_equal(a.data.values, b.data.values)

    def test_matches_gamma_precision_sampler(self):
        # frozen output of the former Gamma(gamma, rate delta) sampler with the
        # same draw order; the 1x1 Bartlett factor reproduces its labels and
        # weights exactly and its reals to the last bits
        sample = sample_dataset(20, 3, self.PARAMS, np.random.default_rng(5))
        assert sample.allocation.labels.tolist() == [
            2, 1, 1, 3, 3, 2, 2, 3, 3, 3, 2, 3, 3, 1, 3, 2, 3, 1, 3, 3]
        assert sample.weights.tolist() == [
            0.19712939194206058, 0.2710594694881846, 0.5318111385697549]
        values = [
            -3.796014765943606, -10.185958178843638, -13.658255499804032, -0.1784745700945375,
            0.6613007945414958, -4.223322543210322, -1.6647947025257597, 0.6691265242013836,
            -0.8346756883137773, 0.4640957527018857, -3.8251967178093755, 0.44754295505287045,
            1.3487538142338722, -9.582973659521238, -0.23747790492679843, -0.13370416095214566,
            1.183015994400216, -9.765183104627491, -0.1764440070417529, 0.3916694755438952]
        np.testing.assert_allclose(sample.data.values[:, 0], values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sample.centres[:, 0],
                                   [-9.64733408909488, -2.0287963256031922, 0.6368372072218121],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(sample.precisions[:, 0, 0],
                                   [0.10334742376266083, 0.3813562289115484, 1.8259646959510032],
                                   rtol=1e-12, atol=0)


def test_group_sizes_match_dirichlet_multinomial():
    """Chi-square goodness of fit of generated group sizes at the 0.1% level.

    The reference pmf comes from the allocation prior itself (multiplied by
    the multinomial coefficient and aggregated over label permutations), so
    it also cross-validates the prior computation against an enumeration
    that allows empty components.
    """
    n, K, alpha = 50, 3, 4.0
    reps = 2000
    params = mv_params(alpha=alpha)
    rng = np.random.default_rng(2024)

    # exact pmf of the sorted component size multiset, by enumeration of all
    # ordered count vectors; cross-check the nonzero vectors against
    # allocation_log_prior
    pmf = {}
    for c1 in range(n + 1):
        for c2 in range(n - c1 + 1):
            counts = (c1, c2, n - c1 - c2)
            logp = dm_count_log_pmf(counts, alpha, K, n)
            if all(c > 0 for c in counts):
                log_coeff = (math.lgamma(n + 1)
                             - sum(math.lgamma(c + 1) for c in counts))
                assert logp == pytest.approx(
                    log_coeff + allocation_log_prior(list(counts), alpha, n), abs=1e-10)
            key = tuple(sorted(counts, reverse=True))
            pmf[key] = pmf.get(key, 0.0) + math.exp(logp)
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-10)

    observed = {}
    for _ in range(reps):
        sample = sample_dataset(n, K, params, rng)
        sizes = np.bincount(sample.allocation.labels)[1:]
        key = tuple(sorted(np.pad(sizes, (0, K - sizes.size)).tolist(), reverse=True))
        observed[key] = observed.get(key, 0) + 1

    # bins with expected count >= 8, everything else lumped together
    items = sorted(pmf.items(), key=lambda kv: kv[1], reverse=True)
    bins = [key for key, p in items if p * reps >= 8]
    p_rest = 1.0 - sum(pmf[k] for k in bins)
    stat = 0.0
    rest_obs = reps - sum(observed.get(k, 0) for k in bins)
    for key in bins:
        exp = pmf[key] * reps
        obs = observed.get(key, 0)
        stat += (obs - exp) ** 2 / exp
    if p_rest > 0:
        exp = p_rest * reps
        stat += (rest_obs - exp) ** 2 / exp
        dof = len(bins)
    else:
        dof = len(bins) - 1
    threshold = chi2.ppf(0.999, dof)
    assert stat < threshold, f"chi-square {stat:.1f} exceeds {threshold:.1f} (dof={dof})"
