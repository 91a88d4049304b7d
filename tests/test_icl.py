import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iclust import (
    Allocation,
    DataSet,
    MvHyperParams,
    UvHyperParams,
    allocation_log_prior,
    icl_exact,
    make_state,
    relabel_compact,
    validate_hyperparams,
)
from iclust.icl import (_batch_evidence, _batch_logdet_spd, _block_stats, _count_terms,
                        apply_move, best_move, best_moves, refresh_state)
from iclust.model import GroupStats, NumericalError, stats_downdate

from oracles import (
    enumerate_label_vectors,
    group_evidence,
    icl_delta,
    mv_evidence_chain_rule,
    mv_predictive_logpdf,
    mvt_logpdf,
    uv_evidence_quadrature,
    uv_log_evidence,
    uv_predictive_logpdf,
)


class TestGroupEvidence:
    def test_empty_group_is_zero(self, small_data, mv_params):
        # the state's spare row is an empty group
        up = UvHyperParams(alpha=1.0, tau=0.5, mu=0.0, gamma=0.5, delta=0.5)
        for data, params in ((small_data, mv_params), (DataSet(small_data.values[:, 0]), up)):
            state = make_state(data, np.ones(12, dtype=int), params)
            assert state.counts[-1] == 0 and state.group_evidence[-1] == 0.0

    def test_single_observation_at_mu(self, mv_params):
        # predictive is a bivariate t with 2 df, centre mu, identity scale
        ev = group_evidence(np.zeros((1, 2)), mv_params)
        assert ev == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_single_observation_student_t_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            b = int(rng.integers(1, 4))
            params = MvHyperParams(
                alpha=float(rng.uniform(0.5, 8.0)),
                tau=float(rng.uniform(0.05, 4.0)),
                mu=rng.normal(size=b),
                nu=float(b - 1 + rng.uniform(0.5, 6.0)),
                omega=float(rng.uniform(0.2, 5.0)),
            )
            x = rng.normal(size=b)
            ev = group_evidence(x[None, :], params)
            df = params.nu - b + 1
            scale = params.scale_matrix() * (params.tau + 1) / (params.tau * df)
            assert ev == pytest.approx(mvt_logpdf(x, params.mu, scale, df), abs=1e-10)

    def test_three_point_group_chain_rule_tight(self):
        rng = np.random.default_rng(77)
        params = MvHyperParams(alpha=1.0, tau=0.5, mu=np.zeros(2), nu=3.0, omega=1.0)
        rows = rng.normal(size=(3, 2))
        ev = group_evidence(rows, params)
        assert ev == pytest.approx(mv_evidence_chain_rule(params, rows), abs=1e-10)

    def test_chain_rule_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            b = int(rng.integers(1, 4))
            m = int(rng.integers(2, 11))
            params = MvHyperParams(
                alpha=2.0,
                tau=float(rng.uniform(0.05, 3.0)),
                mu=rng.normal(size=b),
                nu=float(b + rng.uniform(0.2, 5.0)),
                omega=float(rng.uniform(0.3, 3.0)),
            )
            rows = rng.normal(size=(m, b))
            ev = group_evidence(rows, params)
            assert ev == pytest.approx(mv_evidence_chain_rule(params, rows), abs=1e-9)

    def test_incremental_predictive(self):
        # evidence(first j) - evidence(first j-1) equals the one-point predictive
        rng = np.random.default_rng(8)
        params = MvHyperParams(alpha=1.0, tau=0.7, mu=np.array([0.2, -0.4]),
                               nu=4.2, omega=1.3)
        rows = rng.normal(size=(6, 2))
        for j in range(1, 7):
            whole = group_evidence(rows[:j], params)
            prefix = group_evidence(rows[:j - 1], params) if j > 1 else 0.0
            pred = mv_predictive_logpdf(params, rows[:j - 1], rows[j - 1])
            assert whole - prefix == pytest.approx(pred, abs=1e-9)


class TestUnivariateEvidence:
    def test_single_observation_at_mu(self):
        params = UvHyperParams(alpha=1.0, tau=1.0, mu=0.0, gamma=0.5, delta=0.5)
        expected = -math.log(math.pi * math.sqrt(2.0))
        assert group_evidence(np.zeros((1, 1)), params) == pytest.approx(expected, abs=1e-12)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            params = UvHyperParams(
                alpha=1.0,
                tau=float(rng.uniform(0.5, 2.0)),
                mu=float(rng.uniform(-0.5, 0.5)),
                gamma=float(rng.uniform(0.8, 2.5)),
                delta=float(rng.uniform(0.5, 2.0)),
            )
            m = int(rng.integers(1, 5))
            xs = rng.normal(size=m)
            ev = group_evidence(xs[:, None], params)
            assert ev == pytest.approx(uv_evidence_quadrature(params, xs), abs=1e-6)

    def test_uv_chain_rule(self):
        rng = np.random.default_rng(10)
        params = UvHyperParams(alpha=1.0, tau=0.3, mu=0.1, gamma=1.5, delta=0.8)
        xs = rng.normal(size=7)
        whole = group_evidence(xs[:, None], params)
        chain = math.fsum(uv_predictive_logpdf(params, xs[:j], xs[j]) for j in range(7))
        assert whole == pytest.approx(chain, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
        step=st.sampled_from([1e-3, 0.1, 1.0, 30.0]),
        offset=st.floats(-50.0, 50.0),
        mu=st.floats(-5.0, 5.0),
        log_tau=st.floats(-3.0, 1.0),
        log_gamma=st.floats(-2.0, 2.0),
        log_delta=st.floats(-2.0, 2.0),
    )
    def test_matches_normal_gamma_closed_form(self, cells, step, offset, mu,
                                              log_tau, log_gamma, log_delta):
        # integer cells make duplicate points common; the offset moves the
        # data away from mu
        params = UvHyperParams(alpha=1.0, tau=10.0 ** log_tau, mu=mu,
                               gamma=10.0 ** log_gamma, delta=10.0 ** log_delta)
        rows = offset + step * np.array(cells, dtype=float)[:, None]
        stats = GroupStats.from_points(rows)
        ev = group_evidence(rows, params)
        ref = uv_log_evidence(params, stats.n, float(stats.mean[0]), float(stats.scatter[0, 0]))
        assert abs(ev - ref) <= 1e-12 * max(1.0, abs(ref))


class TestFullScaleMatrix:
    def test_full_xi_chain_rule(self):
        # a full inverse scale xi = L L^t is the omega = 1 model on rows and
        # mu mapped by L^-1, less the Jacobian (n_g / 2) log|xi|; the oracle
        # takes xi itself and exercises the general factorization branch
        for b in (2, 3):
            rng = np.random.default_rng(21 + b)
            a = rng.normal(size=(b, b))
            xi = a @ a.T + 3.0 * np.eye(b)
            assert np.count_nonzero(xi - np.diag(np.diag(xi))) == b * (b - 1)
            chol = np.linalg.cholesky(xi)
            log_det_xi = 2.0 * float(np.log(np.diag(chol)).sum())
            mu = rng.normal(size=b)
            params = MvHyperParams(alpha=1.0, tau=0.4, mu=mu, nu=b + 1.5)
            white = MvHyperParams(alpha=1.0, tau=0.4, mu=np.linalg.solve(chol, mu), nu=b + 1.5,
                                  omega=1.0)
            rows = rng.normal(size=(6, b))
            rows_white = np.linalg.solve(chol, rows.T).T
            ev = group_evidence(rows_white, white) - 3.0 * log_det_xi
            assert ev == pytest.approx(mv_evidence_chain_rule(params, rows, xi), abs=1e-9)

            # the same identity over a whole allocation, with n / 2
            x = rng.normal(size=(40, b))
            z = relabel_compact(rng.integers(1, 5, size=40))
            assert z.K > 1
            labels = z.labels
            oracle = math.fsum(mv_evidence_chain_rule(params, x[labels == g], xi)
                               for g in range(1, z.K + 1))
            oracle += allocation_log_prior(np.bincount(labels)[1:], params.alpha, 40)
            value = icl_exact(DataSet(np.linalg.solve(chol, x.T).T), z, white).total
            assert value - 20.0 * log_det_xi == pytest.approx(oracle, abs=1e-9)

    def test_non_pd_posterior_raises_numerical_error(self):
        # a corrupted scatter (impossible through the public API) is flagged
        # with a NaN evidence, and a state build that meets a flagged row
        # raises NumericalError, never scores NaN
        for params, b in ((MvHyperParams(alpha=1.0, tau=1.0, mu=np.zeros(2), nu=3.0, omega=1.0), 2),
                          (UvHyperParams(alpha=1.0, tau=1.0, mu=0.0, gamma=1.0, delta=0.5), 1)):
            wishart = validate_hyperparams(params, b)
            scatters = np.stack([-10.0 * np.eye(b), np.zeros((b, b))])
            evidence, bad = _batch_evidence(np.array([3, 0]), np.zeros((2, b)), scatters, wishart,
                                            _count_terms(wishart, 3))
            assert bad.tolist() == [True, False]
            assert math.isnan(evidence[0]) and evidence[1] == 0.0
            state = make_state(DataSet(np.arange(3.0 * b).reshape(3, b)), [1, 1, 1], params)
            state.columns[:] = np.nan
            with pytest.raises(NumericalError, match="positive definite"):
                refresh_state(state)


class TestGalaxyAnchor:
    """Frozen values of the benchmark optimum on the shipped dataset."""

    def test_canonical_three_group_partition(self, galaxy_standardized):
        order = np.argsort(galaxy_standardized.values[:, 0])
        labels = np.empty(82, dtype=int)
        labels[order[:7]] = 1
        labels[order[7:79]] = 2
        labels[order[79:]] = 3
        params = UvHyperParams(alpha=0.5, tau=0.01, mu=0.0, gamma=1.0, delta=0.1)
        value = icl_exact(galaxy_standardized, labels, params)
        assert value.total == pytest.approx(-101.84948170032298, abs=1e-9)
        assert value.data_term == pytest.approx(-60.903055901647136, abs=1e-9)
        assert value.prior_term == pytest.approx(-40.94642579867585, abs=1e-9)


class TestAllocationPrior:
    def test_single_group_certainty(self):
        for n in (1, 5, 40):
            for alpha in (0.3, 1.0, 9.0):
                assert allocation_log_prior([n], alpha, n) == pytest.approx(0.0, abs=1e-12)

    def test_two_singletons(self):
        assert allocation_log_prior([1, 1], 1.0, 2) == pytest.approx(-math.log(6.0), abs=1e-12)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            allocation_log_prior([2, 0], 1.0, 2)

    def test_counts_must_sum_to_n(self):
        with pytest.raises(ValueError, match="sum"):
            allocation_log_prior([2, 1], 1.0, 4)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        # lgamma(inf) - lgamma(inf) would make the prior NaN
        with pytest.raises(ValueError, match="alpha"):
            allocation_log_prior([1, 2], alpha, 3)

    def test_exhaustive_normalization_small(self):
        # over raw label vectors, using the convention that unused labels
        # contribute lgamma(alpha) - lgamma(alpha) = 0
        n, K, alpha = 3, 2, 0.5
        total = 0.0
        for z in enumerate_label_vectors(n, K):
            counts = [z.count(g) for g in range(1, K + 1)]
            nonzero = [c for c in counts if c > 0]
            kp = len(nonzero)
            val = allocation_log_prior(nonzero, alpha, n)
            val += (
                math.lgamma(K * alpha) - math.lgamma(K * alpha + n)
                - math.lgamma(kp * alpha) + math.lgamma(kp * alpha + n)
            )
            total += math.exp(val)
        assert total == pytest.approx(1.0, abs=1e-12)


@st.composite
def icl_cases(draw):
    """Data with b in 1..3, a random compact allocation and a Normal-Wishart
    or (at b = 1) Normal-Gamma prior."""
    b = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    cells = draw(st.lists(st.floats(-10, 10), min_size=n * b, max_size=n * b))
    k = draw(st.integers(1, n))
    z = relabel_compact(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    alpha = draw(st.sampled_from([0.5, 1.5, 4.0]))
    tau = draw(st.sampled_from([0.01, 0.1, 1.0]))
    if b == 1 and draw(st.booleans()):
        params = UvHyperParams(alpha=alpha, tau=tau, mu=0.3, gamma=draw(st.sampled_from([0.5, 1.0])),
                               delta=draw(st.sampled_from([0.1, 0.5])))
    else:
        params = MvHyperParams(alpha=alpha, tau=tau, mu=np.full(b, 0.3),
                               nu=b - 1 + draw(st.sampled_from([0.5, 1.0, 2.5])),
                               omega=draw(st.sampled_from([0.5, 1.0, 2.0])))
    return DataSet(np.array(cells).reshape(n, b)), z, params


class TestIclExact:
    def test_additivity(self, small_data, mv_params):
        z = Allocation(np.array([1] * 4 + [2] * 4 + [3] * 4))
        value = icl_exact(small_data, z, mv_params)
        parts = [
            group_evidence(small_data.values[z.labels == g], mv_params)
            for g in (1, 2, 3)
        ]
        assert value.data_term == pytest.approx(math.fsum(parts), abs=0.0)
        assert value.total == value.data_term + value.prior_term

    @settings(max_examples=150, deadline=None)
    @given(case=icl_cases(), data=st.data())
    def test_label_permutation_bit_identity(self, case, data):
        x, z, params = case
        perm = np.array(data.draw(st.permutations(range(1, z.K + 1))))
        z2 = Allocation(perm[z.labels - 1])
        assert icl_exact(x, z, params).total == icl_exact(x, z2, params).total

    @settings(max_examples=150, deadline=None)
    @given(case=icl_cases(), data=st.data())
    def test_observation_permutation_invariance(self, case, data):
        x, z, params = case
        perm = np.array(data.draw(st.permutations(range(x.n))))
        v1 = icl_exact(x, z, params).total
        v2 = icl_exact(DataSet(x.values[perm]), relabel_compact(z.labels[perm]), params).total
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_single_point_at_mu_total(self, mv_params):
        data = DataSet(np.zeros((1, 2)))
        value = icl_exact(data, np.array([1]), mv_params)
        assert value.prior_term == pytest.approx(0.0, abs=1e-12)
        assert value.total == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_length_mismatch(self, small_data, mv_params):
        with pytest.raises(ValueError, match="length"):
            icl_exact(small_data, np.ones(5, dtype=int), mv_params)


class TestIclDelta:
    def test_empty_block_is_zero(self, small_data, mv_params):
        state = make_state(small_data, np.array([1] * 6 + [2] * 6), mv_params)
        assert icl_delta(state, [], 2) == 0.0

    def test_group_rename_is_zero(self, small_data, mv_params):
        state = make_state(small_data, np.array([1] * 6 + [2] * 6), mv_params)
        block = np.flatnonzero(state.labels == 1)
        assert icl_delta(state, block, 3) == 0.0

    def test_mixed_block_rejected(self, small_data, mv_params):
        state = make_state(small_data, np.array([1] * 6 + [2] * 6), mv_params)
        with pytest.raises(ValueError, match="different groups"):
            icl_delta(state, [0, 6], 2)

    def test_state_not_mutated(self, small_data, mv_params):
        state = make_state(small_data, np.array([1] * 6 + [2] * 6), mv_params)
        before_labels = state.labels.copy()
        before_icl = state.icl
        icl_delta(state, [0, 1], 2)
        assert np.array_equal(state.labels, before_labels)
        assert state.icl == before_icl

    @pytest.mark.parametrize("seed", [0, 1])
    def test_delta_matches_full_recompute(self, mv_params, seed):
        rng = np.random.default_rng(seed)
        data = DataSet(rng.standard_normal((40, 2)))
        z = relabel_compact(rng.integers(1, 5, size=40))
        state = make_state(data, z, mv_params)
        before = icl_exact(data, state.labels, mv_params).total
        for _ in range(100):
            g = int(rng.integers(1, state.k + 1))
            members = np.flatnonzero(state.labels == g)
            m = int(rng.integers(1, members.size + 1))
            block = rng.choice(members, size=m, replace=False)
            target = int(rng.integers(1, state.k + 2))
            if target == g:
                continue
            d = icl_delta(state, block, target)
            labels = state.labels.copy()
            labels[block] = target
            after = icl_exact(data, relabel_compact(labels), mv_params).total
            assert d == pytest.approx(after - before, abs=1e-8)

    def test_best_move_agrees_with_scalar_proposals(self, mv_params):
        rng = np.random.default_rng(3)
        data = DataSet(rng.standard_normal((30, 2)))
        state = make_state(data, relabel_compact(rng.integers(1, 4, size=30)), mv_params)
        for _ in range(60):
            g = int(rng.integers(1, state.k + 1))
            members = np.flatnonzero(state.labels == g)
            m = int(rng.integers(1, members.size + 1))
            block = rng.choice(members, size=m, replace=False)
            moves = best_move(state, block)
            deltas = [icl_delta(state, block, t) for t in range(1, state.k + 2)]
            assert moves.gains[0] == max(deltas)
            assert moves.deltas.shape == (1, state.k + 1)

    def test_apply_move_tracks_delta_and_cache(self, mv_params):
        rng = np.random.default_rng(4)
        data = DataSet(rng.standard_normal((25, 2)))
        state = make_state(data, relabel_compact(rng.integers(1, 4, size=25)), mv_params)
        for _ in range(60):
            i = int(rng.integers(25))
            moves = best_move(state, np.array([i]))
            if moves.targets[0] == moves.sources[0]:
                continue
            before = state.icl
            apply_move(state, moves)
            assert state.icl == pytest.approx(before + moves.gains[0], abs=0.0)
            exact = icl_exact(data, state.labels, mv_params).total
            assert state.icl == pytest.approx(exact, abs=1e-8)

    def test_caches_stay_exact_without_a_refresh_far_from_the_origin(self, monkeypatch):
        # 1500 accepted single-row moves to random targets, fresh groups and
        # emptied sources included, on data and mu 1e8 from the origin; the
        # updated caches and the sum of deltas must match a fresh build, with
        # no rebuild on the way
        import iclust.icl as icl_mod

        rng = np.random.default_rng(6)
        offset = 1e8
        data = DataSet(rng.standard_normal((30, 2)) + offset)
        params = MvHyperParams(alpha=4.0, tau=1.0, mu=np.full(2, offset), nu=3.0, omega=1.0)
        state = make_state(data, relabel_compact(rng.integers(1, 5, size=30)), params)

        def no_refresh(state):
            raise AssertionError("the caches were rebuilt during the moves")

        monkeypatch.setattr(icl_mod, "refresh_state", no_refresh)
        applied = 0
        while applied < 1500:
            moves = best_move(state, np.array([int(rng.integers(30))]))
            target = int(rng.integers(1, state.k + 2))
            if target == moves.sources[0]:
                continue
            moves.targets[0], moves.gains[0] = target, moves.deltas[0, target - 1]
            apply_move(state, moves)
            applied += 1
        monkeypatch.undo()
        fresh = make_state(data, state.labels, params)
        assert state.counts.tolist() == fresh.counts.tolist()
        np.testing.assert_allclose(state.means, fresh.means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.scatters, fresh.scatters, rtol=0, atol=1e-11)
        np.testing.assert_allclose(state.group_evidence, fresh.group_evidence, rtol=0, atol=1e-11)
        assert abs(state.icl - icl_exact(data, state.labels, params).total) < 1e-8

    def test_icl_delta_univariate(self, galaxy_standardized):
        params = UvHyperParams(alpha=0.5, tau=0.01, mu=0.0, gamma=1.0, delta=0.1)
        rng = np.random.default_rng(5)
        z = relabel_compact(rng.integers(1, 5, size=galaxy_standardized.n))
        state = make_state(galaxy_standardized, z, params)
        before = icl_exact(galaxy_standardized, state.labels, params).total
        for _ in range(80):
            g = int(rng.integers(1, state.k + 1))
            members = np.flatnonzero(state.labels == g)
            m = int(rng.integers(1, members.size + 1))
            block = rng.choice(members, size=m, replace=False)
            target = int(rng.integers(1, state.k + 2))
            if target == g:
                continue
            d = icl_delta(state, block, target)
            labels = state.labels.copy()
            labels[block] = target
            after = icl_exact(galaxy_standardized, relabel_compact(labels), params).total
            assert d == pytest.approx(after - before, abs=1e-8)


def _stacked(state, blocks, allow_new=True):
    """best_moves over a list of blocks."""
    return best_moves(state, np.concatenate(blocks), [len(block) for block in blocks], allow_new)


def _block(moves, j):
    return moves.members[moves.bounds[j]:moves.bounds[j + 1]]


def _same_row(batch, j, single):
    """Row j of a MoveBatch is bit for bit the one row of a one-block batch."""
    return (_block(batch, j).tolist() == _block(single, 0).tolist()
            and all(getattr(batch, f)[j].tobytes() == getattr(single, f)[0].tobytes()
                    for f in ("sources", "targets", "gains", "deltas", "failed",
                              "counts", "means", "scatters", "evidence")))


def _state_bytes(state):
    return (state.labels.tobytes(), state.counts.tobytes(), state.means.tobytes(),
            state.scatters.tobytes(), state.group_evidence.tobytes(), state.icl.hex())


class TestMoveBatch:
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_rows_are_bit_identical_to_single_blocks(self, b):
        # unit, partial and whole-group blocks from different groups in one
        # stack; integer cells make duplicates and emptied sources common
        rng = np.random.default_rng(40 + b)
        data = DataSet(rng.integers(-2, 3, size=(24, b)).astype(float))
        params = MvHyperParams(alpha=1.5, tau=0.1, mu=np.full(b, 0.3), nu=b + 0.5, omega=0.7)
        state = make_state(data, relabel_compact(rng.integers(1, 6, size=24)), params)
        # first a fixed stack whose every block is partial: strict subsets of
        # two groups, one of them a single row
        groups = [np.flatnonzero(state.labels == g) for g in range(1, state.k + 1)]
        g1, g2 = [g for g in groups if g.size >= 3][:2]
        partial = [g1[:2], g2[1:], g1[-1:]]
        moves = _stacked(state, partial)
        assert not moves.failed.any()
        for j, block in enumerate(partial):
            assert _same_row(moves, j, best_move(state, block))
        for _ in range(20):
            blocks = []
            for _ in range(int(rng.integers(1, 9))):
                g = int(rng.integers(1, state.k + 1))
                members = np.flatnonzero(state.labels == g)
                blocks.append(rng.choice(members, size=int(rng.integers(1, members.size + 1)),
                                         replace=False))
            allow_new = bool(rng.integers(2))
            moves = _stacked(state, blocks, allow_new)
            assert not moves.failed.any()
            for j, block in enumerate(blocks):
                assert _same_row(moves, j, best_move(state, block, allow_new))
            apply_move(state, moves)

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_applying_row_j_matches_its_one_block_batch(self, b):
        # clusters at 0, +10 and -10: the -10 points sit in group 1 and open a
        # fresh group, group 2 moves whole into group 3, and row 0 stays put
        rng = np.random.default_rng(50 + b)
        x = np.vstack([rng.standard_normal((8, b)), rng.standard_normal((4, b)) + 10.0,
                       rng.standard_normal((3, b)) - 10.0])
        data = DataSet(x)
        params = MvHyperParams(alpha=1.0, tau=0.1, mu=np.zeros(b), nu=b + 0.5, omega=1.0)
        labels = np.array([1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 1, 1, 1])
        blocks = [np.array([0]), np.array([12, 13, 14]), np.array([8, 9]), np.array([10])]
        moves = _stacked(make_state(data, labels, params), blocks)
        kinds = set()
        for j, block in enumerate(blocks):
            batched = make_state(data, labels, params)
            apply_move(batched, moves, j)
            single = make_state(data, labels, params)
            apply_move(single, best_move(single, block))
            assert _state_bytes(batched) == _state_bytes(single)
            if j > 0 and moves.targets[j] == 4:  # K + 1, the spare row
                kinds.add("fresh")
            s = moves.sources[j] - 1
            if j > 0 and moves.counts[j, s] == 0 and moves.targets[j] != moves.sources[j]:
                kinds.add("emptied")
        assert kinds == {"fresh", "emptied"}

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_whole_group_block_reads_its_group_row(self, b):
        # after the columns of group 1 and of the singleton group 3 move by
        # 1e-6, only blocks that gather their members see it: a whole group
        # takes its statistics from its state row, a one-row block its column
        rng = np.random.default_rng(60 + b)
        data = DataSet(rng.standard_normal((12, b)))
        params = MvHyperParams(alpha=1.0, tau=0.1, mu=np.zeros(b), nu=b + 1.0, omega=1.0)
        state = make_state(data, np.repeat([1, 2, 3], [5, 6, 1]), params)
        blocks = [np.array([3, 0, 4, 1, 2]), np.array([0, 1]), np.array([11])]
        rows = []
        for shift in (0.0, 1e-6):
            state.columns[:, [0, 1, 2, 3, 4, 11]] += shift
            moves = _stacked(state, blocks)
            rows.append([b"".join(getattr(moves, f)[j].tobytes()
                                  for f in ("deltas", "means", "scatters", "evidence"))
                         for j in range(len(blocks))])
        assert [before == after for before, after in zip(*rows)] == [True, False, False]

    def test_failed_row_raises_and_leaves_state_untouched(self):
        # the construction of test_failed_row_flags_only_its_own_block
        from iclust import NumericalError

        rng = np.random.default_rng(7)
        data = DataSet(rng.standard_normal((18, 3)) * 3.0)
        params = MvHyperParams(alpha=2.0, tau=0.1, mu=np.zeros(3), nu=4.0, omega=1.0)
        state = make_state(data, np.repeat([1, 2, 3], 6), params)
        state.scatters[0] = -params.scale_matrix() + 1e-6 * np.eye(3)
        state.columns[:, 1:6] = np.nan  # so the rebuilt source column fails too
        moves = _stacked(state, [np.array([6]), np.array([0])])
        assert moves.failed.tolist() == [False, True]
        before = _state_bytes(state)
        with pytest.raises(NumericalError, match="positive definite"):
            apply_move(state, moves, 1)
        assert _state_bytes(state) == before

    def test_mixed_block_raises(self, small_data, mv_params):
        state = make_state(small_data, np.array([1, 2] * 6), mv_params)
        with pytest.raises(ValueError, match="different groups"):
            _stacked(state, [np.array([0]), np.array([0, 1])])
        with pytest.raises(ValueError, match="different groups"):
            best_move(state, np.array([2, 3]))

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_failed_row_flags_only_its_own_block(self, b):
        # a scatter of -xi + 1e-6 I for group 1 (impossible through the public
        # API) leaves every merge into group 1 positive definite, while taking
        # one point out of group 1 leaves a posterior scale with a negative
        # eigenvalue; b = 1 and 2 take the closed form, and at b = 3 this
        # sends the stacked Cholesky down its per-matrix fallback. Group 1's
        # members 2..5 are NaN, so the source column rebuilt from them fails too
        from iclust import NumericalError

        rng = np.random.default_rng(7)
        data = DataSet(rng.standard_normal((18, b)) * 3.0)
        params = MvHyperParams(alpha=2.0, tau=0.1, mu=np.zeros(b), nu=b + 1.0, omega=1.0)
        state = make_state(data, np.repeat([1, 2, 3], 6), params)
        state.scatters[0] = -params.scale_matrix() + 1e-6 * np.eye(b)
        state.columns[:, 2:6] = np.nan
        blocks = [np.array([i]) for i in (0, 6, 1, 12, 7)]
        moves = _stacked(state, blocks)
        assert moves.failed.tolist() == [True, False, True, False, False]
        for j, block in enumerate(blocks):
            if moves.failed[j]:
                with pytest.raises(NumericalError, match="positive definite"):
                    best_move(state, block)
            else:
                assert np.isfinite(moves.deltas[j]).all()
                assert _same_row(moves, j, best_move(state, block))

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_flagged_source_column_is_rebuilt_from_its_members(self, b):
        # the construction above with group 1's members intact: the source
        # column of a move out of group 1 is rebuilt from the members left,
        # as refresh_state builds that group, so no row is flagged; a row
        # with no flagged column is still best_move's
        rng = np.random.default_rng(7)
        data = DataSet(rng.standard_normal((18, b)) * 3.0)
        params = MvHyperParams(alpha=2.0, tau=0.1, mu=np.zeros(b), nu=b + 1.0, omega=1.0)
        labels = np.repeat([1, 2, 3], 6)
        state = make_state(data, labels, params)
        state.scatters[0] = -params.scale_matrix() + 1e-6 * np.eye(b)
        blocks = [np.array([0]), np.array([6]), np.array([3, 1])]
        moves = _stacked(state, blocks)
        assert not moves.failed.any()
        for j in (0, 2):
            moved = labels.copy()
            moved[blocks[j]] = 2
            fresh = make_state(data, moved, params)
            for f, row in (("means", fresh.means[0]), ("scatters", fresh.scatters[0]),
                           ("evidence", fresh.group_evidence[0])):
                assert getattr(moves, f)[j, 0].tobytes() == row.tobytes()
        assert _same_row(moves, 1, best_move(state, blocks[1]))


@st.composite
def move_cases(draw):
    # a small integer grid (or a line through it at b = 3) makes duplicate
    # and collinear points common; n <= 9 makes singleton groups, K = 1 and
    # whole-group blocks common
    b = draw(st.integers(1, 3))
    n = draw(st.integers(1, 9))
    if b == 3 and draw(st.booleans()):
        steps = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        x = [[t, -2 * t, 0.5 * t] for t in steps]
    else:
        cells = draw(st.lists(st.integers(-2, 2), min_size=n * b, max_size=n * b))
        x = [cells[i * b:(i + 1) * b] for i in range(n)]
    k = draw(st.integers(1, n))
    labels = relabel_compact(draw(st.lists(st.integers(1, k), min_size=n, max_size=n))).labels
    group = draw(st.integers(1, int(labels.max())))
    members = np.flatnonzero(labels == group).tolist()
    if draw(st.booleans()):
        block = members
    else:
        block = draw(st.lists(st.sampled_from(members), min_size=1, unique=True))
    return dict(x=x, labels=labels.tolist(), block=block,
                uv=b == 1 and draw(st.booleans()), allow_new=draw(st.booleans()))


def _check_block_rows(state, blocks, allow_new=True):
    """Each block's after-move rows, from one stacked call, against two-pass statistics."""
    labels, k = state.labels, state.k
    moves = _stacked(state, blocks, allow_new)
    # the state's statistics are those of the data relative to mu
    values = state.data.values - state.params.mu

    def close(got, ref):
        np.testing.assert_allclose(got.n, ref.n, rtol=0, atol=0)
        np.testing.assert_allclose(got.mean, ref.mean, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(got.scatter, ref.scatter, rtol=1e-12, atol=1e-12)

    for j, block in enumerate(blocks):
        s = int(moves.sources[j])
        for t in range(1, k + 2):
            after = np.flatnonzero(labels == t)
            after = (np.setdiff1d(after, block) if t == s
                     else np.concatenate([after, block]))
            close(GroupStats(moves.counts[j, t - 1], moves.means[j, t - 1],
                             moves.scatters[j, t - 1]), GroupStats.from_points(values[after]))
        close(GroupStats(moves.counts[j, s - 1], moves.means[j, s - 1],
                         moves.scatters[j, s - 1]),
              stats_downdate(GroupStats.from_points(values[labels == s]),
                             GroupStats.from_points(values[block])))
        assert not moves.means[j][moves.counts[j] == 0].any()
        assert not moves.scatters[j][moves.counts[j] <= 1].any()
        assert _same_row(moves, j, best_move(state, block, allow_new))


class TestBlockStatistics:
    """best_moves' segmented block sums and signed merges against two-pass statistics."""

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_merged_and_source_rows_match_two_pass_oracles(self, b):
        rng = np.random.default_rng(60 + b)
        data = DataSet(rng.standard_normal((40, b)) * 2.0 + 1.0)
        params = MvHyperParams(alpha=1.5, tau=0.1, mu=np.full(b, 0.3), nu=b + 0.5, omega=0.7)
        state = make_state(data, relabel_compact(rng.integers(1, 5, size=40)), params)
        # per group one row, a partial block and the whole group, shuffled
        # into one call
        blocks = []
        for g in range(1, state.k + 1):
            members = rng.permutation(np.flatnonzero(state.labels == g))
            blocks += [members[:1], members[:max(members.size // 2, 1)], members]
        _check_block_rows(state, [blocks[j] for j in rng.permutation(len(blocks))])

    @settings(max_examples=150, deadline=None)
    @given(case=move_cases())
    def test_drawn_block_rows_match_two_pass_oracles(self, case):
        data = DataSet(np.array(case["x"], dtype=float))
        if case["uv"]:
            params = UvHyperParams(alpha=1.5, tau=0.1, mu=0.3, gamma=1.0, delta=0.5)
        else:
            params = MvHyperParams(alpha=1.5, tau=0.1, mu=np.full(data.b, 0.3),
                                   nu=data.b + 0.5, omega=0.7)
        state = make_state(data, Allocation(np.array(case["labels"])), params)
        # the case's block, then per group one row, a partial block and the
        # whole group, all in one call
        blocks = [np.array(case["block"])]
        for g in range(1, state.k + 1):
            members = np.flatnonzero(state.labels == g)
            blocks += [members[:1], members[:max(members.size // 2, 1)], members]
        _check_block_rows(state, blocks, case["allow_new"])

    def test_state_and_batch_means_are_relative_to_mu(self):
        rng = np.random.default_rng(70)
        data = DataSet(rng.standard_normal((20, 2)) + 5.0)
        mu = np.array([3.25, -1.5])
        params = MvHyperParams(alpha=1.0, tau=0.1, mu=mu, nu=2.5, omega=1.0)
        state = make_state(data, relabel_compact(rng.integers(1, 4, size=20)), params)
        labels, values = state.labels, data.values

        def centred_mean(members):
            return values[members].mean(axis=0) - mu

        for g in range(1, state.k + 1):
            np.testing.assert_allclose(state.means[g - 1], centred_mean(labels == g),
                                       rtol=0, atol=1e-14)
        block = np.flatnonzero(labels == 1)[:2]
        moves = best_move(state, block)
        for t in range(2, state.k + 2):
            merged = np.concatenate([np.flatnonzero(labels == t), block])
            np.testing.assert_allclose(moves.means[0, t - 1], centred_mean(merged),
                                       rtol=0, atol=1e-14)
        # column 0 is group 1, the block's source, after removal
        rest = np.setdiff1d(np.flatnonzero(labels == 1), block)
        np.testing.assert_allclose(moves.means[0, 0], centred_mean(rest), rtol=0, atol=1e-14)
        # a one-row block's mean, the unit path's, is its row minus mu
        moves = best_move(state, np.array([3]))
        assert moves.means[0, state.k].tobytes() == (values[3] - mu).tobytes()

    def test_one_row_block_mean_turns_negative_zero_into_zero(self):
        x = np.array([[-0.0, 1.0], [-0.0, -0.0], [2.0, -0.0], [0.5, 0.25]])
        params = MvHyperParams(alpha=1.0, tau=0.1, mu=np.zeros(2), nu=2.5, omega=1.0)
        state = make_state(DataSet(x), np.array([1, 1, 1, 2]), params)
        members, sizes = np.array([1, 0, 1, 2, 3]), np.array([1, 2, 1, 1])
        means, scatters = _block_stats(state.columns, members, sizes, np.array([0, 1, 3, 4]))
        for j, block in enumerate(([1], [0, 1], [2], [3])):
            ref = GroupStats.from_points(x[block])
            # from_points's mean has no -0.0, the column of two -0.0 included
            assert means[j].tobytes() == ref.mean.tobytes()
            assert not np.signbit(means[j]).any()
            if len(block) == 1:
                assert scatters[j].tobytes() == np.zeros((2, 2)).tobytes()
        # the one-row blocks of a mixed call are the unit call's rows
        moves = best_moves(state, members, sizes)
        for j in (0, 2, 3):
            assert _same_row(moves, j, best_move(state, _block(moves, j)))


class TestCountTables:
    @pytest.mark.parametrize("b,nu", [(1, 2.7), (3, 2.3), (3, 4.6)])
    def test_every_lgamma_is_math_lgamma_at_its_argument(self, b, nu):
        params = MvHyperParams(alpha=1.7, tau=0.3, mu=np.zeros(b), nu=nu, omega=0.8)
        n_max = 300
        coef, base, slope, lg_prior = _count_terms(params, n_max)
        cs = range(n_max + 1)
        assert lg_prior.tolist() == [math.lgamma(1.7 + c) for c in cs]
        assert coef.tolist() == [0.3 * c / (0.3 + c) for c in cs]
        assert slope.tolist() == [0.0] + [0.5 * (nu + c) for c in cs[1:]]
        # base with its lgamma sum rebuilt from scalar math.lgamma calls
        lg = np.array([sum(math.lgamma((nu + (c + 1 - s)) / 2) for s in range(1, b + 1))
                       for c in cs])
        ns = np.arange(n_max + 1, dtype=float)
        expected = (-0.5 * b * ns * math.log(math.pi)
                    + 0.5 * b * (np.log(0.3) - np.log(0.3 + ns))
                    + (lg - lg[0])
                    + 0.5 * nu * params.log_det_scale)
        expected[0] = 0.0
        assert base.tobytes() == expected.tobytes()

    def test_tables_are_read_only(self, mv_params):
        for table in _count_terms(mv_params, 10):
            with pytest.raises(ValueError, match="read-only"):
                table[1] = 0.0

    def test_states_and_rescoring_share_one_set_of_tables(self, small_data, mv_params):
        first = make_state(small_data, np.array([1, 2] * 6), mv_params)
        twin = MvHyperParams(alpha=4.0, tau=1.0, mu=np.zeros(2), nu=3.0, omega=1.0)
        second = make_state(small_data, np.ones(12, dtype=int), twin)
        assert first.count_terms is second.count_terms
        assert _count_terms(mv_params, small_data.n) is first.count_terms

    @pytest.mark.parametrize("labels,block", [
        ([1, 1, 1, 2, 2, 3, 3, 3, 3, 1], [0, 9]),      # an ordinary move, and the spare row
        ([1, 1, 1, 2, 2, 3, 3, 3, 3, 1], [3, 4]),      # the source empties: K - 1
        ([1, 2, 2, 2, 3, 3, 2, 3, 2, 2], [0]),         # a singleton source empties
        ([1] * 10, [2, 5, 7]),                         # K = 1, to the spare row: K + 1
    ])
    def test_prior_part_of_each_delta_is_the_prior_change(self, labels, block):
        rng = np.random.default_rng(3)
        data = DataSet(rng.standard_normal((10, 2)))
        params = MvHyperParams(alpha=0.7, tau=0.1, mu=np.zeros(2), nu=3.5, omega=1.0)
        state = make_state(data, np.array(labels), params)
        moves = best_move(state, np.array(block), allow_new=True)
        k, s, m = state.k, int(moves.sources[0]) - 1, len(block)
        counts = state.counts[:k]
        before = allocation_log_prior(counts, params.alpha, data.n)
        checked = 0
        for t in range(k + 1):
            if t == s or (t == k and counts[s] == m):
                continue  # staying put, or a whole group relabelled: exactly zero
            after = np.append(counts, 0)
            after[s] -= m
            after[t] += m
            evidence = ((moves.evidence[0, s] - state.group_evidence[s])
                        + (moves.evidence[0, t] - state.group_evidence[t]))
            prior = allocation_log_prior(after[after > 0], params.alpha, data.n) - before
            assert moves.deltas[0, t] - evidence == pytest.approx(prior, abs=1e-12)
            checked += 1
        assert checked == k - (counts[s] == m)


class TestNonFinite:
    """Overflow is a typed error, never a NaN objective."""

    @pytest.mark.parametrize("alpha,nu", [
        (1e308, 3.0),      # lgamma(alpha) overflows
        (1e305, 3.0),      # lgamma(alpha) is finite, lgamma(K alpha) is not for K >= 3
        (4.0, 1e308),      # lgamma(nu / 2) overflows
    ])
    def test_prior_that_overflows_lgamma_is_a_value_error(self, small_data, alpha, nu):
        params = MvHyperParams(alpha=alpha, tau=1.0, mu=np.zeros(2), nu=nu, omega=1.0)
        with pytest.raises(ValueError, match="lgamma overflows"):
            icl_exact(small_data, np.arange(1, 13), params)

    @pytest.mark.parametrize("post", [
        [[np.nan]],
        [[np.inf, np.inf], [np.inf, np.inf]],      # inf - inf determinant
        [[np.nan, 0.0], [0.0, 1.0]],               # NaN leading minor
        [[1.0, np.nan], [np.nan, 1.0]],            # NaN off-diagonal
        [[1.0, 0.0, np.nan], [0.0, 1.0, 0.0], [np.nan, 0.0, 1.0]],  # through Cholesky
    ], ids=["b1", "b2-inf", "b2-minor", "b2-offdiag", "b3-offdiag"])
    def test_nan_minor_or_determinant_is_flagged(self, post):
        b = len(post)
        stacked = np.stack([np.array(post), 2.0 * np.eye(b)])
        with np.errstate(invalid="ignore"):
            logdet, bad = _batch_logdet_spd(stacked, b)
        assert bad.tolist() == [True, False]
        assert math.isnan(logdet[0])
        assert logdet[1] == pytest.approx(b * math.log(2.0), abs=1e-15)

    def test_non_finite_exact_icl_is_a_numerical_error(self, small_data):
        # the spare row's scale 1e308 I has an infinite determinant, which
        # is positive, and its zero slope times that log is NaN
        params = MvHyperParams(alpha=4.0, tau=1.0, mu=np.zeros(2), nu=3.0, omega=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="exact ICL is nan"):
                make_state(small_data, np.ones(12, dtype=int), params)


class TestMoveKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=move_cases())
    # K = 1, the whole group moving: to itself and to a fresh label
    @example(case=dict(x=[[0, 0], [1, 0], [1, 0]], labels=[1, 1, 1], block=[0, 1, 2],
                       uv=False, allow_new=True))
    # collinear duplicates at b = 3, a whole group to another group
    @example(case=dict(x=[[t, -2 * t, 0.5 * t] for t in (-1, 0, 0, 1, 2, 2)],
                       labels=[1, 1, 2, 2, 3, 3], block=[2, 3], uv=False, allow_new=False))
    # a singleton group, univariate
    @example(case=dict(x=[[0], [1], [1], [2]], labels=[1, 2, 2, 2], block=[0],
                       uv=True, allow_new=True))
    def test_deltas_exact_and_best_is_first_maximiser(self, case):
        data = DataSet(np.array(case["x"], dtype=float))
        if case["uv"]:
            params = UvHyperParams(alpha=1.5, tau=0.1, mu=0.0, gamma=1.0, delta=0.5)
        else:
            params = MvHyperParams(alpha=1.5, tau=0.1, mu=np.zeros(data.b),
                                   nu=data.b + 0.5, omega=1.0)
        z = Allocation(np.array(case["labels"]))
        state = make_state(data, z, params)
        block = np.array(case["block"])
        before = icl_exact(data, z, params).total
        deltas = []
        for target in range(1, state.k + 2):
            labels = z.labels.copy()
            labels[block] = target
            after = icl_exact(data, relabel_compact(labels), params).total
            deltas.append(icl_delta(state, block, target))
            assert deltas[-1] == pytest.approx(after - before, abs=1e-8)

        moves = best_move(state, block, allow_new=case["allow_new"])
        offered = deltas if case["allow_new"] else deltas[:-1] + [-math.inf]
        first = int(np.argmax(offered))  # first maximiser, the fresh group last
        assert moves.gains[0] == offered[first]
        assert moves.targets[0] == first + 1
        assert moves.deltas[0].tolist() == offered
