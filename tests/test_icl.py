import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iclust import (
    Allocation,
    DataSet,
    GroupStats,
    MvHyperParams,
    UvHyperParams,
    allocation_log_prior,
    group_log_evidence,
    icl_exact,
    make_state,
    relabel_compact,
)
from iclust.icl import apply_move, best_move

from oracles import (
    enumerate_label_vectors,
    icl_delta,
    mv_evidence_chain_rule,
    mv_predictive_logpdf,
    mvt_logpdf,
    uv_evidence_quadrature,
    uv_log_evidence,
    uv_predictive_logpdf,
)


class TestGroupEvidence:
    def test_empty_group_is_zero(self, mv_params):
        assert group_log_evidence(GroupStats.empty(2), mv_params) == 0.0
        up = UvHyperParams(alpha=1.0, tau=0.5, mu=0.0, gamma=0.5, delta=0.5)
        assert group_log_evidence(GroupStats.empty(1), up) == 0.0

    def test_single_observation_at_mu(self, mv_params):
        # predictive is a bivariate t with 2 df, centre mu, identity scale
        st = GroupStats.from_points(np.zeros((1, 2)))
        assert group_log_evidence(st, mv_params) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

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
            ev = group_log_evidence(GroupStats.from_points(x[None, :]), params)
            df = params.nu - b + 1
            scale = params.scale_matrix() * (params.tau + 1) / (params.tau * df)
            assert ev == pytest.approx(mvt_logpdf(x, params.mu, scale, df), abs=1e-10)

    def test_three_point_group_chain_rule_tight(self):
        rng = np.random.default_rng(77)
        params = MvHyperParams(alpha=1.0, tau=0.5, mu=np.zeros(2), nu=3.0, omega=1.0)
        rows = rng.normal(size=(3, 2))
        ev = group_log_evidence(GroupStats.from_points(rows), params)
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
            ev = group_log_evidence(GroupStats.from_points(rows), params)
            assert ev == pytest.approx(mv_evidence_chain_rule(params, rows), abs=1e-9)

    def test_incremental_predictive(self):
        # evidence(first j) - evidence(first j-1) equals the one-point predictive
        rng = np.random.default_rng(8)
        params = MvHyperParams(alpha=1.0, tau=0.7, mu=np.array([0.2, -0.4]),
                               nu=4.2, omega=1.3)
        rows = rng.normal(size=(6, 2))
        for j in range(1, 7):
            whole = group_log_evidence(GroupStats.from_points(rows[:j]), params)
            prefix = group_log_evidence(GroupStats.from_points(rows[:j - 1]), params)
            pred = mv_predictive_logpdf(params, rows[:j - 1], rows[j - 1])
            assert whole - prefix == pytest.approx(pred, abs=1e-9)


class TestUnivariateEvidence:
    def test_single_observation_at_mu(self):
        params = UvHyperParams(alpha=1.0, tau=1.0, mu=0.0, gamma=0.5, delta=0.5)
        st = GroupStats.from_points(np.zeros((1, 1)))
        expected = -math.log(math.pi * math.sqrt(2.0))
        assert group_log_evidence(st, params) == pytest.approx(expected, abs=1e-12)

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
            ev = group_log_evidence(GroupStats.from_points(xs[:, None]), params)
            assert ev == pytest.approx(uv_evidence_quadrature(params, xs), abs=1e-6)

    def test_uv_chain_rule(self):
        rng = np.random.default_rng(10)
        params = UvHyperParams(alpha=1.0, tau=0.3, mu=0.1, gamma=1.5, delta=0.8)
        xs = rng.normal(size=7)
        whole = group_log_evidence(GroupStats.from_points(xs[:, None]), params)
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
        stats = GroupStats.from_points(offset + step * np.array(cells, dtype=float)[:, None])
        ev = group_log_evidence(stats, params)
        ref = uv_log_evidence(params, stats.n, float(stats.mean[0]), float(stats.scatter[0, 0]))
        assert abs(ev - ref) <= 1e-12 * max(1.0, abs(ref))


class TestFullScaleMatrix:
    def test_full_xi_chain_rule(self):
        # non-diagonal inverse scale at b=3 exercises the general
        # factorization branch
        rng = np.random.default_rng(21)
        a = rng.normal(size=(3, 3))
        xi = a @ a.T + 3.0 * np.eye(3)
        params = MvHyperParams(alpha=1.0, tau=0.4, mu=rng.normal(size=3), nu=4.5, xi=xi)
        rows = rng.normal(size=(6, 3))
        ev = group_log_evidence(GroupStats.from_points(rows), params)
        assert ev == pytest.approx(mv_evidence_chain_rule(params, rows), abs=1e-9)

    def test_non_pd_posterior_raises_numerical_error(self):
        # a corrupted scatter (impossible through the public API) must
        # surface as NumericalError, never as NaN
        from iclust import NumericalError

        params = MvHyperParams(alpha=1.0, tau=1.0, mu=np.zeros(2), nu=3.0, omega=1.0)
        bad = GroupStats(3, np.zeros(2), -10.0 * np.eye(2))
        with pytest.raises(NumericalError, match="positive definite"):
            group_log_evidence(bad, params)
        up = UvHyperParams(alpha=1.0, tau=1.0, mu=0.0, gamma=1.0, delta=0.5)
        bad1 = GroupStats(3, np.zeros(1), np.array([[-10.0]]))
        with pytest.raises(NumericalError):
            group_log_evidence(bad1, up)


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


class TestIclExact:
    def test_additivity(self, small_data, mv_params):
        z = Allocation(np.array([1] * 4 + [2] * 4 + [3] * 4))
        value = icl_exact(small_data, z, mv_params)
        parts = [
            group_log_evidence(GroupStats.from_points(small_data.values[z.labels == g]), mv_params)
            for g in (1, 2, 3)
        ]
        assert value.data_term == pytest.approx(math.fsum(parts), abs=0.0)
        assert value.total == value.data_term + value.prior_term

    def test_label_permutation_bit_identity(self, small_data, mv_params, rng):
        z = rng.integers(1, 4, size=small_data.n)
        z = relabel_compact(z)
        perm = np.array([3, 1, 2])
        z2 = Allocation(perm[z.labels - 1])
        v1 = icl_exact(small_data, z, mv_params)
        v2 = icl_exact(small_data, z2, mv_params)
        assert v1.total == v2.total

    def test_observation_permutation_invariance(self, small_data, mv_params, rng):
        z = relabel_compact(rng.integers(1, 4, size=small_data.n))
        perm = rng.permutation(small_data.n)
        data2 = DataSet(small_data.values[perm])
        z2 = relabel_compact(z.labels[perm])
        v1 = icl_exact(small_data, z, mv_params).total
        v2 = icl_exact(data2, z2, mv_params).total
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
            prop = best_move(state, block)
            deltas = [icl_delta(state, block, t) for t in range(1, state.k + 2)]
            assert prop.delta == max(deltas)
            assert prop.deltas.size == state.k + 1

    def test_apply_move_tracks_delta_and_cache(self, mv_params):
        rng = np.random.default_rng(4)
        data = DataSet(rng.standard_normal((25, 2)))
        state = make_state(data, relabel_compact(rng.integers(1, 4, size=25)), mv_params)
        for _ in range(60):
            i = int(rng.integers(25))
            prop = best_move(state, np.array([i]))
            if prop.target == prop.source:
                continue
            before = state.icl
            apply_move(state, prop)
            assert state.icl == pytest.approx(before + prop.delta, abs=0.0)
            exact = icl_exact(data, state.labels, mv_params).total
            assert state.icl == pytest.approx(exact, abs=1e-8)

    def test_periodic_refresh_keeps_caches_exact(self, mv_params, monkeypatch):
        from iclust.model import ClusterState

        monkeypatch.setattr(ClusterState, "refresh_interval", 7)
        rng = np.random.default_rng(6)
        data = DataSet(rng.standard_normal((30, 2)))
        state = make_state(data, relabel_compact(rng.integers(1, 5, size=30)), mv_params)
        applied = 0
        for _ in range(120):
            i = int(rng.integers(30))
            prop = best_move(state, np.array([i]))
            if prop.target != prop.source:
                apply_move(state, prop)
                applied += 1
        assert state.accepted_moves == applied
        exact = icl_exact(data, state.labels, mv_params).total
        assert state.icl == pytest.approx(exact, abs=1e-8)

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

        prop = best_move(state, block, allow_new=case["allow_new"])
        offered = deltas if case["allow_new"] else deltas[:-1] + [-math.inf]
        first = int(np.argmax(offered))  # first maximiser, the fresh group last
        assert prop.delta == offered[first]
        assert prop.target == first + 1
        assert prop.deltas.tolist() == offered
