from dataclasses import replace

import numpy as np
import pytest

import iclust.icl as icl_mod
import iclust.optimizer as opt
from iclust import (
    Allocation,
    DataSet,
    MvHyperParams,
    SearchConfig,
    Solution,
    UvHyperParams,
    greedy_combined_icl,
    greedy_icl,
    icl_exact,
    make_state,
    multi_start,
    neighbor_block,
    relabel_compact,
    sample_dataset,
)
from iclust.io import distance_matrix, neighbor_order

from oracles import brute_force_max_icl, icl_delta


def two_cluster_data(n_per=5, sep=100.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n_per, 2))
    b = rng.normal(0.0, 1.0, size=(n_per, 2)) + np.array([sep, 0.0])
    return DataSet(np.vstack([a, b]))


class TestRelabelCompact:
    def test_gap_removal(self):
        out = relabel_compact(np.array([1, 3, 3]))
        assert out.labels.tolist() == [1, 2, 2]
        assert out.K == 2

    def test_first_appearance_order(self):
        out = relabel_compact(np.array([2, 2, 5, 1]))
        assert out.labels.tolist() == [1, 1, 2, 3]
        assert out.K == 3

    def test_icl_invariant_under_relabel(self, small_data, mv_params, rng):
        raw = rng.integers(3, 9, size=small_data.n)
        alloc = relabel_compact(raw)
        # evaluate the raw labelling through a compact clone with same groups
        groups = {v: i + 1 for i, v in enumerate(dict.fromkeys(raw.tolist()))}
        clone = Allocation(np.array([groups[v] for v in raw]))
        v1 = icl_exact(small_data, alloc, mv_params).total
        v2 = icl_exact(small_data, clone, mv_params).total
        assert v1 == pytest.approx(v2, abs=1e-10)


class TestNeighborBlock:
    def setup_state(self, seed=0):
        rng = np.random.default_rng(seed)
        data = DataSet(rng.standard_normal((20, 2)))
        z = relabel_compact(rng.integers(1, 4, size=20))
        params = MvHyperParams(alpha=4.0, tau=0.1, mu=np.zeros(2), nu=3.0, omega=1.0)
        return data, make_state(data, z, params)

    def test_singleton_group(self, mv_params):
        data = DataSet(np.random.default_rng(1).standard_normal((5, 2)))
        state = make_state(data, np.array([1, 2, 2, 2, 2]), mv_params)
        block = neighbor_block(0, state.labels, neighbor_order(data), 0.1, 0.01,
                               np.random.default_rng(0))
        assert block.tolist() == [0]

    def test_eta_floor_gives_singleton(self):
        data, state = self.setup_state()
        # beta parameters forcing eta towards zero, r = 0, floor kicks in
        block = neighbor_block(3, state.labels, neighbor_order(data), 1e-9, 1e6,
                               np.random.default_rng(7))
        assert block.tolist() == [3]

    def test_block_is_prefix_of_sorted_members(self):
        data, state = self.setup_state(3)
        # independent oracle: members sorted by (dist[i, j], j) on the dense matrix
        dist = distance_matrix(data)
        order = neighbor_order(data)
        rng = np.random.default_rng(11)
        for i in range(20):
            block = neighbor_block(i, state.labels, order, 0.5, 0.5, rng)
            g = int(state.labels[i])
            members = np.flatnonzero(state.labels == g)
            others = [j for j in members if j != i]
            others.sort(key=lambda j: (dist[i, j], j))
            expected = [i] + others
            assert block.tolist() == expected[: len(block)]
            assert block[0] == i
            assert set(block).issubset(set(members.tolist()))

    def test_draws_beta_then_binomial(self):
        # seeded runs reproduce only while the picker's RNG use is unchanged
        data, state = self.setup_state(5)
        order = neighbor_order(data)
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        for i in range(20):
            size = int(np.sum(state.labels == state.labels[i]))
            eta = twin.beta(0.5, 0.5)
            r = int(twin.binomial(size, eta))
            assert len(neighbor_block(i, state.labels, order, 0.5, 0.5, rng)) == max(r, 1)


class TestGreedyIcl:
    def test_two_far_clusters_reach_brute_force_max(self):
        data = two_cluster_data()
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        best, best_labels = brute_force_max_icl(data, params, k_max=5)
        config = SearchConfig(max_sweeps=15, restarts=4, k_max=5, seed=2)
        sol = multi_start(data, params, config, algorithm="plain")
        assert sol.K == 2
        assert sol.allocation.labels.tolist() == relabel_compact(best_labels).labels.tolist()
        assert sol.icl == pytest.approx(best, abs=1e-8)

    def test_fixed_point_returns_init(self):
        data = two_cluster_data()
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        init = Allocation(np.array([1] * 5 + [2] * 5))
        config = SearchConfig(max_sweeps=15, restarts=1, k_max=5, seed=0)
        sol = greedy_icl(data, params, init, config, np.random.default_rng(0))
        assert sol.allocation.labels.tolist() == init.labels.tolist()
        assert sol.sweeps_used == 1

    def test_trace_non_decreasing(self, rng):
        data = DataSet(rng.standard_normal((30, 2)))
        params = MvHyperParams(alpha=4.0, tau=0.1, mu=np.zeros(2), nu=3.0, omega=1.0)
        init = relabel_compact(rng.integers(1, 9, size=30))
        config = SearchConfig(max_sweeps=10, restarts=1, seed=0)
        sol = greedy_icl(data, params, init, config, np.random.default_rng(1))
        values = [v for _, v in sol.trace]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_evaluation_budget_per_visit(self, monkeypatch):
        # exactly K_current + 1 candidate deltas for every visit the kernel scores
        data = two_cluster_data(seed=5)
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        counts = []
        real_best_moves = icl_mod.best_moves

        def counting_best_moves(state, blocks, allow_new=True):
            moves = real_best_moves(state, blocks, allow_new)
            expected = state.k + (1 if allow_new else 0)
            for row in moves.deltas:
                counts.append((int(np.isfinite(row).sum()), expected, state.k))
            return moves

        monkeypatch.setattr(icl_mod, "best_moves", counting_best_moves)
        init = relabel_compact(np.random.default_rng(0).integers(1, 5, size=10))
        config = SearchConfig(max_sweeps=3, restarts=1, k_max=4, seed=0)
        greedy_icl(data, params, init, config, np.random.default_rng(2))
        assert counts
        for got, expected, k in counts:
            assert got == expected
            # with k below the cap the fresh group is offered, K + 1 in total
            if k < 4:
                assert got == k + 1

    def test_k_max_respected(self, monkeypatch):
        data = two_cluster_data(seed=6)
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        seen_k = []
        real_best_moves = icl_mod.best_moves

        def spy(state, blocks, allow_new=True):
            seen_k.append(state.k)
            if state.k >= 2:
                assert not allow_new
            return real_best_moves(state, blocks, allow_new)

        monkeypatch.setattr(icl_mod, "best_moves", spy)
        config = SearchConfig(max_sweeps=5, restarts=2, k_max=2, seed=3)
        sol = multi_start(data, params, config, algorithm="plain")
        assert max(seen_k) <= 2
        assert sol.K <= 2


def _run_scoring_data(b):
    if b == 1:
        return DataSet(np.random.default_rng(11).standard_normal(60) * 2.0), \
            UvHyperParams(alpha=1.0, tau=0.1, mu=0.0, gamma=1.0, delta=0.5)
    gen = MvHyperParams(alpha=4.0, tau=0.001, mu=np.zeros(b), nu=b + 1.0, omega=0.5)
    data = sample_dataset(60, 4, gen, np.random.default_rng(b)).data
    return data, MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=b + 1.0, omega=0.5)


class TestRunScoring:
    """The sweep loop scores runs of visits; seeded output must not notice."""

    @pytest.mark.parametrize("k_max", [20, 2, 1])
    @pytest.mark.parametrize("algorithm", ["plain", "combined"])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_runs_match_one_visit_at_a_time(self, monkeypatch, b, algorithm, k_max):
        data, params = _run_scoring_data(b)
        config = SearchConfig(max_sweeps=4, restarts=2, beta1=0.2, beta2=0.04, k_max=k_max,
                              seed=b)
        runs = multi_start(data, params, config, algorithm=algorithm)
        monkeypatch.setattr(opt, "RUN_MAX", 1)
        single = multi_start(data, params, config, algorithm=algorithm)
        assert runs.allocation.labels.tolist() == single.allocation.labels.tolist()
        assert runs.icl.hex() == single.icl.hex()
        assert runs.trace == single.trace
        assert runs.restart_bests == single.restart_bests
        if k_max == 1:
            # the whole search at K = 1: the fresh group is never offered
            assert runs.K == 1
            assert runs.icl == icl_exact(data, np.ones(data.n, dtype=int), params).total

    @pytest.mark.parametrize("algorithm", ["plain", "combined"])
    def test_failed_row_after_an_acceptance_is_dropped(self, monkeypatch, algorithm):
        # the rows after the first accepted one are never read, so flagging
        # them changes nothing
        data, params = _run_scoring_data(2)
        config = SearchConfig(max_sweeps=4, restarts=2, k_max=20, seed=4)
        clean = multi_start(data, params, config, algorithm=algorithm)
        real_best_moves = icl_mod.best_moves
        flagged = []

        def flag_after_acceptance(state, blocks, allow_new=True):
            moves = real_best_moves(state, blocks, allow_new)
            accepted = np.flatnonzero(moves.gains > opt.EPSILON)
            if accepted.size and accepted[0] + 1 < len(blocks):
                moves.failed[accepted[0] + 1:] = True
                flagged.append(len(blocks) - accepted[0] - 1)
            return moves

        monkeypatch.setattr(icl_mod, "best_moves", flag_after_acceptance)
        sol = multi_start(data, params, config, algorithm=algorithm)
        assert flagged
        assert sol.allocation.labels.tolist() == clean.allocation.labels.tolist()
        assert sol.icl.hex() == clean.icl.hex()
        assert sol.restart_bests == clean.restart_bests

    @pytest.mark.parametrize("algorithm", ["plain", "combined"])
    def test_failed_row_before_any_acceptance_raises(self, monkeypatch, algorithm):
        from iclust.model import NumericalError

        data, params = _run_scoring_data(2)
        config = SearchConfig(max_sweeps=4, restarts=1, k_max=20, seed=4)
        real_best_moves = icl_mod.best_moves
        calls = []

        def flag_second_row(state, blocks, allow_new=True):
            moves = real_best_moves(state, blocks, allow_new)
            calls.append(len(blocks))
            if len(blocks) > 1 and not moves.gains[0] > opt.EPSILON:
                moves.failed[1] = True
            return moves

        monkeypatch.setattr(icl_mod, "best_moves", flag_second_row)
        init = relabel_compact(np.random.default_rng(0).integers(1, 6, size=data.n))
        with pytest.raises(NumericalError, match="positive definite"):
            if algorithm == "plain":
                greedy_icl(data, params, init, config, np.random.default_rng(1))
            else:
                greedy_combined_icl(data, params, init, config, neighbor_order(data),
                                    np.random.default_rng(1))
        assert calls[-1] > 1


class TestGreedyCombined:
    def test_degenerates_to_plain_with_unit_blocks(self):
        # eta forced to zero makes every block a singleton; with a shared
        # master seed the visit orders coincide and the two variants walk the
        # same path
        data = two_cluster_data(seed=9, sep=8.0)
        params = MvHyperParams(alpha=4.0, tau=0.1, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        init = relabel_compact(np.random.default_rng(4).integers(1, 4, size=10))
        config = SearchConfig(max_sweeps=6, restarts=1, beta1=1e-9, beta2=1e9, seed=0)
        order = neighbor_order(data)
        sol_plain = greedy_icl(data, params, init, config, np.random.default_rng(42))
        sol_comb = greedy_combined_icl(data, params, init, config, order,
                                       np.random.default_rng(42))
        assert sol_plain.allocation.labels.tolist() == sol_comb.allocation.labels.tolist()
        assert sol_plain.icl == sol_comb.icl
        # the plain variant stops early; cut there, the traces coincide
        assert sol_plain.sweeps_used < config.max_sweeps
        short = replace(config, max_sweeps=sol_plain.sweeps_used)
        sol_short = greedy_combined_icl(data, params, init, short, order,
                                        np.random.default_rng(42))
        assert sol_plain.trace == sol_short.trace

    def test_never_exceeds_brute_force_max(self):
        rng = np.random.default_rng(100)
        for trial in range(6):
            data = DataSet(rng.standard_normal((8, 2)) * 2.0)
            params = MvHyperParams(alpha=2.0, tau=0.1, mu=data.values.mean(axis=0),
                                   nu=3.0, omega=1.0)
            best, _ = brute_force_max_icl(data, params, k_max=3)
            config = SearchConfig(max_sweeps=8, restarts=5, k_max=3, seed=trial)
            sol = multi_start(data, params, config)
            assert sol.icl <= best + 1e-9

    def test_block_escape_where_singles_fail(self):
        # crossed two-cluster instance: exhaustively no single-observation
        # move improves, yet a six-observation block move does
        rng = np.random.default_rng(42)
        a = rng.normal(0.0, 1.0, size=(5, 2))
        b = rng.normal(0.0, 1.0, size=(5, 2)) + np.array([2.0, 0.0])
        data = DataSet(np.vstack([a, b]))
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        z_split = np.array([1, 2, 1, 1, 1, 2, 2, 1, 1, 2])
        state = make_state(data, z_split, params)
        single_deltas = [
            icl_delta(state, [i], t)
            for i in range(10)
            for t in range(1, state.k + 2)
            if t != state.labels[i]
        ]
        assert max(single_deltas) <= 0.0
        block = np.flatnonzero(state.labels == 1)
        assert block.size == 6
        assert icl_delta(state, block, 2) > 1.0
        # the combined search escapes
        config = SearchConfig(max_sweeps=15, restarts=1, seed=0)
        sol = greedy_combined_icl(data, params, Allocation(z_split), config,
                                  neighbor_order(data), np.random.default_rng(3))
        assert sol.icl > state.icl + 1e-6


class TestMultiStart:
    def test_single_restart_equals_one_run(self):
        data = two_cluster_data(seed=1)
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        config = SearchConfig(max_sweeps=5, restarts=1, k_max=5, seed=77)
        sol = multi_start(data, params, config)
        # replay the derived stream by hand
        stream = np.random.SeedSequence(77).spawn(1)[0]
        rng = np.random.default_rng(stream)
        init = relabel_compact(rng.integers(1, 6, size=data.n))
        ref = greedy_combined_icl(data, params, init, config, neighbor_order(data), rng)
        assert sol.allocation.labels.tolist() == ref.allocation.labels.tolist()
        assert sol.icl == ref.icl

    def test_fixed_seed_bit_identical(self):
        data = two_cluster_data(seed=2)
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        config = SearchConfig(max_sweeps=5, restarts=3, k_max=5, seed=5)
        a = multi_start(data, params, config)
        b = multi_start(data, params, config)
        assert a.allocation.labels.tolist() == b.allocation.labels.tolist()
        assert a.icl == b.icl
        assert a.trace == b.trace
        assert a.restart_bests == b.restart_bests

    def test_best_of_ten_at_least_best_of_one(self):
        rng = np.random.default_rng(8)
        data = DataSet(rng.standard_normal((20, 2)) * 3.0)
        params = MvHyperParams(alpha=4.0, tau=0.1, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        one = multi_start(data, params,
                          SearchConfig(max_sweeps=6, restarts=1, k_max=6, seed=9))
        ten = multi_start(data, params,
                          SearchConfig(max_sweeps=6, restarts=10, k_max=6, seed=9))
        assert ten.icl >= one.icl
        assert ten.restart_bests[0] == pytest.approx(one.icl, abs=0.0)

    def test_solution_icl_matches_exact(self):
        data = two_cluster_data(seed=3)
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        config = SearchConfig(max_sweeps=5, restarts=3, k_max=5, seed=1)
        sol = multi_start(data, params, config)
        assert sol.icl == pytest.approx(icl_exact(data, sol.allocation, params).total, abs=1e-8)

    def test_icl_is_exact_far_from_origin(self):
        # at a 1e8 offset the delta-accumulated score drifts by about 1e-4
        # here; the reported value and every restart's best must be exact
        gen = MvHyperParams(alpha=4.0, tau=0.001, mu=np.zeros(2), nu=3.0, omega=0.5)
        sample = sample_dataset(150, 4, gen, np.random.default_rng(2))
        data = DataSet(sample.data.values + 1e8)
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        config = SearchConfig(max_sweeps=4, restarts=3, k_max=10, seed=6)
        sol = multi_start(data, params, config)
        assert sol.icl == icl_exact(data, sol.allocation, params).total
        assert max(sol.restart_bests) == sol.icl

    @pytest.mark.parametrize("algorithm", ["plain", "combined"])
    def test_trace_ends_with_reported_icl(self, algorithm):
        # the last trace entry carries the exact rescoring, not the sum of
        # deltas, which drifts in the last bits at a 1e8 offset
        gen = MvHyperParams(alpha=4.0, tau=0.001, mu=np.zeros(2), nu=3.0, omega=0.5)
        sample = sample_dataset(150, 4, gen, np.random.default_rng(2))
        data = DataSet(sample.data.values + 1e8)
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        config = SearchConfig(max_sweeps=4, restarts=2, k_max=10, seed=6)
        sol = multi_start(data, params, config, algorithm=algorithm)
        assert sol.trace[-1][1] == sol.icl

    def test_all_restarts_failing_raises(self, monkeypatch):
        from iclust.model import NumericalError
        import iclust.optimizer as opt

        def boom(*args, **kwargs):
            raise NumericalError("forced failure")

        monkeypatch.setattr(opt, "greedy_combined_icl", boom)
        data = two_cluster_data(seed=4)
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        with pytest.raises(NumericalError, match="every restart"):
            opt.multi_start(data, params, SearchConfig(max_sweeps=2, restarts=3, seed=0))

    def test_invalid_algorithm(self):
        data = two_cluster_data(seed=4)
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        with pytest.raises(ValueError, match="algorithm"):
            multi_start(data, params, SearchConfig(seed=0), algorithm="annealing")


class TestSeededOutputs:
    """Frozen K, labels and ICL of small seeded searches.

    A refactor that keeps the search's decisions keeps these labels exactly;
    the ICL may move only in its last bits.
    """

    COMBINED = ("122322224223124214223334242222424222212333224424222333233432222422224122314231"
                "323342132123332121443322332244234231222222224243422321334231223441212322")
    PLAIN = ("1223242454431454167438354522245457744148334256252748834885374225422251423152813"
             "28352137173334141553847382755235281724272245453524321335731473551412874")

    @pytest.mark.parametrize("algorithm,K,icl,labels", [
        ("combined", 4, -647.4374028425782, COMBINED),
        ("plain", 8, -694.7591440309632, PLAIN),
    ], ids=["combined", "plain"])
    def test_multivariate(self, algorithm, K, icl, labels):
        data = sample_dataset(150, 4, MvHyperParams(alpha=4.0, tau=0.01, mu=np.zeros(2),
                                                    nu=3.0, omega=0.5),
                              np.random.default_rng(2)).data
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0), nu=3.0,
                               omega=0.5)
        config = SearchConfig(max_sweeps=3, restarts=3, beta1=0.2, beta2=0.04, seed=7)
        sol = multi_start(data, params, config, algorithm=algorithm)
        assert sol.K == K
        assert "".join(map(str, sol.allocation.labels)) == labels
        assert sol.icl == pytest.approx(icl, abs=1e-9)

    COMBINED_B3 = ("12222113213223224121212214212112411421424222124212122111424231134422222422"
                   "2431211212111112222112212122422222141134144222")

    def test_combined_b3(self):
        # b = 3 takes the stacked Cholesky branch of the kernel
        data = sample_dataset(120, 4, MvHyperParams(alpha=4.0, tau=0.01, mu=np.zeros(3),
                                                    nu=4.0, omega=0.5),
                              np.random.default_rng(3)).data
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0), nu=4.0,
                               omega=0.5)
        config = SearchConfig(max_sweeps=3, restarts=3, beta1=0.2, beta2=0.04, seed=7)
        sol = multi_start(data, params, config, algorithm="combined")
        assert sol.K == 4
        assert "".join(map(str, sol.allocation.labels)) == self.COMBINED_B3
        assert sol.icl == pytest.approx(-578.097466915077, abs=1e-9)
        assert sol.restart_bests == pytest.approx(
            (-651.4447260949387, -578.097466915077, -594.8781651736322), abs=1e-9)

    def test_univariate_galaxy(self, galaxy_standardized):
        params = UvHyperParams(alpha=0.5, tau=0.01, mu=0.0, gamma=1.0, delta=0.1)
        sol = multi_start(galaxy_standardized, params,
                          SearchConfig(max_sweeps=3, restarts=3, seed=7))
        assert sol.K == 2
        assert "".join(map(str, sol.allocation.labels)) == "11111" + "2" * 77
        assert sol.icl == pytest.approx(-121.51922005985146, abs=1e-9)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_sweeps"):
            SearchConfig(max_sweeps=0)
        with pytest.raises(ValueError, match="restarts"):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError, match="beta"):
            SearchConfig(beta1=0.0)
        # Beta(0.1, inf) draws 0 and Beta(inf, 0.01) fails inside numpy
        for field in ("beta1", "beta2"):
            for value in (float("inf"), float("nan")):
                with pytest.raises(ValueError, match=field):
                    SearchConfig(**{field: value})
        with pytest.raises(ValueError, match="k_max"):
            SearchConfig(k_max=0)

    def test_solution_sweeps_used(self):
        sol = Solution(
            allocation=Allocation(np.array([1, 2])), K=2, icl=-1.0,
            trace=((0, -2.0), (1, -1.0)), restart_id=0,
        )
        assert sol.sweeps_used == 1
