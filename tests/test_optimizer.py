import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iclust.icl as icl_mod
import iclust.optimizer as opt
from iclust import (
    Allocation,
    DataSet,
    MvHyperParams,
    NumericalError,
    SearchConfig,
    Solution,
    UvHyperParams,
    greedy_combined_icl,
    greedy_icl,
    icl_exact,
    make_state,
    multi_start,
    relabel_compact,
    sample_dataset,
)
from iclust.io import distance_matrix, neighbor_order

from oracles import brute_force_max_icl, combined_search, icl_delta, neighbor_block


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


@st.composite
def picker_cases(draw):
    # a small integer grid makes duplicates and tied distances common, and
    # few labels make whole-group and partial blocks of several members
    b = draw(st.integers(1, 3))
    n = draw(st.integers(1, 14))
    cells = draw(st.lists(st.integers(-1, 1), min_size=n * b, max_size=n * b))
    k = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    visits = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    return dict(x=np.array(cells, dtype=float).reshape(n, b), labels=labels,
                visits=np.array(visits, dtype=np.int64), run=draw(st.integers(1, n)),
                scored=draw(st.sets(st.integers(1, k))),
                betas=draw(st.sampled_from([(0.1, 0.01), (0.5, 0.5), (2.0, 2.0), (1e-9, 1e6)])),
                seed=draw(st.integers(0, 2**32 - 1)), replay=draw(st.integers(0, n - 1)))


def check_picker(case):
    """neighbor_blocks against the one-visit oracle over the visits it drew:
    the same draws, the whole-group visits of a scored group skipped, each
    kept whole-group block its members in index order and every other one
    the oracle's nearest-first prefix. Returns the kinds of blocks seen."""
    data = DataSet(case["x"])
    params = MvHyperParams(alpha=1.0, tau=0.1, mu=np.zeros(data.b), nu=data.b + 0.5,
                           omega=1.0)
    state = make_state(data, relabel_compact(case["labels"]), params)
    order, dist = neighbor_order(data), distance_matrix(data)
    visits, run, (beta1, beta2) = case["visits"], case["run"], case["betas"]
    scored = {g for g in case["scored"] if g <= state.k}
    seen = set(scored)
    rng, twin = np.random.default_rng(case["seed"]), np.random.default_rng(case["seed"])
    saved = rng.bit_generator.state
    members, sizes, rows, drawn = opt.neighbor_blocks(state, visits, run, scored, order,
                                                      beta1, beta2, rng)
    expected = [neighbor_block(i, state.labels, order, beta1, beta2, twin)
                for i in visits[:drawn]]
    assert rng.bit_generator.state == twin.bit_generator.state
    # the skipped visits are exactly the whole-group visits of a group scored
    # before the call or kept earlier in it
    kept, kinds = [], set()
    for p, (i, oracle) in enumerate(zip(visits[:drawn], expected)):
        g = int(state.labels[i])
        if oracle.size == state.counts[g - 1]:
            if g in seen:
                kinds.add("skipped")
                continue
            seen.add(g)
        kept.append(p)
    assert rows == kept
    assert scored == seen
    # it stops once run blocks are kept, or at the end of the visits
    assert drawn == (rows[-1] + 1 if len(rows) == run else len(visits))
    assert members.dtype == np.intp
    assert sizes.tolist() == [len(expected[p]) for p in rows]
    for p, block in zip(rows, np.split(members, np.cumsum(sizes)[:-1])):
        i, oracle = visits[p], expected[p]
        group = np.flatnonzero(state.labels == state.labels[i])
        if block.size == group.size:
            kinds.add("whole")
            assert block.tolist() == group.tolist()
            continue
        kinds.add("single" if block.size == 1 else "partial")
        assert block.tolist() == oracle.tolist()
        # i first, then a prefix of its group ranked by (distance, index)
        others = sorted((j for j in group if j != i), key=lambda j: (dist[i, j], j))
        assert block.tolist() == [i] + others[:len(block) - 1]
    # after the accepted row of visit p the loop rewinds and redraws the
    # sizes up to p, skipped visits included, which must leave the stream
    # where one visit at a time does
    if rows:
        p = rows[case["replay"] % len(rows)]
        rng.bit_generator.state = saved
        opt._block_sizes(state.counts[state.labels[visits[:p + 1]] - 1].tolist(), beta1, beta2,
                         rng)
        twin = np.random.default_rng(case["seed"])
        for i in visits[:p + 1]:
            neighbor_block(i, state.labels, order, beta1, beta2, twin)
        assert rng.bit_generator.state == twin.bit_generator.state
    return kinds


class TestNeighborBlocks:
    @settings(max_examples=300, deadline=None)
    @given(case=picker_cases())
    def test_batched_picker_matches_one_visit_oracle(self, case):
        check_picker(case)

    def test_uint16_order_with_whole_partial_and_single_blocks(self):
        # n = 300 gives a uint16 order, past the property's n <= 14; four
        # groups and a singleton, and U-shaped etas, put every kind in one run
        rng = np.random.default_rng(5)
        labels = np.append(rng.integers(1, 5, size=299), 5)
        case = dict(x=rng.standard_normal((300, 2)), labels=labels,
                    visits=np.append(rng.permutation(299)[:31], 299), run=32, scored=set(),
                    betas=(0.5, 0.5), seed=3, replay=20)
        assert neighbor_order(DataSet(case["x"])).dtype == np.uint16
        assert check_picker(case) == {"whole", "partial", "single"}

    def test_whole_group_blocks_do_not_read_the_order(self):
        # eta -> 1 makes every block its whole group, which must come from the
        # labels alone: permuting the visited rows of the order changes nothing
        rng = np.random.default_rng(8)
        data = DataSet(rng.standard_normal((40, 2)))
        params = MvHyperParams(alpha=1.0, tau=0.1, mu=np.zeros(2), nu=2.5, omega=1.0)
        state = make_state(data, relabel_compact(rng.integers(1, 5, size=40)), params)
        visits = rng.permutation(40)[:16]
        order = neighbor_order(data)
        shuffled = order.copy()
        shuffled[visits] = rng.permuted(order[visits], axis=1)
        calls = []
        for o in (order, shuffled):
            picker_rng = np.random.default_rng(13)
            members, sizes, rows, drawn = opt.neighbor_blocks(state, visits, 16, set(), o,
                                                              1e6, 1e-9, picker_rng)
            calls.append((members.tolist(), sizes.tolist(), rows, drawn,
                          picker_rng.bit_generator.state))
        assert calls[1] == calls[0]
        # the first visit to each group is kept, the other visits skipped
        kept = visits[calls[0][2]]
        assert state.labels[kept].tolist() == list(dict.fromkeys(state.labels[visits].tolist()))
        assert calls[0][1] == state.counts[state.labels[kept] - 1].tolist()
        assert (shuffled[kept] != order[kept]).any()


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

        def counting_best_moves(state, members, sizes, allow_new=True):
            moves = real_best_moves(state, members, sizes, allow_new)
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

        def spy(state, members, sizes, allow_new=True):
            seen_k.append(state.k)
            if state.k >= 2:
                assert not allow_new
            return real_best_moves(state, members, sizes, allow_new)

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

    @pytest.mark.parametrize("k_max", [20, 2, 1])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_combined_matches_every_visit_scored(self, b, k_max):
        # the skip of whole groups already rejected, the runs and the rewinds
        # against the one-visit loop that scores every block
        data, params = _run_scoring_data(b)
        config = SearchConfig(max_sweeps=4, beta1=0.2, beta2=0.04, k_max=k_max)
        order = neighbor_order(data)
        for seed in range(3):
            init = relabel_compact(np.random.default_rng(seed).integers(1, 6, size=data.n))
            sol = greedy_combined_icl(data, params, init, config, order,
                                      np.random.default_rng(seed))
            labels, icl, trace = combined_search(data, params, init, config, order,
                                                 np.random.default_rng(seed))
            assert sol.allocation.labels.tolist() == labels.labels.tolist()
            assert sol.icl.hex() == icl.hex()
            assert sol.trace == trace

    def test_whole_group_scored_once_per_state(self, monkeypatch):
        # no call scores a whole group already scored since the last applied
        # move, and the search does skip visits
        data, params = _run_scoring_data(2)
        config = SearchConfig(max_sweeps=4, restarts=2, k_max=20, seed=5)
        scored, skipped = set(), []
        real_make_state, real_best_moves, real_apply_move, real_neighbor_blocks = (
            icl_mod.make_state, icl_mod.best_moves, icl_mod.apply_move, opt.neighbor_blocks)

        def make_state(*args):
            scored.clear()
            return real_make_state(*args)

        def best_moves(state, members, sizes, allow_new=True):
            moves = real_best_moves(state, members, sizes, allow_new)
            for g, m in zip(moves.sources.tolist(), sizes):
                if m == state.counts[g - 1]:
                    assert g not in scored
                    scored.add(g)
            return moves

        def apply_move(state, moves, j=0):
            scored.clear()
            real_apply_move(state, moves, j)

        def neighbor_blocks(state, visits, *args):
            picked = real_neighbor_blocks(state, visits, *args)
            skipped.append(picked[3] - len(picked[2]))
            return picked

        monkeypatch.setattr(icl_mod, "make_state", make_state)
        monkeypatch.setattr(icl_mod, "best_moves", best_moves)
        monkeypatch.setattr(icl_mod, "apply_move", apply_move)
        monkeypatch.setattr(opt, "neighbor_blocks", neighbor_blocks)
        multi_start(data, params, config)
        assert sum(skipped) > 0

    @pytest.mark.parametrize("algorithm", ["plain", "combined"])
    def test_run_doubles_and_never_shrinks(self, monkeypatch, algorithm):
        # replays the run rule over the kernel calls of each restart: a plain
        # call scores min(run, visits left in the sweep) rows, a combined call
        # run rows unless its picker drew the sweep's last visit; the run
        # doubles after a call without an acceptance, up to RUN_MAX, and an
        # acceptance or a picker with nothing to score keeps it
        data, params = _run_scoring_data(2)
        config = SearchConfig(max_sweeps=4, restarts=2, k_max=20, seed=5)
        events = []
        real_make_state, real_best_moves, real_apply_move, real_neighbor_blocks = (
            icl_mod.make_state, icl_mod.best_moves, icl_mod.apply_move, opt.neighbor_blocks)

        def make_state(*args):
            events.append(("restart", 0))
            return real_make_state(*args)

        def neighbor_blocks(state, visits, *args):
            picked = real_neighbor_blocks(state, visits, *args)
            events.append(("pick", picked[3] == len(visits)))
            return picked

        def best_moves(state, members, sizes, allow_new=True):
            events.append(("call", len(sizes)))
            return real_best_moves(state, members, sizes, allow_new)

        def apply_move(state, moves, j=0):
            events.append(("accept", j))
            real_apply_move(state, moves, j)

        monkeypatch.setattr(icl_mod, "make_state", make_state)
        monkeypatch.setattr(opt, "neighbor_blocks", neighbor_blocks)
        monkeypatch.setattr(icl_mod, "best_moves", best_moves)
        monkeypatch.setattr(icl_mod, "apply_move", apply_move)
        multi_start(data, params, config, algorithm=algorithm)
        assert [kind for kind, _ in events].count("restart") == 2
        after_acceptance = []
        for i, (kind, value) in enumerate(events):
            if kind == "restart":
                run, pos, accepted = 1, 0, False
            elif kind == "pick":
                at_end = value
            elif kind == "call":
                if algorithm == "plain":
                    assert value == min(run, data.n - pos)
                else:
                    assert value == run or at_end and value < run
                if accepted:
                    after_acceptance.append(value)
                accepted = False
                if i + 1 == len(events) or events[i + 1][0] != "accept":
                    pos += value
                    run = min(2 * run, opt.RUN_MAX)
            else:
                accepted = True
                pos += value + 1
            pos %= data.n
        # the replay has seen an acceptance keep a run longer than one visit
        assert max(after_acceptance) > 1

    @pytest.mark.parametrize("algorithm", ["plain", "combined"])
    def test_failed_row_after_an_acceptance_is_dropped(self, monkeypatch, algorithm):
        # the rows after the first accepted one are never read, so flagging
        # them changes nothing
        data, params = _run_scoring_data(2)
        config = SearchConfig(max_sweeps=4, restarts=2, k_max=20, seed=4)
        clean = multi_start(data, params, config, algorithm=algorithm)
        real_best_moves = icl_mod.best_moves
        flagged = []

        def flag_after_acceptance(state, members, sizes, allow_new=True):
            moves = real_best_moves(state, members, sizes, allow_new)
            accepted = np.flatnonzero(moves.gains > opt.EPSILON)
            if accepted.size and accepted[0] + 1 < len(sizes):
                moves.failed[accepted[0] + 1:] = True
                flagged.append(len(sizes) - accepted[0] - 1)
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

        def flag_second_row(state, members, sizes, allow_new=True):
            moves = real_best_moves(state, members, sizes, allow_new)
            calls.append(len(sizes))
            if len(sizes) > 1 and not moves.gains[0] > opt.EPSILON:
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
        # the delta-accumulated score may drift in its last bits at a 1e8
        # offset; the reported value and every restart's best must be exact
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
        # deltas, which may drift in the last bits at a 1e8 offset
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

    @pytest.mark.parametrize("foreign", ["larger", "float"])
    def test_foreign_order_is_a_value_error(self, foreign):
        # another dataset's order used to die inside neighbor_blocks with a
        # bare IndexError, and a float order on its use as an index
        rng = np.random.default_rng(11)
        data = DataSet(rng.standard_normal((40, 2)))
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0),
                               nu=3.0, omega=1.0)
        if foreign == "larger":
            order = neighbor_order(DataSet(rng.standard_normal((60, 2))))
        else:
            order = neighbor_order(data).astype(float)
        config = SearchConfig(max_sweeps=2, restarts=2, seed=0)
        expected = r"integer array of shape \(40, 40\)"
        with pytest.raises(ValueError, match=expected):
            multi_start(data, params, config, order=order)
        init = relabel_compact(rng.integers(1, 4, size=data.n))
        with pytest.raises(ValueError, match=expected):
            greedy_combined_icl(data, params, init, config, order, np.random.default_rng(0))

    @pytest.mark.parametrize("case", ["galaxy", "b2-300"])
    def test_saved_wider_order_gives_the_same_search(self, case, galaxy_standardized):
        # an order saved by an older version is intp; no code does arithmetic
        # on order entries, so the narrow order's search is the wide one's
        if case == "galaxy":
            data = galaxy_standardized
            params = UvHyperParams(alpha=0.5, tau=0.01, mu=0.0, gamma=1.0, delta=0.1)
        else:
            gen = MvHyperParams(alpha=4.0, tau=0.001, mu=np.zeros(2), nu=3.0, omega=0.5)
            data = sample_dataset(300, 4, gen, np.random.default_rng(5)).data
            params = MvHyperParams(alpha=4.0, tau=0.01, mu=data.values.mean(axis=0), nu=3.0,
                                   omega=0.5)
        order = neighbor_order(data)
        assert order.dtype == (np.uint8 if case == "galaxy" else np.uint16)
        config = SearchConfig(max_sweeps=4, restarts=3, beta1=0.2, beta2=0.04, seed=3)
        runs = [multi_start(data, params, config, order=o)
                for o in (order, order.astype(np.intp), order.astype(np.int32))]
        for run in runs[1:]:
            assert run.K == runs[0].K
            assert run.allocation.labels.tolist() == runs[0].allocation.labels.tolist()
            assert run.icl == runs[0].icl
            assert run.restart_bests == runs[0].restart_bests


@st.composite
def extreme_searches(draw):
    # finite data anywhere in 1e-300..1e300, both signs, with duplicate rows;
    # n up to 300 gives combined runs both uint8 and uint16 orders, and the
    # two ranges keep the larger n as common as the smaller
    b = draw(st.integers(1, 3))
    n = draw(st.integers(1, 256) | st.integers(257, 300))
    lo = draw(st.integers(-300, 300))
    hi = draw(st.integers(lo, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.integers(1, n + 1)
    rows = rng.choice([-1.0, 1.0], size=(distinct, b)) * 10.0 ** rng.uniform(lo, hi,
                                                                            (distinct, b))
    data = DataSet(rows[rng.integers(distinct, size=n)])
    mu = draw(st.sampled_from(["zero", "mean", "row"]))
    mu = {"zero": np.zeros(b), "mean": data.values.mean(axis=0), "row": data.values[0]}[mu]
    if b == 1 and draw(st.booleans()):
        params = UvHyperParams(alpha=1.0, tau=0.1, mu=float(mu[0]), gamma=1.5, delta=1.0)
    else:
        params = MvHyperParams(alpha=1.0, tau=0.1, mu=mu, nu=b + 1.0, omega=1.0)
    return data, params, draw(st.sampled_from(["plain", "combined"])), draw(st.integers(0, 99))


class TestNeverNaN:
    @settings(max_examples=60, deadline=None)
    @given(case=extreme_searches())
    def test_exact_finite_icl_or_a_typed_error(self, case):
        # squares past 1e308 overflow; numpy's overflow warnings stay warnings
        # here, as in a user's process (see test_cli's _cluster_process), and
        # what is checked is how the run ends
        data, params, algorithm, seed = case
        config = SearchConfig(max_sweeps=2, restarts=2, k_max=10, seed=seed)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always", RuntimeWarning)
            try:
                sol = multi_start(data, params, config, algorithm=algorithm)
            except (NumericalError, ValueError):
                return
            exact = icl_exact(data, sol.allocation, params).total
        assert np.isfinite(sol.icl)
        assert sol.icl == exact
        assert all(v is None or np.isfinite(v) for v in sol.restart_bests)


@st.composite
def near_duplicate_searches(draw):
    # a few distinct points, each repeated, mirrored through a centre point
    # and moved by an offset of either sign, under the command line's default
    # prior: mu is the data centre, so a group of centre copies has d ~ 0 and
    # only xi keeps its posterior scale positive definite once a far member
    # leaves it.
    # Bounds. At b = 1 every exact posterior scale is xi + S + c d^2, a sum of
    # non-negative terms; with |x| <= 2e100 < 2^334 and n <= 210, no square
    # (< 2^670), scatter or merge term (< 2^690) comes near the 2^1024
    # overflow. At b = 2 the kernel's closed-form determinant a d - b^2 of
    # P = I + M is at least 1 + tr M and is rounded by about 3 n eps (tr P)^2;
    # with |x - mu| <= 2e4 per coordinate, tr P <= 2 + 211 * 2 * (2e4)^2 <
    # 2^38, so that error stays below 4% of the determinant.
    b = draw(st.integers(1, 2))
    top = draw(st.integers(0, 100 if b == 1 else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 3)), b)
    pairs = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(top - 3, top, size=shape)
    counts = draw(st.lists(st.integers(1, 30), min_size=len(pairs), max_size=len(pairs)))
    centre = draw(st.integers(0, 30))
    x = np.concatenate([np.zeros((centre, b)), np.repeat(pairs, counts, axis=0),
                        np.repeat(-pairs, counts, axis=0)])
    offset = draw(st.sampled_from([-1.0, 0.0, 1.0])) * 10.0 ** draw(st.integers(0, top))
    data = DataSet(x[rng.permutation(len(x))] + offset)
    mu = data.values.mean(axis=0)
    if b == 1:
        params = UvHyperParams(alpha=4.0, tau=0.01, mu=float(mu[0]), gamma=0.5, delta=0.5)
    else:
        params = MvHyperParams(alpha=4.0, tau=0.01, mu=mu, nu=3.0, omega=1.0)
    return data, params, draw(st.integers(0, 99))


class TestNearDuplicates:
    @settings(max_examples=60, deadline=None)
    @given(case=near_duplicate_searches())
    def test_every_restart_ends_at_its_exact_finite_icl(self, case):
        data, params, seed = case
        for algorithm in ("plain", "combined"):
            sol = multi_start(data, params, SearchConfig(max_sweeps=2, restarts=2, seed=seed),
                              algorithm=algorithm)
            assert None not in sol.restart_bests
            assert np.isfinite(sol.icl)
            assert sol.icl == icl_exact(data, sol.allocation, params).total


@st.composite
def shifted_searches(draw):
    # data and mu on a 2^-20 grid with |x| < 2^10 and an integer shift with
    # |c| <= 2^20, so x + c and mu + c are exact and so is (x + c) - (mu + c)
    b = draw(st.integers(1, 3))
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.uniform(-8.0, 8.0, size=(draw(st.integers(1, 4)), b))
    x = centres[rng.integers(len(centres), size=n)] + rng.standard_normal((n, b))
    grid = 2.0**-20
    mu = np.array(draw(st.lists(st.integers(-2**23, 2**23), min_size=b, max_size=b))) * grid
    return dict(x=np.round(x / grid) * grid, mu=mu, shift=float(draw(st.integers(-2**20, 2**20))),
                uv=b == 1 and draw(st.booleans()), algorithm=draw(st.sampled_from(["plain",
                                                                                   "combined"])),
                seed=draw(st.integers(0, 1000)))


class TestShiftInvariance:
    @settings(max_examples=100, deadline=None)
    @given(case=shifted_searches())
    def test_shifting_data_and_mu_together_changes_nothing(self, case):
        def search(shift):
            data = DataSet(case["x"] + shift)
            mu = case["mu"] + shift
            if case["uv"]:
                params = UvHyperParams(alpha=1.5, tau=0.1, mu=float(mu[0]), gamma=1.0, delta=0.5)
            else:
                params = MvHyperParams(alpha=1.5, tau=0.1, mu=mu, nu=data.b + 0.5, omega=0.5)
            config = SearchConfig(max_sweeps=3, restarts=2, k_max=8, beta1=0.5, beta2=0.5,
                                  seed=case["seed"])
            return multi_start(data, params, config, algorithm=case["algorithm"])

        base, moved = search(0.0), search(case["shift"])
        assert moved.K == base.K
        assert moved.allocation.labels.tolist() == base.allocation.labels.tolist()
        assert moved.icl == base.icl
        assert moved.restart_bests == base.restart_bests


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
        # numpy's SeedSequence would reject these only inside multi_start
        for seed in (-1, 2.5):
            with pytest.raises(ValueError, match="seed"):
                SearchConfig(seed=seed)

    @pytest.mark.parametrize("field", ["max_sweeps", "restarts", "k_max"])
    def test_counts_must_be_integers(self, field):
        # range() would only fail inside multi_start, after the neighbour
        # order is built, and k_max = 2.5 would run as if it were 3
        for value in (2.5, 2.0):
            with pytest.raises(ValueError, match=field):
                SearchConfig(**{field: value})

    def test_solution_sweeps_used(self):
        sol = Solution(
            allocation=Allocation(np.array([1, 2])), K=2, icl=-1.0,
            trace=((0, -2.0), (1, -1.0)), restart_id=0,
        )
        assert sol.sweeps_used == 1
