import re

import numpy as np
import pytest

from iclust import (
    Allocation,
    DataSet,
    GroupStats,
    MvHyperParams,
    UvHyperParams,
    stats_downdate,
    validate_hyperparams,
)
from iclust.icl import icl_exact, make_state


class TestDataSet:
    def test_shape_fields(self):
        data = DataSet(np.arange(6.0).reshape(3, 2))
        assert data.n == 3 and data.b == 2

    def test_1d_input_becomes_column(self):
        data = DataSet(np.array([1.0, 2.0, 3.0]))
        assert data.values.shape == (3, 1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            DataSet(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DataSet(np.empty((0, 2)))

    def test_values_immutable(self):
        data = DataSet(np.ones((2, 2)))
        with pytest.raises(ValueError):
            data.values[0, 0] = 5.0


class TestAllocation:
    def test_compact_ok(self):
        alloc = Allocation(np.array([1, 2, 1, 3]))
        assert alloc.K == 3
        assert np.bincount(alloc.labels)[1:].tolist() == [2, 1, 1]

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="missing group"):
            Allocation(np.array([1, 3, 3]))

    def test_missing_groups_listed_in_ascending_order(self):
        with pytest.raises(ValueError, match=re.escape("missing group(s) [2, 3]")):
            Allocation(np.array([1, 4, 4]))

    def test_zero_label_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            Allocation(np.array([0, 1]))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            Allocation(np.array([1.0, 1.5]))


class TestHyperParams:
    def test_paper_defaults_valid(self):
        p = MvHyperParams(alpha=4.0, tau=0.01, mu=np.zeros(2), nu=3.0, omega=1.0)
        assert validate_hyperparams(p, 2) is p

    def test_nu_at_most_b_minus_1_rejected(self):
        with pytest.raises(ValueError, match="nu"):
            MvHyperParams(alpha=4.0, tau=0.01, mu=np.zeros(2), nu=1.0, omega=1.0)

    def test_tau_zero_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            MvHyperParams(alpha=4.0, tau=0.0, mu=np.zeros(2), nu=3.0, omega=1.0)

    def test_dimension_mismatch(self):
        p = MvHyperParams(alpha=4.0, tau=0.01, mu=np.zeros(3), nu=4.0, omega=1.0)
        with pytest.raises(ValueError, match="length 3"):
            validate_hyperparams(p, 2)

    def test_univariate_needs_b1(self):
        # the Gamma(gamma, rate delta) precision is the 1x1 Wishart with
        # nu = 2 gamma and inverse scale 2 delta
        p = UvHyperParams(alpha=4.0, tau=0.01, mu=0.3, gamma=0.7, delta=0.2)
        w = validate_hyperparams(p, 1)
        assert isinstance(w, MvHyperParams)
        assert (w.alpha, w.tau) == (p.alpha, p.tau)
        assert w.nu == 2 * p.gamma
        assert w.scale_matrix().tolist() == [[2 * p.delta]]
        assert w.log_det_scale == np.log(2 * p.delta)
        assert w.mu.tolist() == [p.mu]
        with pytest.raises(ValueError, match="1-d"):
            validate_hyperparams(p, 2)

    def test_uv_positivity(self):
        with pytest.raises(ValueError, match="delta"):
            UvHyperParams(alpha=1.0, tau=1.0, mu=0.0, gamma=0.5, delta=-1.0)

    def test_full_xi_accepted(self):
        xi = np.array([[2.0, 0.3], [0.3, 1.0]])
        p = MvHyperParams(alpha=4.0, tau=0.01, mu=np.zeros(2), nu=3.0, xi=xi)
        assert np.allclose(p.scale_matrix(), xi)
        chol = np.linalg.cholesky(xi)
        assert p.log_det_scale == pytest.approx(2 * np.log(np.diag(chol)).sum(), abs=1e-14)

    def test_non_pd_xi_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            MvHyperParams(alpha=4.0, tau=0.01, mu=np.zeros(2), nu=3.0,
                          xi=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestGroupStats:
    def test_add_remove_inverse(self, rng):
        # removing one observation, as a single-observation move does
        pts = rng.standard_normal((6, 2))
        x = rng.standard_normal((1, 2))
        st = GroupStats.from_points(pts)
        back = stats_downdate(GroupStats.from_points(np.vstack([pts, x])), GroupStats.from_points(x))
        assert back.n == st.n
        assert np.max(np.abs(back.mean - st.mean)) < 1e-10
        assert np.max(np.abs(back.scatter - st.scatter)) < 1e-10

    def test_remove_from_empty_errors(self):
        with pytest.raises(ValueError, match="cannot remove more"):
            stats_downdate(GroupStats.empty(2), GroupStats.from_points(np.zeros((1, 2))))

    def test_scatter_zero_when_single(self, rng):
        pts = rng.standard_normal((2, 2))
        st = stats_downdate(GroupStats.from_points(pts), GroupStats.from_points(pts[1:]))
        assert st.n == 1
        assert np.all(st.scatter == 0.0)

    def test_scatter_symmetric_psd(self, rng):
        pts = rng.standard_normal((20, 3))
        st = GroupStats.from_points(pts)
        assert np.array_equal(st.scatter, st.scatter.T)
        assert np.all(np.linalg.eigvalsh(st.scatter) > -1e-12)

    def test_merge_downdate_roundtrip(self, rng):
        pa = rng.standard_normal((7, 2))
        pb = rng.standard_normal((4, 2))
        a = GroupStats.from_points(pa)
        total = GroupStats.from_points(np.vstack([pa, pb]))
        back = stats_downdate(total, GroupStats.from_points(pb))
        assert back.n == a.n
        assert np.max(np.abs(back.mean - a.mean)) < 1e-10
        assert np.max(np.abs(back.scatter - a.scatter)) < 1e-10

    def test_merge_matches_pooled_two_pass(self, rng, mv_params):
        # best_move merges the block into every group at once; the winning
        # target's column of merged statistics must match a two-pass
        # recomputation
        from iclust.icl import best_move

        pa = rng.standard_normal((5, 2))
        pb = rng.standard_normal((9, 2)) + np.array([30.0, 0.0])
        data = DataSet(np.vstack([pa, pb]))
        labels = np.array([1] * 5 + [2] * 9)
        labels[5] = 1  # a member of the far cluster sits in group 1
        state = make_state(data, labels, mv_params)
        moves = best_move(state, np.array([5]), allow_new=False)
        assert (moves.sources[0], moves.targets[0]) == (1, 2)
        ref = GroupStats.from_points(data.values[5:])
        assert moves.counts[0, 1] == ref.n
        assert np.max(np.abs(moves.means[0, 1] - ref.mean)) < 1e-12
        assert np.max(np.abs(moves.scatters[0, 1] - ref.scatter)) < 1e-10


def test_cluster_state_consistency(small_data, mv_params, rng):
    from iclust import neighbor_block, neighbor_order
    from iclust.icl import apply_move, best_move

    # two clusters four apart, so nearest-neighbour blocks both open a fresh
    # group and empty groups of the three-group start
    data = DataSet(small_data.values + np.repeat([[0.0, 0.0], [4.0, 0.0]], 6, axis=0))
    order = neighbor_order(data)
    z = Allocation(np.array([1] * 4 + [2] * 4 + [3] * 4))
    state = make_state(data, z, mv_params)
    fresh = deleted = 0
    for _ in range(80):
        i = int(rng.integers(data.n))
        moves = best_move(state, neighbor_block(i, state.labels, order, 0.5, 0.5, rng))
        if moves.targets[0] != moves.sources[0]:
            k = state.k
            apply_move(state, moves)
            fresh += moves.targets[0] == k + 1
            deleted += moves.counts[0, -1] == 0
            # the last row is the spare empty row and the labels stay 1..K
            assert state.counts[-1] == 0 and state.group_evidence[-1] == 0.0
            assert np.all(state.means[-1] == 0.0) and np.all(state.scatters[-1] == 0.0)
            assert np.array_equal(np.unique(state.labels), np.arange(1, state.k + 1))
    # both structural paths ran: a fresh group opened and a group emptied
    assert fresh > 0 and deleted > 0
    # stats consistent with membership recomputation
    for g in range(1, state.k + 1):
        ref = GroupStats.from_points(data.values[state.labels == g])
        assert state.counts[g - 1] == ref.n
        assert np.max(np.abs(state.means[g - 1] - ref.mean)) < 1e-10
        assert np.max(np.abs(state.scatters[g - 1] - ref.scatter)) < 1e-10
    # cached objective agrees with a from-scratch evaluation
    exact = icl_exact(data, state.labels, mv_params).total
    assert abs(state.icl - exact) < 1e-8
