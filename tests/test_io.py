import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iclust import Allocation, DataSet, MvHyperParams, Solution, UvHyperParams
from iclust.icl import _block_stats
from iclust.io import (
    distance_matrix,
    hyperparams_to_dict,
    neighbor_order,
    read_csv,
    read_labels_csv,
    standardize,
    write_csv,
    write_result,
)

from oracles import reference_distances


class TestReadCsv:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        data = read_csv(p)
        assert data.n == 2 and data.b == 2
        assert data.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n3,4\n")
        assert read_csv(p).n == 2

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        # a BOM glued to the first cell must not turn the first row into a header
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbf1.5,2\n3,4\n5,6\n")
        assert read_csv(p).values.tolist() == [[1.5, 2.0], [3.0, 4.0], [5.0, 6.0]]
        p.write_bytes(b"\xef\xbb\xbfx,y\n3,4\n")
        assert read_csv(p).values.tolist() == [[3.0, 4.0]]

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="line 2"):
            read_csv(p)

    def test_non_numeric_cell_names_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,abc\n")
        with pytest.raises(ValueError, match="line 2, column 2"):
            read_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(p)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "nope.csv")

    def test_roundtrip_exact(self, tmp_path, rng):
        values = rng.standard_normal((17, 3)) * np.pi
        p = tmp_path / "d.csv"
        write_csv(values, p)
        back = read_csv(p)
        assert np.array_equal(back.values, values)


class TestStandardize:
    def test_symmetric_three_points(self):
        data, means, sds = standardize(DataSet(np.array([[1.0], [2.0], [3.0]])))
        assert data.values[:, 0].tolist() == [-1.0, 0.0, 1.0]
        assert means[0] == 2.0 and sds[0] == 1.0

    def test_postconditions(self, rng):
        data, _, _ = standardize(DataSet(rng.standard_normal((50, 3)) * 7 + 3))
        assert np.all(np.abs(data.values.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(data.values.std(axis=0, ddof=1) - 1) < 1e-12)

    def test_constant_column_names_column(self):
        with pytest.raises(ValueError, match="column 2"):
            standardize(DataSet(np.array([[1.0, 5.0], [2.0, 5.0]])))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale_matches_unit_scale(self, scale):
        # the squares of the raw values overflow at 1e200 and underflow at 1e-200
        values = np.random.default_rng(1).standard_normal((40, 2))
        data, means, sds = standardize(DataSet(values * scale))
        assert np.all(np.isfinite(means)) and np.all(np.isfinite(sds)) and np.all(sds > 0)
        np.testing.assert_allclose(data.values, standardize(DataSet(values))[0].values,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("value, n", [(0.0, 3), (1e-200, 3), (1e200, 3), (5.0, 2),
                                          (0.1, 3), (7.7, 7)])
    def test_constant_column_fails_at_any_scale(self, value, n):
        # at 0.1 x 3 and 7.7 x 7 the rounded mean is not the value, so the sd is not 0
        with pytest.raises(ValueError, match="column 1 has zero variance"):
            standardize(DataSet(np.column_stack([np.full(n, value), np.arange(n)])))


class TestDistanceMatrix:
    def test_three_four_five(self):
        data = DataSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
        d = distance_matrix(data)
        assert d[0, 1] == pytest.approx(5.0, abs=1e-15)

    def test_manhattan(self):
        data = DataSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
        d = distance_matrix(data, metric="manhattan")
        assert d[0, 1] == pytest.approx(7.0, abs=1e-15)

    def test_metric_axioms(self, rng):
        data = DataSet(rng.standard_normal((15, 3)))
        d = distance_matrix(data)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0.0)

    def test_unknown_metric(self, small_data):
        with pytest.raises(ValueError, match="metric"):
            distance_matrix(small_data, metric="cosine")

    def test_standardized_distances_scale_invariant(self, rng):
        raw = rng.standard_normal((20, 2))
        scaled = raw * np.array([13.0, 0.04]) + np.array([-5.0, 2.0])
        d1 = distance_matrix(standardize(DataSet(raw))[0])
        d2 = distance_matrix(standardize(DataSet(scaled))[0])
        assert np.max(np.abs(d1 - d2)) < 1e-10


@st.composite
def grid_points(draw, max_b=10, scales=(1.0,)):
    # a small integer grid makes duplicate points and tied distances common;
    # n past 64 spans more than one row block of neighbor_order, and b past 7
    # crosses numpy's 8-term boundary, where its sums turn pairwise. A scale
    # like 0.1 rounds the grid, so distances tied in exact arithmetic may
    # differ in their last bits.
    b = draw(st.integers(1, max_b))
    n = draw(st.integers(1, 150))
    cells = draw(st.lists(st.integers(-3, 3), min_size=n * b, max_size=n * b))
    return DataSet(np.array(cells, dtype=float).reshape(n, b) * draw(st.sampled_from(scales)))


def _tied_line(n):
    # a b = 1 integer grid ties most distances, so rows lean on the stable re-sort
    return DataSet(np.random.default_rng(n).integers(-20, 21, size=n).astype(float))


def _rounded_plane(n):
    # normal data rounded to one decimal ties many distances in every row
    return DataSet(np.round(np.random.default_rng(n).standard_normal((n, 2)), 1))


def _assert_rows_are_lexsort(order, dist):
    idx = np.arange(len(dist))
    for i in range(len(dist)):
        # i first, even ahead of a duplicate of it with a smaller index
        key = dist[i].copy()
        key[i] = -1.0
        assert np.array_equal(order[i], np.lexsort((idx, key)))


ONE_UP = np.nextafter(1.0, np.inf)


class TestNeighborOrder:
    @settings(max_examples=150, deadline=None)
    @given(data=grid_points(), metric=st.sampled_from(["euclidean", "manhattan"]))
    # 256 rows is the last n whose indices fit a uint8, 257 the first of uint16
    @example(data=_tied_line(256), metric="euclidean")
    @example(data=_tied_line(257), metric="euclidean")
    # a uint16 order whose 64-row blocks are full of tied rows
    @example(data=_rounded_plane(300), metric="euclidean")
    @example(data=_rounded_plane(300), metric="manhattan")
    # one row, and two: the index takes 0 and 1 key bits
    @example(data=DataSet(np.array([0.5])), metric="euclidean")
    @example(data=DataSet(np.array([0.5, -2.0])), metric="manhattan")
    @example(data=DataSet(np.array([1.0, 1.0])), metric="euclidean")
    # 0's distances to 1 and to its next double differ by one ulp, inside the
    # two low key bits that n = 3 gives the index, so their keys share
    # distance bits and only the exact distances order them, either way round
    @example(data=DataSet(np.array([0.0, 1.0, -ONE_UP])), metric="euclidean")
    @example(data=DataSet(np.array([0.0, ONE_UP, -1.0])), metric="euclidean")
    @example(data=DataSet(np.array([0.0, ONE_UP, -1.0])), metric="manhattan")
    def test_rows_are_lexsort_of_distance_matrix(self, data, metric):
        order = neighbor_order(data, metric)
        assert order.shape == (data.n, data.n)
        assert order.dtype == np.min_scalar_type(data.n - 1)
        _assert_rows_are_lexsort(order, distance_matrix(data, metric))

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_overflowing_distances(self, metric):
        # an integer grid at 1e200: euclidean squares overflow, so every
        # distance between distinct points is infinite and ties; manhattan
        # sums stay finite. numpy's overflow warnings are recorded, not raised
        cells = np.random.default_rng(7).integers(-3, 4, size=(150, 2))
        data = DataSet(cells * 1e200)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always", RuntimeWarning)
            order = neighbor_order(data, metric)
            dist = distance_matrix(data, metric)
        assert np.isinf(dist).any() == (metric == "euclidean")
        _assert_rows_are_lexsort(order, dist)

    @settings(max_examples=150, deadline=None)
    @given(data=grid_points(max_b=7, scales=(1.0, 0.1, 1 / 3)),
           metric=st.sampled_from(["euclidean", "manhattan"]))
    def test_rows_are_lexsort_of_reference_distances(self, data, metric):
        # up to b = 7 the column-wise sums are the broadcast expression's bits
        _assert_rows_are_lexsort(neighbor_order(data, metric),
                                 reference_distances(data.values, data.values, metric))

    def test_peak_memory_below_two_index_arrays(self):
        # the n x n index array is itemsize n^2 bytes (2 n^2 at n = 2000); the
        # build adds its two 64 x n float buffers, and little else: measured
        # 1.17 times those buffers above the order at b = 3 (a 64 x n bool of
        # the tie check, and a few n-long arrays), so 1.5 leaves headroom
        n = 2000
        data = DataSet(np.random.default_rng(0).standard_normal((n, 3)))
        tracemalloc.start()
        try:
            order = neighbor_order(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size, buffers = order.itemsize * n * n, 2 * 8 * 64 * n
        assert peak < size + 1.5 * buffers, f"peak {(peak - size) / buffers:.2f} x the buffers"

    @pytest.mark.parametrize("b", [2, 3, 6])
    def test_block_stats_peak_memory_below_three_gathers(self, b):
        # the search's block statistics gather b x M floats for M members;
        # summing the products pair by pair keeps the scratch near two such
        # arrays, where a b x b x M product stack would take b + 2
        columns = np.random.default_rng(b).standard_normal((b, 5000))
        sizes = np.full(32, 600)
        members = np.random.default_rng(0).integers(0, 5000, size=sizes.sum())
        gathered = 8 * b * members.size
        tracemalloc.start()
        try:
            _block_stats(columns, members, sizes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * gathered, f"peak {peak / gathered:.2f} x 8 b M bytes"


class TestResultDocument:
    def make_solution(self):
        return Solution(
            allocation=Allocation(np.array([1, 1, 2, 3, 2])),
            K=3,
            icl=-12.345678901234567,
            trace=((0, -20.0), (1, -12.345678901234567)),
            restart_id=4,
            restart_bests=(-15.0, -12.345678901234567),
        )

    def test_roundtrip_identical_fields(self, tmp_path):
        sol = self.make_solution()
        params = MvHyperParams(alpha=0.5, tau=0.01, mu=np.array([0.1, -0.2]), nu=3.0, omega=1.0)
        meta = {"seed": 7, "restarts": 2, "runtime_ms": 12.5, "algorithm": "combined",
                "metric": "euclidean", "standardize": True, "beta1": 0.1, "beta2": 0.01,
                "k_max": 20}
        path = tmp_path / "out.json"
        write_result(sol, params, meta, path)
        doc = json.loads(path.read_text())
        assert doc["K"] == sol.K
        assert doc["icl_ex"] == sol.icl  # shortest round-trip floats are exact
        assert doc["labels"] == sol.allocation.labels.tolist()
        assert doc["restart_best"] == list(sol.restart_bests)
        assert doc["sweeps"] == sol.sweeps_used
        assert doc["seed"] == 7 and doc["restarts"] == 2
        assert doc["hyperparams"]["alpha"] == 0.5
        assert doc["hyperparams"]["mu"] == [0.1, -0.2]

    def test_univariate_hyperparams_dict(self):
        p = UvHyperParams(alpha=0.5, tau=0.01, mu=0.0, gamma=1.0, delta=0.1)
        d = hyperparams_to_dict(p)
        assert d["family"] == "univariate"
        assert d["gamma"] == 1.0 and d["delta"] == 0.1

    def test_missing_directory_errors(self, tmp_path):
        sol = self.make_solution()
        params = UvHyperParams(alpha=0.5, tau=0.01, mu=0.0, gamma=1.0, delta=0.1)
        with pytest.raises(OSError):
            write_result(sol, params, {}, tmp_path / "absent" / "out.json")

    def test_labels_length_matches_n(self, tmp_path):
        sol = self.make_solution()
        params = UvHyperParams(alpha=0.5, tau=0.01, mu=0.0, gamma=1.0, delta=0.1)
        path = tmp_path / "out.json"
        write_result(sol, params, {}, path)
        doc = json.loads(path.read_text())
        assert len(doc["labels"]) == len(sol.allocation)


class TestReadLabels:
    def test_reads_single_column_ints(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("1\n2\n1\n")
        assert read_labels_csv(p).tolist() == [1, 2, 1]

    def test_rejects_two_columns(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("1,2\n2,3\n")
        with pytest.raises(ValueError, match="one column"):
            read_labels_csv(p)

    def test_rejects_fractional(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("1.5\n2\n")
        with pytest.raises(ValueError, match="integers"):
            read_labels_csv(p)
