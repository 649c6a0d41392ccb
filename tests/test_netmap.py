"""Bin discretization and coupling-network construction contracts."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import net_from, random_weights
from couplemap import (
    LagTooLarge,
    joint_probability,
    map_lagged,
    map_pair,
)
from couplemap.netmap import (
    CouplingNetwork,
    bin_indices,
    map_lagged_rows,
    map_pair_rows,
    write_adjacency_tsv,
    write_edge_list_csv,
    write_joint_tsv,
)
from couplemap.series import AlignedPair, TimeSeries, index_series

series_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=60,
)


def pair_of(x_values, y_values):
    n = len(x_values)
    ts = np.arange(n, dtype=np.int64)
    return AlignedPair(
        TimeSeries(ts, np.asarray(x_values, dtype=np.float64)),
        TimeSeries(ts.copy(), np.asarray(y_values, dtype=np.float64)),
    )


class TestDiscretize:
    def test_three_bins(self):
        assert list(bin_indices([1.0, 2.0, 3.0, 1.0], 3)) == [0, 1, 2, 0]

    def test_constant_series(self):
        assert list(bin_indices([5.0, 5.0, 5.0], 4)) == [0, 0, 0]

    def test_endpoints(self):
        assert list(bin_indices([0.0, 1.0], 2)) == [0, 1]

    def test_maximum_clamped_to_last_bin(self):
        idx = bin_indices(np.linspace(0, 1, 11), 10)
        assert idx.max() == 9
        assert idx.min() == 0

    def test_bin_count_too_small(self):
        with pytest.raises(ValueError):
            bin_indices([1.0, 2.0], 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values, bins",
        [
            ([0.0, 1e306, 5e305, 2e305], 1000),  # B * (max - min) overflows
            ([1e308, -1e308, 0.0, 5e307, -5e307, 1e307, 2.0, 3.0], 3),  # max - min does
        ],
    )
    def test_range_out_of_float_range(self, values, bins):
        with pytest.raises(ValueError, match=f"value range times {bins} bins is out of"):
            bin_indices(values, bins)
        stack = np.array([np.arange(len(values), dtype=np.float64), values])
        with pytest.raises(ValueError, match="out of the float range"):
            bin_indices(stack, bins)

    def test_range_near_float_limit(self):
        # B * (max - min) = 1e308 is still finite, so the row is binned
        assert list(bin_indices([0.0, 1e305, 5e304, 2e304], 1000)) == [0, 999, 500, 200]

    def test_series_wrapper(self):
        # map_lagged bins the series' own values: bins 0, 1, 2, 0
        net = map_lagged(index_series([1.0, 2.0, 3.0, 1.0]), lag=1, bin_count=3)
        assert net.weights.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

    @settings(max_examples=60)
    @given(
        values=series_values,
        a=st.floats(min_value=1e-3, max_value=1e3),
        b=st.floats(min_value=-1e3, max_value=1e3),
        bins=st.integers(min_value=2, max_value=12),
    )
    def test_affine_invariance(self, values, a, b, bins):
        base = np.asarray(values)
        scaled = a * base + b
        if not np.all(np.isfinite(scaled)):
            return
        # affine maps can collapse distinct floats; skip those degenerate draws
        if len(np.unique(base)) != len(np.unique(scaled)):
            return
        assert np.array_equal(bin_indices(base, bins), bin_indices(scaled, bins))


class TestCouplingNetwork:
    def test_sizes_come_from_the_weights(self):
        net = CouplingNetwork(np.array([[1, 0, 2], [0, 3, 0], [1, 0, 0]]))
        assert (net.bin_count, net.sample_count) == (3, 7)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            CouplingNetwork(np.array([[-1, 1], [0, 1]]))

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="^weights must be a square matrix$"):
            CouplingNetwork(np.ones((2, 3), dtype=int))

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="^a network needs at least one sample$"):
            CouplingNetwork(np.zeros((3, 3), dtype=np.int64))

    def test_weights_read_only(self):
        net = CouplingNetwork(np.array([[1, 0], [0, 1]]))
        with pytest.raises(ValueError):
            net.weights[0, 0] = 5


class TestMapPair:
    def test_four_step_fixture(self):
        net = map_pair(pair_of([1, 2, 3, 1], [1, 3, 3, 2]), bin_count=3)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 0] = 1  # t=0: both in bin 0, self-loop
        expected[1, 2] = 1
        expected[2, 2] = 1  # t=2: both in bin 2, self-loop
        expected[0, 1] = 1
        assert np.array_equal(net.weights, expected)
        assert net.sample_count == 4
        assert np.trace(net.weights) == 2

    def test_identical_series_purely_diagonal(self, rng):
        values = rng.normal(size=200)
        pair = pair_of(values, values)
        net = map_pair(pair, bin_count=10)
        assert np.array_equal(net.weights, np.diag(np.diagonal(net.weights)))
        assert net.weights.sum() == 200

    def test_swap_transposes(self, rng):
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        fwd = map_pair(pair_of(x, y), bin_count=7)
        rev = map_pair(pair_of(y, x), bin_count=7)
        assert np.array_equal(fwd.weights.T, rev.weights)

    def test_marginals_are_bin_histograms(self, rng):
        x = rng.normal(size=250)
        y = rng.normal(size=250)
        net = map_pair(pair_of(x, y), bin_count=6)
        hist_x = np.bincount(bin_indices(x, 6), minlength=6)
        hist_y = np.bincount(bin_indices(y, 6), minlength=6)
        assert np.array_equal(net.weights.sum(axis=1), hist_x)
        assert np.array_equal(net.weights.sum(axis=0), hist_y)

    def test_independent_uniform_off_diagonal_mass(self):
        rng = np.random.default_rng(7)
        n, b = 100_000, 10
        net = map_pair(pair_of(rng.random(n), rng.random(n)), bin_count=b)
        off_diag = net.sample_count - np.trace(net.weights)
        expected = (b - 1) / b * n
        assert abs(off_diag - expected) <= 0.02 * n

    @settings(max_examples=40)
    @given(values=series_values, bins=st.integers(min_value=2, max_value=10))
    def test_weight_total_is_sample_count(self, values, bins):
        x = np.asarray(values)
        y = x[::-1].copy()
        net = map_pair(pair_of(x, y), bin_count=bins)
        assert int(net.weights.sum()) == net.sample_count == len(x)


class TestMapLagged:
    def test_lag_one_fixture(self):
        net = map_lagged(index_series([1.0, 2.0, 3.0, 1.0]), lag=1, bin_count=3)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 1] = 1
        expected[1, 2] = 1
        expected[2, 0] = 1
        assert np.array_equal(net.weights, expected)
        assert net.sample_count == 3

    def test_bins_come_from_full_range(self):
        # the slices share node identities through the full-series bins:
        # per-slice binning would spread [0,1,2] over the top bins instead
        s = index_series([0.0, 1.0, 2.0, 100.0])
        net = map_lagged(s, lag=1, bin_count=4)
        assert list(bin_indices(s.values, 4)) == [0, 0, 0, 3]
        assert net.weights[0, 0] == 2
        assert net.weights[0, 3] == 1
        assert net.weights.sum() == 3

    def test_monotone_full_bin_count_has_empty_diagonal(self):
        values = np.arange(16, dtype=np.float64)
        net = map_lagged(index_series(values), lag=1, bin_count=16)
        assert np.trace(net.weights) == 0

    def test_lag_equal_to_length(self):
        with pytest.raises(LagTooLarge):
            map_lagged(index_series([1.0, 2.0, 3.0]), lag=3, bin_count=2)

    def test_lag_zero_rejected(self):
        with pytest.raises(ValueError):
            map_lagged(index_series([1.0, 2.0, 3.0]), lag=0, bin_count=2)

    def test_matches_slice_pair_with_shared_bins(self, rng):
        values = rng.normal(size=120)
        lag, bins = 3, 8
        net = map_lagged(index_series(values), lag=lag, bin_count=bins)
        idx = bin_indices(values, bins)
        manual = np.zeros((bins, bins), dtype=np.int64)
        for i, j in zip(idx[:-lag], idx[lag:]):
            manual[i, j] += 1
        assert np.array_equal(net.weights, manual)
        assert net.sample_count == len(values) - lag


class TestRowStacks:
    # each row's network is counted alone from int64 bin indices, at bin
    # counts below, around and past 256
    @pytest.mark.parametrize("bins, rows", [(50, 27), (181, 3), (300, 2)])
    def test_rows_equal_one_by_one(self, rng, bins, rows):
        x = rng.normal(size=(rows, 400))
        y = rng.standard_t(3, size=(rows, 400))
        x[1] = 2.5  # a constant row puts every value in bin 0
        lagged = list(map_lagged_rows(x, 2, bins))
        paired = list(map_pair_rows(x, y, bins))
        assert len(lagged) == len(paired) == rows
        for k in range(rows):
            one = map_lagged(index_series(x[k]), lag=2, bin_count=bins)
            assert np.array_equal(lagged[k].weights, one.weights)
            assert lagged[k].sample_count == one.sample_count == 398
            one = map_pair(pair_of(x[k], y[k]), bin_count=bins)
            assert np.array_equal(paired[k].weights, one.weights)
            assert paired[k].sample_count == one.sample_count == 400
            # against counts made one time step at a time
            xi, yi = bin_indices(x[k], bins), bin_indices(y[k], bins)
            for net, src, dst in [(lagged[k], xi[:-2], xi[2:]), (paired[k], xi, yi)]:
                counts = np.zeros((bins, bins), dtype=np.int64)
                np.add.at(counts, (src, dst), 1)
                assert np.array_equal(net.weights, counts)
        assert lagged[1].weights[0, 0] == 398

    @pytest.mark.parametrize("bins", [200, 50])
    def test_rows_yield_lazily(self, rng, monkeypatch, bins):
        # each network takes one bincount, made only when the network is
        # asked for, whether or not several B x B matrices fit 512 KB
        counted = []
        bincount = np.bincount

        def counting(*args, **kwargs):
            counted.append(1)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        x = rng.normal(size=(3, 400))
        for nets in (map_pair_rows(x, x[::-1], bins), map_lagged_rows(x, 1, bins)):
            counted.clear()
            assert counted == []
            next(nets)
            assert len(counted) == 1
            assert len(list(nets)) == 2
            assert len(counted) == 3

    def test_rows_shapes_checked(self):
        with pytest.raises(ValueError, match="shape"):
            map_pair_rows(np.zeros((2, 5)), np.zeros((2, 1)), 3)

    def test_rows_lag_checked(self):
        with pytest.raises(LagTooLarge):
            map_lagged_rows(np.zeros((2, 5)), 5, 3)
        with pytest.raises(ValueError):
            map_lagged_rows(np.zeros((2, 5)), 0, 3)


class TestJointProbability:
    def test_division(self):
        net = CouplingNetwork(np.array([[2, 0], [0, 2]]))
        jp = joint_probability(net)
        assert np.array_equal(jp, [[0.5, 0.0], [0.0, 0.5]])

    def test_four_step_example(self):
        net = map_pair(pair_of([1, 2, 3, 1], [1, 3, 3, 2]), bin_count=3)
        jp = joint_probability(net)
        assert sorted(jp[jp > 0]) == [0.25, 0.25, 0.25, 0.25]
        assert jp.sum() == pytest.approx(1.0, abs=1e-12)

    def test_probability_validation(self, rng):
        # every mapped network normalizes to a distribution over B x B cells
        for _ in range(25):
            w = random_weights(rng)
            jp = joint_probability(net_from(w))
            assert jp.shape == w.shape
            assert np.all((jp >= 0) & (jp <= 1))
            assert abs(jp.sum() - 1.0) <= 1e-12


class TestExports:
    def test_adjacency_round_trip(self, tmp_path):
        net = map_pair(pair_of([1, 2, 3, 1], [1, 3, 3, 2]), bin_count=3)
        path = tmp_path / "adjacency.tsv"
        write_adjacency_tsv(net, path)
        back = np.loadtxt(path, dtype=np.int64, ndmin=2)
        assert np.array_equal(back, net.weights)

    def test_edge_list_sorted_sparse(self, tmp_path):
        net = map_pair(pair_of([1, 2, 3, 1], [1, 3, 3, 2]), bin_count=3)
        path = tmp_path / "edges.csv"
        write_edge_list_csv(net, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "source,target,weight"
        rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
        assert rows == sorted(rows)
        assert len(rows) == int((net.weights > 0).sum())
        for i, j, w in rows:
            assert net.weights[i, j] == w

    def test_joint_round_trip(self, tmp_path):
        net = map_pair(pair_of([1, 2, 3, 1], [1, 3, 3, 2]), bin_count=3)
        jp = joint_probability(net)
        path = tmp_path / "joint.tsv"
        write_joint_tsv(jp, path)
        back = np.loadtxt(path, ndmin=2)
        assert np.array_equal(back, jp)


def reference_rows(matrix, fmt) -> str:
    """The dense layout formatted cell by cell."""
    return "".join("\t".join(map(fmt, row)) + "\n" for row in matrix.tolist())


def reference_edges(w) -> str:
    """The edge list written cell by cell through the csv module."""
    lines = []

    class Sink:
        write = lines.append

    writer = csv.writer(Sink())
    writer.writerow(["source", "target", "weight"])
    for i, j in zip(*np.nonzero(w)):
        writer.writerow([int(i), int(j), int(w[i, j])])
    return "".join(lines)


class TestWriterBytes:
    """The lookup-table writers give the bytes of per-cell str / repr."""

    def weight_matrices(self, rng):
        heavy = rng.standard_t(3, size=(2, 2447))
        yield map_pair(pair_of(heavy[0], heavy[1]), bin_count=200).weights
        yield map_pair(pair_of([1, 2, 3, 1], [1, 3, 3, 2]), bin_count=3).weights
        yield np.array([[30_000_000, 0], [7, 2**40]], dtype=np.int64).T
        for _ in range(10):
            yield random_weights(rng)

    def test_integer_tables(self, rng, tmp_path):
        for w in self.weight_matrices(rng):
            net = CouplingNetwork(w)
            write_adjacency_tsv(net, tmp_path / "adjacency.tsv")
            write_edge_list_csv(net, tmp_path / "edges.csv")
            with open(tmp_path / "adjacency.tsv", "rb") as fh:
                assert fh.read() == reference_rows(w, str).encode()
            with open(tmp_path / "edges.csv", "rb") as fh:
                assert fh.read() == reference_edges(w).encode()

    def test_probability_tables(self, rng, tmp_path):
        odd = np.array(
            [
                [0.0, -0.0, 0.1 + 0.2, 5e-324],
                [np.nan, np.inf, -np.inf, 1 / 3],
                [1e300, -1e-300, 0.3, 2.0**-1074],
                [1.0, 0.5, 0.25, -0.0],
            ]
        )
        matrices = [odd, odd.T, rng.random((7, 7)), np.zeros((3, 3))]
        matrices += [
            joint_probability(net_from(w)) for w in self.weight_matrices(rng)
        ]
        for p in matrices:
            write_joint_tsv(p, tmp_path / "joint.tsv")
            with open(tmp_path / "joint.tsv", "rb") as fh:
                assert fh.read() == reference_rows(p, repr).encode()
