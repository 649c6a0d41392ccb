"""Measure battery vs brute-force oracles and the hand-enumerated fixtures."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import adjacency, edges_net, net_from, random_weights, special_weight_matrices
from couplemap import joint_probability, measure_all
from couplemap.ensemble import EnsembleConfig, derive_seed
from couplemap.metrics import (
    _STACK_MIN,
    MEASURE_FIELDS,
    MeasureReport,
    assortativity_stats,
    clustering_stats,
    deformation_ratio,
    degree_stats,
    detect_communities,
    measure_many,
    modularity_stats,
    path_stats,
)
from couplemap.netmap import map_lagged, map_lagged_rows, map_pair
from couplemap.series import AlignedPair, index_series
from couplemap.synth import FgnSpec, fgn_stacks, generate_fgn, surrogate


def assert_close(lhs, rhs, label, tol=1e-12):
    assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs)), (
        f"{label}: {lhs} vs {rhs}"
    )


def assert_matches_oracle(w):
    net = net_from(w)
    report = measure_all(net).to_dict()
    expected = oracles.oracle_measure_all(np.asarray(w).tolist(), net.sample_count)
    assert tuple(report["flags"]) == expected["flags"]
    for name in MEASURE_FIELDS:
        assert_close(report[name], expected[name], name)


def measured_weights(kind: str, bins: int, seed: int = 11) -> np.ndarray:
    """A network of the size the pipeline measures, from fGn with N = 2000.

    ``fgn-lag`` maps one H = 0.9 noise against its own lag 1; ``surrogate``
    maps Fourier surrogates of two independent H = 0.9 noises; ``fgn-pair``
    maps two independent H = 0.95 noises against each other; ``student-t``
    maps a Student-t(3) pair with correlation 0.5 (correlated normals times
    one shared sqrt(3 / chi2_3)), whose heavy tails leave many bins empty
    (96 of 200 at seed 11).
    """
    if kind == "student-t":
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((2, 2000))
        z[1] = 0.5 * z[0] + math.sqrt(0.75) * z[1]
        t = z * np.sqrt(3.0 / rng.chisquare(3, 2000))
        pair = AlignedPair(index_series(t[0]), index_series(t[1]))
        return map_pair(pair, bin_count=bins).weights
    if kind == "fgn-pair":
        x = generate_fgn(FgnSpec(0.95, 2000, seed))
        y = generate_fgn(FgnSpec(0.95, 2000, seed + 1))
        return map_pair(AlignedPair(x, y), bin_count=bins).weights
    x = generate_fgn(FgnSpec(0.9, 2000, seed))
    if kind == "fgn-lag":
        return map_lagged(x, lag=1, bin_count=bins).weights
    y = generate_fgn(FgnSpec(0.9, 2000, seed + 1))
    pair = AlignedPair(surrogate(x, seed + 2), surrogate(y, seed + 3))
    return map_pair(pair, bin_count=bins).weights


def networkx_path_means(w) -> dict:
    """path_stats' two means from networkx's shortest paths, loops dropped."""
    nx = pytest.importorskip("networkx")
    directed = nx.DiGraph()
    directed.add_nodes_from(range(len(w)))
    directed.add_edges_from(zip(*np.nonzero(w)))
    directed.remove_edges_from(list(nx.selfloop_edges(directed)))

    def mean_path(graph):
        total = count = 0
        for _, lengths in nx.all_pairs_shortest_path_length(graph):
            total += sum(lengths.values())
            count += len(lengths) - 1
        return total / count

    return {
        "mean_len_directed": mean_path(directed),
        "mean_len_undirected": mean_path(directed.to_undirected()),
    }


def dense_path_stats(net) -> dict | None:
    """path_stats of one network from oracles.oracle_dense_path_sums."""
    a = net.weights > 0
    np.fill_diagonal(a, False)
    if not a.any():
        return None
    d_total, d_count = oracles.oracle_dense_path_sums(a)
    u_total, u_count = oracles.oracle_dense_path_sums(a | a.T)
    return {
        "mean_len_directed": d_total / d_count,
        "mean_len_undirected": u_total / u_count,
    }


def word_boundary_stack(bins: int) -> list:
    """Networks of one bin count that reach the edge cases of packed rows.

    A network of self-loops alone (paths None), a complete graph, the chain
    0 -> 1 -> ... -> B-1 (B-1 search levels), a network whose only edges
    enter bin B-1, and random graphs from sparse to dense.
    """
    rng = np.random.default_rng(bins)
    into_last = np.zeros((bins, bins), dtype=np.int64)
    into_last[:-1, -1] = 1
    weights = [
        np.diag(np.arange(1, bins + 1)),
        np.ones((bins, bins), dtype=np.int64),
        np.eye(bins, k=1, dtype=np.int64),
        into_last,
    ]
    for density in (1.5 / bins, 0.05, 0.3, 0.9):
        w = (rng.random((bins, bins)) < density) * rng.integers(1, 9, (bins, bins))
        w[0, 0] += 1  # never empty
        weights.append(w)
    return [net_from(w) for w in weights]


def first_battery_stack() -> list:
    """The default battery's first 26 networks: one full B = 50 measure stack."""
    cfg = EnsembleConfig()
    seeds = [derive_seed(cfg.master_seed, 0, s) for s in range(26)]
    nets = []
    for rows in fgn_stacks(cfg.hurst_values[0], cfg.series_length, seeds):
        nets += map_lagged_rows(rows, cfg.lag, cfg.bin_count)
    return nets


class TestSchema:
    def test_table_has_twenty_measures(self):
        # the twenty radar measures, then degree_concentration
        assert len(MEASURE_FIELDS) == 21
        assert len(set(MEASURE_FIELDS)) == 21
        assert MEASURE_FIELDS[-1] == "degree_concentration"

    def test_report_json_keys(self):
        net = net_from([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
        data = measure_all(net).to_dict()
        assert set(data) == set(MEASURE_FIELDS) | {"bin_count", "sample_count", "flags"}
        assert data["bin_count"] == 3
        assert data["sample_count"] == 5
        assert isinstance(data["flags"], list)

    def test_round_trip(self):
        net = net_from(special_weight_matrices()[2])
        report = measure_all(net)
        again = MeasureReport.from_dict(report.to_dict())
        for f in fields(MeasureReport):
            assert getattr(report, f.name) == getattr(again, f.name)

    def test_vector_order(self):
        net = net_from([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
        vec = measure_all(net).as_vector()
        assert tuple(vec) == MEASURE_FIELDS

    def test_families_return_report_fields(self):
        # each family fills its own names of MEASURE_FIELDS, the report
        # takes them unchanged, and with deformation_R they fill all of it
        net = net_from(special_weight_matrices()[3])  # no family degenerate
        families = {
            "degree": degree_stats(adjacency(net))[0],
            "clustering": clustering_stats(adjacency(net))[0],
            "paths": path_stats(adjacency(net))[0],
            "assortativity": assortativity_stats(adjacency(net)[0]),
            "modularity": modularity_stats(net, detect_communities([net])[0]),
        }
        assert {name: set(keys) for name, keys in families.items()} == {
            "degree": {
                "mean_sq_k_total", "mean_sq_k_out", "mean_sq_k_in", "mean_k_total",
                "mean_k_out", "mean_k_in", "std_k_total", "degree_concentration",
            },
            "clustering": {
                "cl_global", "cl_global_std", "cl_local_undirected_mean",
                "cl_local_directed_mean",
            },
            "paths": {"mean_len_directed", "mean_len_undirected"},
            "assortativity": {
                "assort_coef", "assort_var", "scalar_assort_coef", "scalar_assort_var",
            },
            "modularity": {"modularity_total_degree", "modularity_out_degree"},
        }
        names = [key for values in families.values() for key in values]
        names.append("deformation_R")
        assert len(names) == len(set(names)) == len(MEASURE_FIELDS)
        assert set(names) == set(MEASURE_FIELDS)

        report = measure_all(net)
        assert report.flags == ()
        for values in families.values():
            for name, value in values.items():
                assert getattr(report, name) == value, name


class TestDeformationRatio:
    def test_uniform_is_symmetric(self):
        for b in (2, 3, 5):
            jp = np.full((b, b), 1.0 / (b * b))
            assert abs(deformation_ratio(jp)) < 1e-9

    def test_main_diagonal_support(self):
        p = np.zeros((4, 4))
        p[0, 0] = 0.5
        p[2, 2] = 0.3
        p[3, 3] = 0.2
        assert deformation_ratio(p) == 1.0

    def test_anti_diagonal_support(self):
        p = np.zeros((3, 3))
        p[0, 2] = 0.5
        p[2, 0] = 0.5
        assert deformation_ratio(p) == -1.0

    def test_single_cell(self):
        p = np.zeros((3, 3))
        p[1, 2] = 1.0
        assert deformation_ratio(p) == 0.0

    def test_no_positive_cell(self):
        with pytest.raises(ValueError, match="^joint probability has no positive cell$"):
            deformation_ratio(np.zeros((3, 3)))

    def test_pinned_example(self):
        jp = np.array([[0.5, 0.25], [0.0, 0.25]])
        r = deformation_ratio(jp)
        assert r == pytest.approx(0.4777, abs=1e-4)
        assert_close(r, oracles.oracle_deformation_ratio(jp.tolist()), "R")

    def test_transpose_invariant(self, rng):
        for _ in range(25):
            w = random_weights(rng)
            jp = joint_probability(net_from(w))
            jp_t = joint_probability(net_from(w.T))
            assert abs(deformation_ratio(jp) - deformation_ratio(jp_t)) < 1e-12

    def test_bounds(self, rng):
        for _ in range(50):
            jp = joint_probability(net_from(random_weights(rng)))
            assert -1.0 <= deformation_ratio(jp) <= 1.0


class TestDegreeStats:
    def test_hand_fixture(self):
        net = edges_net(3, [(0, 1), (1, 2), (2, 2)])
        d = degree_stats(adjacency(net))[0]
        assert d["mean_k_total"] == 2.0
        assert_close(d["mean_sq_k_total"], 14.0 / 3.0, "mean_sq_k_total")
        assert_close(d["std_k_total"], math.sqrt(2.0 / 3.0), "std_k_total")
        assert d["mean_k_out"] == d["mean_k_in"] == 1.0
        assert_close(d["degree_concentration"], 4.0 / (14.0 / 3.0), "degree_concentration")

    def test_complete_with_self_loops(self):
        b = 4
        net = net_from(np.ones((b, b), dtype=np.int64))
        d = degree_stats(adjacency(net))[0]
        assert d["mean_k_out"] == d["mean_k_in"] == b
        assert d["std_k_total"] == 0.0
        assert d["degree_concentration"] == 1.0

    def test_self_loop_counts_once_per_direction(self):
        net = edges_net(3, [(1, 1)])
        d = degree_stats(adjacency(net))[0]
        assert d["mean_k_out"] == d["mean_k_in"] == pytest.approx(1.0 / 3.0)
        assert d["mean_k_total"] == pytest.approx(2.0 / 3.0)

    def test_out_in_identity(self, rng):
        # every edge contributes one source and one target endpoint
        for _ in range(30):
            d = degree_stats(adjacency(net_from(random_weights(rng))))[0]
            assert d["mean_k_out"] == d["mean_k_in"]
            assert_close(d["mean_k_total"], d["mean_k_out"] + d["mean_k_in"], "mean_k_total")

    def test_concentration_bounds(self, rng):
        for _ in range(30):
            d = degree_stats(adjacency(net_from(random_weights(rng))))[0]
            assert 0.0 < d["degree_concentration"] <= 1.0


class TestClusteringStats:
    def test_undirected_triangle(self):
        net = edges_net(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)])
        c = clustering_stats(adjacency(net))[0]
        assert c["cl_global"] == 1.0
        assert c["cl_local_undirected_mean"] == 1.0
        assert c["cl_global_std"] == 0.0

    def test_directed_three_cycle(self):
        net = edges_net(3, [(0, 1), (1, 2), (2, 0)])
        c = clustering_stats(adjacency(net))[0]
        # each node: numerator 2, denominator 2*(2*1 - 0) = 4
        assert c["cl_local_directed_mean"] == pytest.approx(0.5)
        assert c["cl_global"] == 1.0

    def test_path_graph_no_triangles(self):
        net = edges_net(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        c = clustering_stats(adjacency(net))[0]
        assert c["cl_global"] == 0.0
        assert c["cl_local_undirected_mean"] == 0.0
        assert c["cl_local_directed_mean"] == 0.0
        assert c["cl_global_std"] == 0.0

    def test_self_loops_ignored(self):
        with_loops = edges_net(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1)])
        without = edges_net(3, [(0, 1), (1, 2), (2, 0)])
        assert clustering_stats(adjacency(with_loops))[0] == clustering_stats(adjacency(without))[0]

    def test_counts_exact_past_float32(self):
        # at B = 1600 this graph's [(A + A^T)^3]_ii exceed 2**24, past which
        # float32 products would round them; the reference counts in
        # float64, and the kernel counts on rows of 25 words, with its
        # gathers cut into runs
        rng = np.random.default_rng(1)
        w = (rng.random((1600, 1600)) < 0.97).astype(np.int64)
        a = (w > 0).astype(np.float64)
        np.fill_diagonal(a, 0.0)
        s = a + a.T
        u = (s > 0).astype(np.float64)
        closed = np.einsum("ij,ji->i", u @ u, u)
        deg = u.sum(axis=1)
        triples = deg * (deg - 1)
        local_u = closed / triples
        s3 = np.einsum("ij,ji->i", s @ s, s)
        assert s3.max() > 2**24
        d_tot = a.sum(axis=1) + a.sum(axis=0)
        d_bi = np.einsum("ij,ji->i", a, a)
        local_d = s3 / (2.0 * (d_tot * (d_tot - 1) - 2 * d_bi))
        expected = {
            "cl_global": closed.sum() / triples.sum(),
            "cl_global_std": local_u.std(),
            "cl_local_undirected_mean": local_u.mean(),
            "cl_local_directed_mean": local_d.mean(),
        }
        assert clustering_stats(adjacency(net_from(w)))[0] == expected

    def test_requires_three_bins(self):
        # A triangle needs three nodes. measure_many, the one caller that
        # cuts stacks for clustering_stats, refuses a stream of 2-bin networks.
        two_bin = [net_from([[1, 1], [0, 1]]), net_from([[2, 0], [1, 1]])]
        with pytest.raises(ValueError, match="^measure battery needs at least 3 bins$"):
            measure_many(two_bin)

    def test_bounds(self, rng):
        for _ in range(30):
            c = clustering_stats(adjacency(net_from(random_weights(rng))))[0]
            assert 0.0 <= c["cl_global"] <= 1.0
            assert 0.0 <= c["cl_local_undirected_mean"] <= 1.0
            assert 0.0 <= c["cl_local_directed_mean"] <= 1.0
            assert c["cl_global_std"] >= 0.0


class TestPathStats:
    def test_directed_three_cycle(self):
        p = path_stats(adjacency(edges_net(3, [(0, 1), (1, 2), (2, 0)])))[0]
        assert p["mean_len_directed"] == pytest.approx(1.5)
        assert p["mean_len_undirected"] == pytest.approx(1.0)

    def test_complete_graph(self):
        b = 4
        p = path_stats(adjacency(net_from(np.ones((b, b), dtype=np.int64))))[0]
        assert p["mean_len_directed"] == 1.0
        assert p["mean_len_undirected"] == 1.0

    def test_two_disconnected_dyads(self):
        p = path_stats(adjacency(edges_net(4, [(0, 1), (1, 0), (2, 3), (3, 2)])))[0]
        assert p["mean_len_directed"] == 1.0
        assert p["mean_len_undirected"] == 1.0

    def test_only_self_loops_is_edgeless(self):
        assert path_stats(adjacency(edges_net(3, [(0, 0), (1, 1)])))[0] is None

    def test_none_exactly_where_oracle_is_none(self, rng):
        undefined = 0
        for w in special_weight_matrices() + [random_weights(rng) for _ in range(60)]:
            expected = oracles.oracle_path_stats(w.tolist())
            assert (path_stats(adjacency(net_from(w)))[0] is None) == (expected is None)
            undefined += expected is None
        assert undefined > 0

    def test_unreachable_pairs_excluded(self):
        # 0 -> 1 -> 2: five reachable ordered pairs would be wrong, three right
        p = path_stats(adjacency(edges_net(3, [(0, 1), (1, 2)])))[0]
        assert p["mean_len_directed"] == pytest.approx((1 + 1 + 2) / 3)
        assert p["mean_len_undirected"] == pytest.approx((1 + 1 + 2) / 3)

    @pytest.mark.parametrize("seed", [11, 15, 19, 27])
    def test_networkx_on_student_t_map_networks(self, seed):
        w = measured_weights("student-t", 200, seed)
        a = w > 0
        np.fill_diagonal(a, False)
        # heavy tails leave about half of the 200 bins without an edge
        assert (a.any(axis=0) | a.any(axis=1)).sum() < 120
        # both sides divide the same two integer sums
        assert path_stats(adjacency(net_from(w)))[0] == networkx_path_means(w)

    def test_networkx_with_edgeless_nodes(self, rng):
        # out-only 0, in-only 2 and 5, a node with only a self-loop (3)
        # and an isolated node (4)
        w = np.zeros((6, 6), dtype=np.int64)
        for i, j in [(0, 1), (1, 2), (1, 5), (3, 3)]:
            w[i, j] = 1
        graphs = [w]
        # random graphs spread over a larger bin range, the other bins
        # empty or holding only a self-loop
        for _ in range(40):
            small = random_weights(rng)
            b = len(small) + int(rng.integers(1, 6))
            nodes = np.sort(rng.choice(b, len(small), replace=False))
            w = np.zeros((b, b), dtype=np.int64)
            w[np.ix_(nodes, nodes)] = small
            empty = np.setdiff1d(np.arange(b), nodes)
            loops = empty[rng.random(len(empty)) < 0.5]
            w[loops, loops] = 3
            graphs.append(w)
        checked = 0
        for w in graphs:
            a = w > 0
            np.fill_diagonal(a, False)
            if not a.any():
                continue
            assert path_stats(adjacency(net_from(w)))[0] == networkx_path_means(w)
            checked += 1
        assert checked > 30

    def test_undirected_bounded_by_directed_when_strongly_connected(self, rng):
        checked = 0
        while checked < 15:
            w = random_weights(rng)
            if oracles.oracle_path_stats(w.tolist()) is None:
                continue
            net = net_from(w)
            p = path_stats(adjacency(net))[0]
            # symmetrizing can only shorten paths on mutually reachable pairs
            a = (net.weights > 0).copy()
            np.fill_diagonal(a, False)
            dist = oracles._floyd_warshall(a.astype(int).tolist())
            if any(
                dist[i][j] == oracles.INF
                for i in range(len(a))
                for j in range(len(a))
                if i != j
            ):
                continue
            assert p["mean_len_undirected"] <= p["mean_len_directed"] + 1e-12
            checked += 1

    @settings(max_examples=30, deadline=None)
    @given(
        bins=st.integers(3, 130),
        mean_degree=st.floats(0.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(bins=64, mean_degree=1.0, seed=0)
    @example(bins=65, mean_degree=1.0, seed=0)
    @example(bins=129, mean_degree=2.0, seed=0)
    def test_random_digraphs_match_floyd_warshall(self, bins, mean_degree, seed):
        rng = np.random.default_rng(seed)
        w = (rng.random((bins, bins)) < mean_degree / bins).astype(np.int64)
        w[0, 0] += 1  # never empty
        expected = oracles.oracle_path_stats(w.tolist())
        got = path_stats(adjacency(net_from(w)))[0]
        if expected is None:
            assert got is None
        else:
            assert (got["mean_len_directed"], got["mean_len_undirected"]) == expected


class TestWordBoundaries:
    """The popcount kernels give the float-product kernels' reports, repr
    for repr, at bin counts on either side of a 64-bit word."""

    @pytest.mark.parametrize("bins", [3, 8, 63, 64, 65, 128, 129, 200])
    def test_equal_dense_products(self, bins):
        stack = word_boundary_stack(bins)
        paths = path_stats(adjacency(*stack))
        clustering = clustering_stats(adjacency(*stack))
        assert [repr(p) for p in paths] == [repr(dense_path_stats(net)) for net in stack]
        assert [repr(c) for c in clustering] == [
            repr(c) for c in oracles.oracle_dense_clustering(stack)
        ]
        assert paths[0] is None and all(p is not None for p in paths[1:])
        # the chain's directed mean: sum of d (B - d) over d, per reachable pair
        pairs = bins * (bins - 1) // 2
        chain = sum(d * (bins - d) for d in range(1, bins))
        assert paths[2]["mean_len_directed"] == chain / pairs
        # each network measured alone gives the same
        assert [path_stats(adjacency(net))[0] for net in stack] == paths
        assert [clustering_stats(adjacency(net))[0] for net in stack] == clustering


class TestBoolStack:
    """The binarized families read the (R, B, B) bool stack that
    measure_many builds once per stack: clustering and paths ignore its
    diagonal, and assortativity reads one network's slice of it, self-loops
    included."""

    @pytest.mark.parametrize("bins", [3, 8, 63, 64, 65, 128, 129, 200])
    def test_clustering_and_paths_ignore_the_diagonal(self, bins):
        a = adjacency(*word_boundary_stack(bins))
        diagonal = np.arange(bins)
        looped, loop_free = a.copy(), a.copy()
        looped[:, diagonal, diagonal] = True
        loop_free[:, diagonal, diagonal] = False
        for family in (clustering_stats, path_stats):
            assert family(looped) == family(loop_free) == family(a), family.__name__
        # neither family writes into the stack it reads
        assert looped[:, diagonal, diagonal].all()
        assert np.array_equal(a, adjacency(*word_boundary_stack(bins)))

    @pytest.mark.parametrize("bins", [3, 8, 63, 64, 65, 128, 129, 200])
    def test_assortativity_of_a_slice_equals_oracle(self, bins):
        stack = word_boundary_stack(bins)
        for net, bools in zip(stack, adjacency(*stack), strict=True):
            got = assortativity_stats(bools)
            w = net.weights.tolist()
            edges = oracles._edge_list(w)
            if len(edges) <= 300:
                expected = oracles.oracle_assortativity_stats(w)
            elif oracles._pooled_pearson(edges) is None:
                expected = None
            else:
                # the jackknife variances' oracle is quadratic in the edges,
                # so on the larger graphs only the coefficients are checked
                expected = {
                    "scalar_assort_coef": oracles._pooled_pearson(edges),
                    "assort_coef": float(oracles._categorical_coef(edges)),
                }
                got = {name: got[name] for name in expected}
            if expected is None:
                assert got is None
                continue
            assert got.keys() == expected.keys()
            for name in expected:
                assert_close(got[name], expected[name], name)


class TestAssortativity:
    def test_star_is_perfectly_disassortative(self):
        a = assortativity_stats(adjacency(edges_net(4, [(0, 1), (0, 2), (0, 3)]))[0])
        assert a["scalar_assort_coef"] == pytest.approx(-1.0)

    def test_ring_degenerate(self):
        ring = edges_net(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert assortativity_stats(adjacency(ring)[0]) is None

    def test_single_edge_degenerate(self):
        assert assortativity_stats(adjacency(edges_net(3, [(0, 1)]))[0]) is None

    def test_dyads_plus_triangle_sign_matches_oracle(self):
        net = edges_net(
            7, [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 6), (6, 4), (4, 6)]
        )
        a = assortativity_stats(adjacency(net)[0])
        expected = oracles.oracle_assortativity_stats(net.weights.tolist())
        assert math.copysign(1, a["assort_coef"]) == math.copysign(1, expected["assort_coef"])
        assert_close(a["assort_coef"], expected["assort_coef"], "assort_coef")
        assert_close(a["scalar_assort_coef"], expected["scalar_assort_coef"], "scalar")

    def test_exactly_four_fields(self, rng):
        # the four report fields, each equal to the oracle's, key by key
        checked = 0
        for w in [random_weights(rng) for _ in range(60)] + special_weight_matrices():
            expected = oracles.oracle_assortativity_stats(w.tolist())
            got = assortativity_stats(adjacency(net_from(w))[0])
            if expected is None:
                assert got is None
                continue
            assert len(got) == 4 and got.keys() == expected.keys()
            for name in expected:
                assert_close(got[name], expected[name], name)
            checked += 1
        assert checked >= 30

    def test_bounds_and_variances(self, rng):
        checked = 0
        while checked < 40:
            w = random_weights(rng)
            a = assortativity_stats(adjacency(net_from(w))[0])
            if a is None:
                continue
            assert -1.0 - 1e-12 <= a["assort_coef"] <= 1.0 + 1e-12
            assert -1.0 - 1e-12 <= a["scalar_assort_coef"] <= 1.0 + 1e-12
            assert a["assort_var"] >= 0.0
            assert a["scalar_assort_var"] >= 0.0
            checked += 1


class TestCommunities:
    def test_two_disjoint_triangles(self):
        net = edges_net(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        labels = detect_communities([net])[0]
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]
        q = modularity_stats(net, labels)
        assert q["modularity_total_degree"] == pytest.approx(0.5, abs=1e-12)

    def test_complete_graph_single_community(self):
        b = 5
        w = np.ones((b, b), dtype=np.int64)
        np.fill_diagonal(w, 0)
        labels = detect_communities([net_from(w)])[0]
        assert len(set(labels)) == 1

    def test_two_cliques_with_bridge(self):
        w = np.zeros((8, 8), dtype=np.int64)
        for group in ([0, 1, 2, 3], [4, 5, 6, 7]):
            for i in group:
                for j in group:
                    if i < j:
                        w[i, j] = 1
        w[3, 4] = 1
        net = net_from(w)
        labels = detect_communities([net])[0]
        assert len(set(labels[:4])) == 1 and len(set(labels[4:])) == 1
        assert labels[0] != labels[7]
        best_q, best_partition = oracles.exhaustive_best_partition_q(w.tolist())
        assert sorted(map(sorted, best_partition)) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        q = modularity_stats(net, labels)["modularity_total_degree"]
        assert_close(q, best_q, "greedy q matches the exhaustive optimum")

    def test_deterministic_tie_breaking(self, rng):
        # tied best gains; merging the last tied pair first changes the labels
        tied = np.array(
            [
                [1, 0, 1, 1, 1, 1],
                [0, 1, 1, 1, 1, 1],
                [1, 1, 1, 1, 0, 1],
                [1, 1, 0, 1, 0, 1],
                [1, 1, 0, 0, 1, 0],
                [1, 1, 0, 1, 1, 1],
            ]
        )
        graphs = [tied] + [random_weights(rng) for _ in range(20)]
        for w in graphs:
            net = net_from(w)
            first = detect_communities([net])[0]
            second = detect_communities([net])[0]
            assert np.array_equal(first, second)
            assert list(first) == oracles.oracle_detect_communities(w.tolist())
        # the same graphs stacked (at least _STACK_MIN), one per bin count
        for bins in {len(w) for w in graphs}:
            group = [w for w in graphs if len(w) == bins]
            group = group * -(-_STACK_MIN // len(group))
            labels = detect_communities([net_from(w) for w in group])
            for w, got in zip(group, labels, strict=True):
                assert list(got) == oracles.oracle_detect_communities(w.tolist())

    @pytest.mark.parametrize(
        "kind, bins, count",
        [
            pytest.param("fgn-lag", 200, 1, id="fgn-lag-200"),
            pytest.param("student-t", 200, 1, id="student-t-200-empty-bins"),
            # below _STACK_MIN one network at a time, from it stacked
            pytest.param("fgn-lag", 50, 4, id="fgn-lag-50-stack-of-4"),
            pytest.param("fgn-lag", 50, 6, id="fgn-lag-50-stack-of-6"),
        ],
    )
    def test_oracle_labels_at_measured_size(self, kind, bins, count):
        weights = [measured_weights(kind, bins, seed=11 + 4 * i) for i in range(count)]
        labels = detect_communities([net_from(w) for w in weights])
        for w, got in zip(weights, labels, strict=True):
            assert list(got) == oracles.oracle_detect_communities(w.tolist())

    @pytest.mark.parametrize("scale", [1, 30_000_000], ids=["exact-gains", "huge-weights"])
    def test_oracle_labels_with_empty_bins(self, rng, scale):
        # Tied 0-2 weights on a random subset of the bins. Scaled by 3e7 the
        # weights sum past 4.7e7, so (2N)**2 >= 2**53: computed gains may
        # take the wrong sign, and every node and merge must be kept.
        for _ in range(60):
            b = int(rng.integers(3, 13))
            occupied = np.sort(rng.choice(b, int(rng.integers(2, b + 1)), replace=False))
            w = np.zeros((b, b), dtype=np.int64)
            w[np.ix_(occupied, occupied)] = rng.integers(0, 3, (len(occupied),) * 2)
            w[occupied[0], occupied[1]] += 2
            net = net_from(w * scale)
            assert ((2 * net.sample_count) ** 2 >= 2**53) == (scale > 1)
            got = detect_communities([net])[0]
            assert list(got) == oracles.oracle_detect_communities((w * scale).tolist())


class TestModularity:
    def test_whole_graph_community_is_zero(self, rng):
        for _ in range(10):
            net = net_from(random_weights(rng))
            q = modularity_stats(net, np.zeros(net.bin_count, dtype=np.int64))
            assert abs(q["modularity_total_degree"]) < 1e-12
            assert abs(q["modularity_out_degree"]) < 1e-12

    def test_random_partition_matches_oracle(self, rng):
        for _ in range(40):
            w = random_weights(rng)
            b = len(w)
            labels = rng.integers(0, b, size=b)
            got = modularity_stats(net_from(w), labels)
            q_total, q_out = oracles.oracle_modularity_stats(w.tolist(), list(labels))
            assert_close(got["modularity_total_degree"], q_total, "modularity_total_degree")
            assert_close(got["modularity_out_degree"], q_out, "modularity_out_degree")
            assert -1.0 <= got["modularity_total_degree"] <= 1.0
            assert -1.0 <= got["modularity_out_degree"] <= 1.0

    @pytest.mark.parametrize("kind", ["fgn-lag", "surrogate", "student-t"])
    @pytest.mark.parametrize("bins", [50, 200])
    def test_equals_mask_formula_bitwise(self, kind, bins):
        # the boolean-mask gathers over B x B outer products, summed as is
        net = net_from(measured_weights(kind, bins))
        s = (net.weights + net.weights.T).astype(np.float64)
        two_m, strength = s.sum(), s.sum(axis=1)
        w = net.weights.astype(np.float64)
        m, w_out, w_in = w.sum(), w.sum(axis=1), w.sum(axis=0)
        detected = detect_communities([net])[0]
        for labels in (detected, np.random.default_rng(bins).integers(0, 3, bins)):
            same = labels[:, None] == labels[None, :]
            null_total = (np.outer(strength, strength) / two_m)[same].sum()
            null_out = (np.outer(w_out, w_in) / m)[same].sum()
            expected = {
                "modularity_total_degree": float((s[same].sum() - null_total) / two_m),
                "modularity_out_degree": float((w[same].sum() - null_out) / m),
            }
            got = modularity_stats(net, labels)
            assert {k: v.hex() for k, v in got.items()} == {
                k: v.hex() for k, v in expected.items()
            }

    def test_partition_shape_checked(self):
        net = net_from([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
        with pytest.raises(ValueError, match="^partition must label every node$"):
            modularity_stats(net, np.array([0, 1]))


class TestMeasureAll:
    def test_four_step_example_network(self):
        pair = AlignedPair(
            index_series([1.0, 2.0, 3.0, 1.0]), index_series([1.0, 3.0, 3.0, 2.0])
        )
        net = map_pair(pair, bin_count=3)
        report = measure_all(net)
        # degrees by hand: W has edges {(0,0),(0,1),(1,2),(2,2)}
        assert report.mean_k_out == pytest.approx(4.0 / 3.0)
        assert report.mean_k_in == pytest.approx(4.0 / 3.0)
        assert report.mean_k_total == pytest.approx(8.0 / 3.0)
        assert report.bin_count == 3
        assert report.sample_count == 4
        assert_matches_oracle(net.weights)

    def test_needs_three_bins(self):
        with pytest.raises(ValueError, match="^measure battery needs at least 3 bins$"):
            measure_all(net_from([[1, 1], [0, 1]]))

    def test_degenerate_measures_flagged_not_fatal(self):
        report = measure_all(net_from(np.diag(np.array([2, 3, 4]))))
        assert set(report.flags) == {
            "mean_len_directed",
            "mean_len_undirected",
            "scalar_assort_coef",
            "scalar_assort_var",
            "assort_coef",
            "assort_var",
        }
        assert report.mean_len_directed == 0.0
        assert report.assort_coef == 0.0
        assert report.deformation_R == 1.0  # diagonal support still measured

    def test_all_fields_finite(self, rng):
        for _ in range(20):
            report = measure_all(net_from(random_weights(rng)))
            for name in MEASURE_FIELDS:
                assert math.isfinite(getattr(report, name)), name


class TestMeasureMany:
    # 27 at B = 50: a stack of 26, then one network alone; 8 at B = 100:
    # a stack of 6, then two one by one
    @pytest.mark.parametrize("kind, bins, count", [("fgn-lag", 50, 27), ("surrogate", 100, 8)])
    def test_equals_measure_all_one_by_one(self, kind, bins, count):
        nets = [net_from(measured_weights(kind, bins, seed=100 + 4 * i)) for i in range(count)]
        many = measure_many(iter(nets))
        assert [repr(r) for r in many] == [repr(measure_all(net)) for net in nets]

        other = net_from(measured_weights(kind, bins + 1))
        with pytest.raises(ValueError, match="bin count"):
            measure_many(nets[:2] + [other])

    # traced peak of one measure_many call before paths and clustering
    # counted with popcounts, in KiB; the ceiling is 10% above it
    @pytest.mark.parametrize(
        "networks, parent_kib",
        [
            pytest.param(first_battery_stack, 1146, id="battery-stack-b50"),
            pytest.param(
                lambda: [net_from(measured_weights("student-t", 200))], 757, id="map-b200"
            ),
        ],
    )
    def test_traced_peak_within_ceiling(self, networks, parent_kib):
        nets = networks()
        measure_many(nets)  # fills the diagonal-coordinate cache
        tracemalloc.start()
        try:
            measure_many(nets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * parent_kib * 1024, f"{peak / 1024:.0f} KiB"


class TestTransposeBehavior:
    def test_degree_swap_and_invariants(self, rng):
        for _ in range(20):
            w = random_weights(rng)
            fwd = measure_all(net_from(w))
            rev = measure_all(net_from(w.T.copy()))
            assert fwd.mean_k_out == rev.mean_k_in
            assert fwd.mean_k_in == rev.mean_k_out
            assert fwd.mean_sq_k_out == rev.mean_sq_k_in
            assert fwd.mean_sq_k_in == rev.mean_sq_k_out
            assert fwd.mean_k_total == rev.mean_k_total
            assert fwd.std_k_total == rev.std_k_total
            assert_close(fwd.cl_global, rev.cl_global, "cl_global")
            assert_close(
                fwd.cl_local_undirected_mean,
                rev.cl_local_undirected_mean,
                "cl_local_undirected_mean",
            )
            assert_close(
                fwd.mean_len_undirected, rev.mean_len_undirected, "undirected length"
            )
            assert_close(
                fwd.modularity_total_degree,
                rev.modularity_total_degree,
                "q_total_degree",
            )


class TestBinarizationInvariance:
    def test_uniform_weight_scaling(self, rng):
        binarized_fields = (
            "mean_sq_k_total", "mean_sq_k_out", "mean_sq_k_in", "mean_k_total",
            "mean_k_out", "mean_k_in", "std_k_total", "degree_concentration",
            "cl_global", "cl_global_std", "cl_local_undirected_mean",
            "cl_local_directed_mean", "mean_len_directed", "mean_len_undirected",
            "scalar_assort_coef", "scalar_assort_var", "assort_coef", "assort_var",
        )
        for scale in (2, 3, 7):
            for _ in range(10):
                w = random_weights(rng)
                base = measure_all(net_from(w))
                scaled = measure_all(net_from(w * scale))
                for name in binarized_fields:
                    assert getattr(base, name) == getattr(scaled, name), name
                # deformation R: (c*w)/(c*n) is the same rational as w/n
                assert base.deformation_R == scaled.deformation_R
                assert_close(
                    base.modularity_total_degree,
                    scaled.modularity_total_degree,
                    "q_total under scaling",
                )
                assert_close(
                    base.modularity_out_degree,
                    scaled.modularity_out_degree,
                    "q_out under scaling",
                )
                assert base.flags == scaled.flags


class TestOracleEquivalence:
    def test_special_shapes(self):
        for w in special_weight_matrices():
            assert_matches_oracle(w)

    def test_random_graphs(self, rng):
        for _ in range(60):
            assert_matches_oracle(random_weights(rng))

    @pytest.mark.parametrize("kind", ["fgn-lag", "surrogate"])
    def test_measured_size(self, kind):
        assert_matches_oracle(measured_weights(kind, 50))

    @pytest.mark.parametrize(
        "family, oracle",
        [
            (degree_stats, oracles.oracle_degree_stats),
            (clustering_stats, oracles.oracle_clustering_stats),
        ],
        ids=["degree", "clustering"],
    )
    def test_family_dict_key_by_key(self, rng, family, oracle):
        graphs = [random_weights(rng) for _ in range(30)] + special_weight_matrices()
        graphs.append(measured_weights("fgn-lag", 50))
        for w in graphs:
            got = family(adjacency(net_from(w)))[0]
            expected = oracle(w.tolist())
            assert got.keys() == expected.keys()
            for name in expected:
                assert_close(got[name], expected[name], name)


class TestNetworkxDifferential:
    """Clustering, path means, assortativity and modularity against networkx
    on measured networks."""

    @pytest.mark.parametrize("kind", ["fgn-lag", "surrogate", "fgn-pair"])
    @pytest.mark.parametrize("bins", [50, 200])
    def test_clustering_and_paths(self, kind, bins):
        nx = pytest.importorskip("networkx")
        w = measured_weights(kind, bins)
        directed = nx.DiGraph()
        directed.add_nodes_from(range(bins))
        directed.add_edges_from(zip(*np.nonzero(w)))
        directed.remove_edges_from(list(nx.selfloop_edges(directed)))
        undirected = directed.to_undirected()

        def mean_clustering(graph):
            return np.mean(list(nx.clustering(graph).values()))

        report = measure_all(net_from(w))
        expected = {
            "cl_global": nx.transitivity(undirected),
            "cl_local_undirected_mean": mean_clustering(undirected),
            "cl_local_directed_mean": mean_clustering(directed),
            **networkx_path_means(w),
        }
        for name, value in expected.items():
            assert_close(getattr(report, name), value, name)

    @pytest.mark.parametrize(
        "kind, bins",
        [("fgn-lag", 50), ("fgn-lag", 200), ("surrogate", 50), ("surrogate", 200), ("fgn-pair", 50)],
    )
    def test_modularity(self, kind, bins):
        nx = pytest.importorskip("networkx")
        w = measured_weights(kind, bins)
        net = net_from(w)
        labels = detect_communities([net])[0]
        communities = [{int(i) for i in np.flatnonzero(labels == c)} for c in np.unique(labels)]

        # networkx counts a self-loop twice in a node's degree, so these
        # degrees equal the strength of W + W^T
        s = w + w.T
        undirected = nx.Graph()
        undirected.add_nodes_from(range(bins))
        for i, j in zip(*np.nonzero(np.triu(s, 1))):
            undirected.add_edge(int(i), int(j), weight=int(s[i, j]))
        for i in np.flatnonzero(np.diag(w)):
            undirected.add_edge(int(i), int(i), weight=int(w[i, i]))
        directed = nx.DiGraph()
        directed.add_nodes_from(range(bins))
        for i, j in zip(*np.nonzero(w)):
            directed.add_edge(int(i), int(j), weight=int(w[i, j]))

        report = measure_all(net)
        assert_close(
            report.modularity_total_degree,
            nx.community.modularity(undirected, communities),
            "modularity_total_degree",
        )
        assert_close(
            report.modularity_out_degree,
            nx.community.modularity(directed, communities),
            "modularity_out_degree",
        )

    @pytest.mark.parametrize("kind", ["fgn-lag", "surrogate", "fgn-pair"])
    @pytest.mark.parametrize("bins", [50, 200])
    def test_assortativity(self, kind, bins):
        nx = pytest.importorskip("networkx")
        w = measured_weights(kind, bins)
        edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(w))]
        directed = nx.DiGraph()
        directed.add_nodes_from(range(bins))
        directed.add_edges_from(edges)
        # networkx counts a self-loop once in the in- and once in the
        # out-degree, as the total degree here does
        degree = dict(directed.degree())
        nx.set_node_attributes(directed, degree, "k")
        both = nx.MultiDiGraph()
        both.add_nodes_from(range(bins))
        both.add_edges_from(edges + [(j, i) for i, j in edges])
        nx.set_node_attributes(both, degree, "k")

        report = measure_all(net_from(w))
        assert_close(
            report.assort_coef,
            nx.attribute_assortativity_coefficient(directed, "k"),
            "assort_coef",
        )
        assert_close(
            report.scalar_assort_coef,
            nx.numeric_assortativity_coefficient(both, "k"),
            "scalar_assort_coef",
        )
