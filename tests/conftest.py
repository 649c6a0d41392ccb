"""Shared fixtures: small-graph generators and CSV scratch files."""

import numpy as np
import pytest

from couplemap.netmap import CouplingNetwork
from couplemap.series import TimeSeries, index_series, write_csv


def net_from(weights) -> CouplingNetwork:
    """Wrap an integer matrix as a network."""
    return CouplingNetwork(weights)


def edges_net(bin_count: int, edges, weight: int = 1) -> CouplingNetwork:
    w = np.zeros((bin_count, bin_count), dtype=np.int64)
    for i, j in edges:
        w[i, j] = weight
    return net_from(w)


def adjacency(*nets) -> np.ndarray:
    """The (R, B, B) bool stack of the networks' binarized weights, as
    measure_many gives it to the binarized measure families."""
    return np.stack([net.weights > 0 for net in nets])


def random_weights(rng: np.random.Generator) -> np.ndarray:
    """Random small graph: 3-6 nodes, weights 0-9, full density sweep."""
    b = int(rng.integers(3, 7))
    density = rng.uniform(0.1, 1.0)
    mask = rng.random((b, b)) < density
    w = mask * rng.integers(1, 10, (b, b))
    if w.sum() == 0:
        w[rng.integers(b), rng.integers(b)] = int(rng.integers(1, 10))
    return w.astype(np.int64)


def special_weight_matrices():
    """Hand shapes that exercise every degenerate branch."""
    ring5 = np.zeros((5, 5), dtype=np.int64)
    for i in range(5):
        ring5[i, (i + 1) % 5] = 1
    star = np.zeros((5, 5), dtype=np.int64)
    star[0, 1:] = 3
    single = np.zeros((4, 4), dtype=np.int64)
    single[2, 0] = 5
    dyads = np.zeros((4, 4), dtype=np.int64)
    dyads[0, 1] = dyads[1, 0] = dyads[2, 3] = dyads[3, 2] = 2
    triangles = np.zeros((6, 6), dtype=np.int64)
    for i, j in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
        triangles[i, j] = triangles[j, i] = 1
    dense = np.ones((4, 4), dtype=np.int64) * 2
    return [
        np.diag(np.array([3, 1, 4], dtype=np.int64)),
        single,
        ring5,
        star,
        dyads,
        triangles,
        dense,
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20200529)


def write_series_csv(path, values, dates=None, column="value"):
    """Write a loadable CSV; integer timestamps unless dates given."""
    if dates is None:
        series = index_series(values)
    else:
        series = TimeSeries(np.asarray(dates), np.asarray(values, dtype=np.float64))
    write_csv(series, path, value_column=column)
    return str(path)
