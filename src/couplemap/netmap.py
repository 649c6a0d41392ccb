"""Amplitude binning and construction of the coupling network.

Each series is partitioned into B equal-width amplitude bins over its own
[min, max] range; bin index i of one series and bin index i of the other
name the same node. Every time step contributes one count to the weight
matrix W[source bin of x, target bin of y]; equal bins give self-loops.

Mapping works on stacks of rows (map_pair_rows, map_lagged_rows): the rows
are binned together, their bin indices kept in the smallest unsigned type,
and their networks yielded as they are asked for, counted with one
bincount per stack of as many B x B count matrices as fit the 512 KB
per-array budget (series.stack_size; 26 at B = 50). map_pair and
map_lagged are the one-row case.

The table writers format row by row from a lookup: str or repr runs once
per distinct value, and every cell takes its value's text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyNetwork, LagTooLarge, opened
from .series import AlignedPair, TimeSeries, stack_size

DEFAULT_BIN_COUNT = 50


@dataclass(frozen=True, eq=False)
class CouplingNetwork:
    """Weighted directed bin-co-occurrence network.

    ``weights[i, j]`` counts time steps with x in bin i and y in bin j;
    the diagonal holds self-loops. All entries sum to ``sample_count``,
    which is at least 1.
    """

    bin_count: int
    weights: np.ndarray
    sample_count: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.int64)
        if w.shape != (self.bin_count, self.bin_count):
            raise ValueError("weights must be a bin_count x bin_count matrix")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if int(w.sum()) != self.sample_count:
            raise ValueError("weights must sum to sample_count")
        if self.sample_count < 1:
            raise EmptyNetwork("a network needs at least one sample")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def bin_indices(values: np.ndarray, bin_count: int) -> np.ndarray:
    """Uniform-bin indices over the values' own [min, max] range.

    index = floor(B * (v - min) / (max - min)), clamped so the maximum maps
    to bin B-1. A degenerate range (max == min) puts everything in bin 0.
    A 2-D array is binned row by row, each row over its own range. A row
    whose B * (max - min) is not finite is refused with ValueError, since
    its indices would overflow to nonsense.
    """
    if bin_count < 2:
        raise ValueError("bin_count must be >= 2")
    values = np.asarray(values, dtype=np.float64)
    lo = values.min(axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        span = values.max(axis=-1, keepdims=True) - lo
        if not np.isfinite(bin_count * span).all():
            raise ValueError(f"value range times {bin_count} bins is out of the float range")
    scaled = np.divide(
        bin_count * (values - lo), span, out=np.zeros_like(values), where=span != 0
    )
    return np.clip(np.floor(scaled).astype(np.int64), 0, bin_count - 1)


def _compact_indices(values: np.ndarray, bin_count: int) -> np.ndarray:
    """bin_indices in the smallest unsigned type that holds B - 1 (one byte
    up to B = 256), so a stack's indices take a fraction of its values'
    memory and the values can be dropped once binned."""
    return bin_indices(values, bin_count).astype(np.min_scalar_type(bin_count - 1))


def _networks(xi: np.ndarray, yi: np.ndarray, bin_count: int):
    """Yield one network per row pair of bin indices: W[k] counts (xi[k, t], yi[k, t]).

    Networks are counted one bincount stack at a time, so a consumer that
    measures and drops them holds one stack of count matrices, not all.
    """
    cells = bin_count * bin_count
    size = stack_size(cells)
    for start in range(0, len(xi), size):
        x, y = xi[start : start + size], yi[start : start + size]
        offsets = cells * np.arange(len(x))[:, None]
        flat = np.bincount(
            (offsets + np.multiply(x, bin_count, dtype=np.int64) + y).ravel(),
            minlength=len(x) * cells,
        )
        for w in flat.reshape(len(x), bin_count, bin_count):
            yield CouplingNetwork(bin_count, w, x.shape[1])


def map_pair_rows(x: np.ndarray, y: np.ndarray, bin_count: int):
    """map_pair for each row pair of two (k, N) value stacks, yielded one by one.

    The rows are binned at once; their networks are counted as they are
    asked for."""
    if np.shape(x) != np.shape(y):
        raise ValueError(f"value stacks differ in shape: {np.shape(x)} and {np.shape(y)}")
    return _networks(
        _compact_indices(x, bin_count), _compact_indices(y, bin_count), bin_count
    )


def map_lagged_rows(values: np.ndarray, lag: int, bin_count: int):
    """map_lagged for each row of a (k, N) value stack, yielded one by one.

    The rows are binned at once; their networks are counted as they are
    asked for."""
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if lag >= values.shape[1]:
        raise LagTooLarge(f"lag {lag} >= series length {values.shape[1]}")
    idx = _compact_indices(values, bin_count)
    return _networks(idx[:, :-lag], idx[:, lag:], bin_count)


def map_pair(pair: AlignedPair, bin_count: int = DEFAULT_BIN_COUNT) -> CouplingNetwork:
    """Map an aligned pair onto the coupling network.

    Direction encodes source = x's bin, target = y's bin, so swapping the
    series transposes the weights.
    """
    (net,) = map_pair_rows(pair.x.values[None], pair.y.values[None], bin_count)
    return net


def map_lagged(
    s: TimeSeries, lag: int = 1, bin_count: int = DEFAULT_BIN_COUNT
) -> CouplingNetwork:
    """Couple a series with its own lag.

    Equivalent to mapping the pair (s[:-lag], s[lag:]), with bins taken from
    the full series range so both slices share node identities.
    """
    (net,) = map_lagged_rows(s.values[None], lag, bin_count)
    return net


def joint_probability(net: CouplingNetwork) -> np.ndarray:
    """W / N, the B x B joint distribution of (x bin, y bin)."""
    return net.weights / net.sample_count


def _texts(values: np.ndarray, fmt, texts: dict) -> list:
    """fmt of each value of a 1-D array, looked up in texts.

    texts maps a value's int64 bits (so -0.0 and 0.0 keep their own text)
    to fmt of the value; values not in it yet are formatted and added, so
    fmt runs once per distinct value across calls that share texts.
    """
    keys = (values.view(np.int64) if values.dtype == np.float64 else values).tolist()
    try:
        return list(map(texts.__getitem__, keys))
    except KeyError:
        texts.update((k, fmt(v)) for k, v in zip(keys, values.tolist()) if k not in texts)
        return list(map(texts.__getitem__, keys))


def _write_tsv(matrix: np.ndarray, fmt, path) -> None:
    texts = {}
    with opened(path, "w") as fh:
        for row in matrix:
            fh.write("\t".join(_texts(row, fmt, texts)) + "\n")


def write_adjacency_tsv(net: CouplingNetwork, path) -> None:
    """Dense B x B integer matrix, one tab-separated row per source bin."""
    _write_tsv(net.weights, str, path)


def write_edge_list_csv(net: CouplingNetwork, path) -> None:
    """Sparse (source, target, weight) rows, sorted by source then target."""
    src, dst = np.nonzero(net.weights)
    cells = iter(_texts(np.stack([src, dst, net.weights[src, dst]], axis=1).ravel(), str, {}))
    with opened(path, "w") as fh:
        fh.write("source,target,weight\r\n")
        fh.writelines(f"{i},{j},{w}\r\n" for i, j, w in zip(cells, cells, cells))


def write_joint_tsv(p: np.ndarray, path) -> None:
    """Dense B x B probability matrix in the adjacency layout."""
    _write_tsv(np.asarray(p, dtype=np.float64), repr, path)
