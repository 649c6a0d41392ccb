"""Amplitude binning and construction of the coupling network.

Each series is partitioned into B equal-width amplitude bins over its own
[min, max] range; bin index i of one series and bin index i of the other
name the same node. Every time step contributes one count to the weight
matrix W[source bin of x, target bin of y]; equal bins give self-loops.

Mapping works on stacks of rows (map_pair_rows, map_lagged_rows): the rows
are binned together and their networks counted with one bincount per
stack of as many B x B count matrices as fit the 512 KB per-array budget
(series.stack_size; 26 at B = 50). map_pair and map_lagged are the one-row
case.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import EmptyNetwork, IoError, LagTooLarge
from .series import AlignedPair, TimeSeries, stack_size

DEFAULT_BIN_COUNT = 50


@dataclass(frozen=True, eq=False)
class CouplingNetwork:
    """Weighted directed bin-co-occurrence network.

    ``weights[i, j]`` counts time steps with x in bin i and y in bin j;
    the diagonal holds self-loops. All entries sum to ``sample_count``.
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
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def bin_indices(values: np.ndarray, bin_count: int) -> np.ndarray:
    """Uniform-bin indices over the values' own [min, max] range.

    index = floor(B * (v - min) / (max - min)), clamped so the maximum maps
    to bin B-1. A degenerate range (max == min) puts everything in bin 0.
    A 2-D array is binned row by row, each row over its own range.
    """
    if bin_count < 2:
        raise ValueError("bin_count must be >= 2")
    values = np.asarray(values, dtype=np.float64)
    lo = values.min(axis=-1, keepdims=True)
    span = values.max(axis=-1, keepdims=True) - lo
    scaled = np.divide(
        bin_count * (values - lo), span, out=np.zeros_like(values), where=span != 0
    )
    return np.clip(np.floor(scaled).astype(np.int64), 0, bin_count - 1)


def _networks(xi: np.ndarray, yi: np.ndarray, bin_count: int) -> list:
    """One network per row pair of bin indices: W[k] counts (xi[k, t], yi[k, t])."""
    cells = bin_count * bin_count
    nets = []
    size = stack_size(cells)
    for start in range(0, len(xi), size):
        x, y = xi[start : start + size], yi[start : start + size]
        offsets = cells * np.arange(len(x))[:, None]
        flat = np.bincount((offsets + x * bin_count + y).ravel(), minlength=len(x) * cells)
        weights = flat.reshape(len(x), bin_count, bin_count)
        nets += [CouplingNetwork(bin_count, w, x.shape[1]) for w in weights]
    return nets


def map_pair_rows(x: np.ndarray, y: np.ndarray, bin_count: int) -> list:
    """map_pair for each row pair of two (k, N) value stacks, one network each."""
    if np.shape(x) != np.shape(y):
        raise ValueError(f"value stacks differ in shape: {np.shape(x)} and {np.shape(y)}")
    return _networks(bin_indices(x, bin_count), bin_indices(y, bin_count), bin_count)


def map_lagged_rows(values: np.ndarray, lag: int, bin_count: int) -> list:
    """map_lagged for each row of a (k, N) value stack, one network each."""
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if lag >= values.shape[1]:
        raise LagTooLarge(f"lag {lag} >= series length {values.shape[1]}")
    idx = bin_indices(values, bin_count)
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
    if net.sample_count <= 0:
        raise EmptyNetwork("network has no samples")
    return net.weights / net.sample_count


def write_adjacency_tsv(net: CouplingNetwork, path) -> None:
    """Dense B x B integer matrix, one tab-separated row per source bin."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for row in net.weights.tolist():
                fh.write("\t".join(map(str, row)) + "\n")
    except OSError as exc:
        raise IoError(str(path)) from exc


def write_edge_list_csv(net: CouplingNetwork, path) -> None:
    """Sparse (source, target, weight) rows, sorted by source then target."""
    src, dst = np.nonzero(net.weights)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source", "target", "weight"])
            for i, j in zip(src, dst):
                writer.writerow([int(i), int(j), int(net.weights[i, j])])
    except OSError as exc:
        raise IoError(str(path)) from exc


def write_joint_tsv(p: np.ndarray, path) -> None:
    """Dense B x B probability matrix in the adjacency layout."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for row in np.asarray(p, dtype=np.float64).tolist():
                fh.write("\t".join(map(repr, row)) + "\n")
    except OSError as exc:
        raise IoError(str(path)) from exc
