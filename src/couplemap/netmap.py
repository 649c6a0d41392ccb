"""Amplitude binning and construction of the coupling network.

Each series is partitioned into B equal-width amplitude bins over its own
[min, max] range; bin index i of one series and bin index i of the other
name the same node. Every time step contributes one count to the weight
matrix W[source bin of x, target bin of y]; equal bins give self-loops.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import EmptyNetwork, IoError, LagTooLarge
from .series import AlignedPair, TimeSeries

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
    """
    if bin_count < 2:
        raise ValueError("bin_count must be >= 2")
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros(len(values), dtype=np.int64)
    idx = np.floor(bin_count * (values - lo) / (hi - lo)).astype(np.int64)
    return np.clip(idx, 0, bin_count - 1)


def _count_pairs(xi: np.ndarray, yi: np.ndarray, bin_count: int) -> np.ndarray:
    flat = np.bincount(xi * bin_count + yi, minlength=bin_count * bin_count)
    return flat.reshape(bin_count, bin_count).astype(np.int64)


def map_pair(pair: AlignedPair, bin_count: int = DEFAULT_BIN_COUNT) -> CouplingNetwork:
    """Map an aligned pair onto the coupling network.

    Direction encodes source = x's bin, target = y's bin, so swapping the
    series transposes the weights.
    """
    xi = bin_indices(pair.x.values, bin_count)
    yi = bin_indices(pair.y.values, bin_count)
    w = _count_pairs(xi, yi, bin_count)
    return CouplingNetwork(bin_count, w, pair.common_length)


def map_lagged(
    s: TimeSeries, lag: int = 1, bin_count: int = DEFAULT_BIN_COUNT
) -> CouplingNetwork:
    """Couple a series with its own lag.

    Equivalent to mapping the pair (s[:-lag], s[lag:]), with bins taken from
    the full series range so both slices share node identities.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if lag >= len(s):
        raise LagTooLarge(f"lag {lag} >= series length {len(s)}")
    idx = bin_indices(s.values, bin_count)
    w = _count_pairs(idx[:-lag], idx[lag:], bin_count)
    return CouplingNetwork(bin_count, w, len(s) - lag)


def joint_probability(net: CouplingNetwork) -> np.ndarray:
    """W / N, the B x B joint distribution of (x bin, y bin)."""
    if net.sample_count <= 0:
        raise EmptyNetwork("network has no samples")
    return net.weights / net.sample_count


def write_adjacency_tsv(net: CouplingNetwork, path) -> None:
    """Dense B x B integer matrix, one tab-separated row per source bin."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for row in net.weights:
                fh.write("\t".join(str(int(v)) for v in row) + "\n")
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
            for row in p:
                fh.write("\t".join(repr(float(v)) for v in row) + "\n")
    except OSError as exc:
        raise IoError(str(path)) from exc
