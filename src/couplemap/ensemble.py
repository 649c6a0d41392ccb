"""Baseline ensembles, confidence intervals and radar comparisons.

Replica seeds are derived from (master_seed, stream, index) with a
splitmix64-style mix, so a replica's result depends only on the config and
its index. Each fGn system is built in stacks: its noises are drawn a
stack of seeds at a time (synth.fgn_stacks), binned a stack of rows at a
time and counted one network at a time (netmap.map_lagged_rows,
map_pair_rows). The networks of all systems form one stream, measured a
stack of networks at a time (metrics.measure_many), so a stack may span two
systems; the reports are then sliced back per system. Every stacked array
stays within the 512 KB budget of series.stack_size. Surrogate replicas are
built the same way: the x and y surrogates are drawn in step a stack at a
time (synth.surrogate_stacks), mapped with map_pair_rows and measured in
stacks. Every stage gives the results of building each replica alone, and
aggregation folds them in replica order, so summaries are byte-identical
for a fixed config.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, TooFewSamples, opened
from .metrics import MEASURE_FIELDS, measure_many
from .netmap import (
    DEFAULT_BIN_COUNT,
    check_bins,
    lagged_samples,
    map_lagged_rows,
    map_pair_rows,
)
from .series import AlignedPair, TimeSeries
from .synth import check_seed, fgn_stacks, surrogate_stacks

_MASK64 = 2**64 - 1

DEFAULT_HURST_VALUES = tuple(round(0.1 * i, 1) for i in range(1, 10))
DEFAULT_REPLICAS = 32
DEFAULT_SERIES_LENGTH = 2000
DEFAULT_LAG = 1
DEFAULT_MASTER_SEED = 20200529
UNCOUPLED_SYSTEM = "fgn_h0.5"
# Every summary is a two-sided 90% interval: Z90 is the standard normal
# quantile at 0.95, bit for bit scipy.special.ndtri(0.95).
Z90 = 1.6448536269514722

COUPLING_LAG = "lag"
COUPLING_PAIR = "pair"


def derive_seed(master_seed: int, stream: int, index: int) -> int:
    """Stable 64-bit mix of (master_seed, stream, index)."""

    def mix(z: int) -> int:
        z = (z + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    z = master_seed & _MASK64
    z = mix(z ^ (stream & _MASK64))
    return mix(z ^ (index & _MASK64))


def confidence_interval(samples) -> tuple[float, float]:
    """(mean, Z90 * S / sqrt(n)) with S the sample (n-1 divisor) deviation."""
    values = np.asarray(samples, dtype=np.float64)
    if values.ndim != 1 or len(values) < 2:
        raise TooFewSamples(f"need at least 2 samples, got {values.size}")
    mean = float(values.mean())
    half_width = Z90 * float(values.std(ddof=1)) / math.sqrt(len(values))
    return mean, half_width


@dataclass(frozen=True)
class EnsembleConfig:
    """Baseline battery settings; defaults follow the 288-noise layout."""

    hurst_values: tuple = DEFAULT_HURST_VALUES
    replicas_per_h: int = DEFAULT_REPLICAS
    series_length: int = DEFAULT_SERIES_LENGTH
    bin_count: int = DEFAULT_BIN_COUNT
    lag: int = DEFAULT_LAG
    master_seed: int = DEFAULT_MASTER_SEED
    coupling: str = COUPLING_LAG

    def __post_init__(self) -> None:
        object.__setattr__(self, "hurst_values", tuple(self.hurst_values))
        if not self.hurst_values:
            raise ValueError("hurst_values must be non-empty")
        names = {}
        for h in self.hurst_values:
            if not 0.0 < h < 1.0:
                raise ValueError(f"hurst values must lie in (0, 1), got {h}")
            name = fgn_system_name(h)
            if name in names:
                raise ValueError(
                    f"hurst values {names[name]} and {h} share the system "
                    f"name {name!r}"
                )
            names[name] = h
        if self.replicas_per_h < 2:
            raise TooFewSamples(f"need at least 2 replicas, got {self.replicas_per_h}")
        if self.series_length < 64:
            raise ValueError(
                f"series_length must be at least 64, got {self.series_length}"
            )
        samples = lagged_samples(self.series_length, self.lag)
        object.__setattr__(self, "master_seed", check_seed(self.master_seed))
        if self.coupling not in (COUPLING_LAG, COUPLING_PAIR):
            raise ValueError(f"unknown coupling mode {self.coupling!r}")
        # each lag-coupled network maps series_length - lag samples
        lagged = self.coupling == COUPLING_LAG
        check_bins(self.bin_count, samples if lagged else self.series_length)


@dataclass(frozen=True)
class SummaryRow:
    """One measure aggregated over replicas; flags counts flagged replicas."""

    measure_name: str
    mean: float
    half_width: float
    n: int
    flags: int = 0


@dataclass(frozen=True)
class EnsembleSummary:
    """Ordered system name -> {measure name: SummaryRow}, one row per measure."""

    systems: dict

    def system_names(self) -> tuple:
        return tuple(self.systems)

    def rows(self, system: str) -> tuple:
        return tuple(self.systems[system].values())


def _aggregate(reports: list) -> dict:
    rows = {}
    for name in MEASURE_FIELDS:
        mean, half_width = confidence_interval([getattr(r, name) for r in reports])
        flagged = sum(1 for r in reports if name in r.flags)
        rows[name] = SummaryRow(name, mean, half_width, len(reports), flagged)
    return rows


def fgn_system_name(hurst: float) -> str:
    return f"fgn_h{hurst:g}"


def _pair_networks(xs, ys, bin_count: int):
    """The networks of two in-step iterators of (k, N) value stacks, row by row."""
    # map drops each pair of value stacks once map_pair_rows has binned it
    stacks = map(map_pair_rows, xs, ys, itertools.repeat(bin_count))
    return itertools.chain.from_iterable(stacks)


def run_fgn_ensemble(cfg: EnsembleConfig) -> EnsembleSummary:
    """Per Hurst value: generate replicas and map them; measure all the
    networks as one stream; aggregate per Hurst value.

    Lag coupling maps each noise against its own lag; pair coupling draws a
    second independent noise per replica (seed streams 2r and 2r + 1).
    """

    def networks(h_index: int, h: float):
        def draws(start: int, step: int):
            streams = range(start, step * cfg.replicas_per_h, step)
            seeds = [derive_seed(cfg.master_seed, h_index, s) for s in streams]
            return fgn_stacks(h, cfg.series_length, seeds)

        if cfg.coupling == COUPLING_PAIR:
            yield from _pair_networks(draws(0, 2), draws(1, 2), cfg.bin_count)
        else:
            for rows in draws(0, 1):
                yield from map_lagged_rows(rows, cfg.lag, cfg.bin_count)

    # one stream of networks, so a measure stack may span two systems
    stream = itertools.starmap(networks, enumerate(cfg.hurst_values))
    reports = measure_many(itertools.chain.from_iterable(stream))
    size = cfg.replicas_per_h
    return EnsembleSummary(
        {
            fgn_system_name(h): _aggregate(reports[i * size : (i + 1) * size])
            for i, h in enumerate(cfg.hurst_values)
        }
    )


def run_surrogate_pair(
    x: TimeSeries,
    y: TimeSeries,
    replicas: int,
    bin_count: int = DEFAULT_BIN_COUNT,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> EnsembleSummary:
    """Surrogate both series independently per replica, map, measure."""
    AlignedPair(x, y)
    if replicas < 2:
        raise TooFewSamples(f"need at least 2 replicas, got {replicas}")
    master_seed = check_seed(master_seed)

    def draws(s: TimeSeries, side: int):
        seeds = [derive_seed(master_seed, replica, side) for replica in range(replicas)]
        return surrogate_stacks(s, seeds)

    reports = measure_many(_pair_networks(draws(x, 0), draws(y, 1), bin_count))
    return EnsembleSummary({"surrogate": _aggregate(reports)})


def radar_normalize(systems: dict) -> dict:
    """Min-max rescale each measure across systems; distances to UNCOUPLED_SYSTEM.

    Returns the comparison.json dict: baseline (UNCOUPLED_SYSTEM), systems
    (the raw measure vectors), normalized and distance_to_uncoupled.
    All-equal measures normalize to 0.5 everywhere. distance_to_uncoupled is
    the Euclidean distance between a system's normalized vector and
    UNCOUPLED_SYSTEM's.
    """
    if len(systems) < 2:
        raise ValueError(f"need at least 2 systems, got {len(systems)}")
    names = list(systems)
    measure_names = list(systems[names[0]])
    reference = set(measure_names)
    for name in names[1:]:
        if set(systems[name]) != reference:
            raise ValueError(
                f"system {name!r} does not share the measure set of {names[0]!r}"
            )
    if UNCOUPLED_SYSTEM not in systems:
        raise ValueError(f"baseline system {UNCOUPLED_SYSTEM!r} not among inputs")

    normalized = {name: {} for name in names}
    for measure in measure_names:
        values = [float(systems[name][measure]) for name in names]
        lo, hi = min(values), max(values)
        for name, value in zip(names, values):
            normalized[name][measure] = (
                0.5 if hi == lo else (value - lo) / (hi - lo)
            )

    base_vec = normalized[UNCOUPLED_SYSTEM]
    distances = {
        name: math.sqrt(
            sum((normalized[name][m] - base_vec[m]) ** 2 for m in measure_names)
        )
        for name in names
    }
    return {
        "baseline": UNCOUPLED_SYSTEM,
        "systems": {name: dict(systems[name]) for name in names},
        "normalized": normalized,
        "distance_to_uncoupled": distances,
    }


SUMMARY_COLUMNS = ("system", "measure_name", "mean", "half_width", "n", "flags")


def write_summary_csv(summary: EnsembleSummary, path) -> None:
    with opened(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_COLUMNS)
        for system, rows in summary.systems.items():
            for row in rows.values():
                numbers = repr(row.mean), repr(row.half_width), row.n, row.flags
                writer.writerow([system, row.measure_name, *numbers])


def read_summary_csv(path) -> EnsembleSummary:
    with opened(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if tuple(header) != SUMMARY_COLUMNS:
            raise ParseError(f"unexpected header {header}")
        systems: dict = {}
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(SUMMARY_COLUMNS):
                raise ParseError("wrong column count", lineno)
            system, name, mean, half_width, n, flags = record
            if name not in MEASURE_FIELDS:
                raise ParseError(f"unknown measure {name!r}", lineno)
            try:
                numbers = float(mean), float(half_width), int(n), int(flags)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            row = SummaryRow(name, *numbers)
            if not (math.isfinite(row.mean) and math.isfinite(row.half_width)):
                raise ParseError("mean and half-width must be finite", lineno)
            if row.half_width < 0:
                raise ParseError(f"half-width {row.half_width!r} is negative", lineno)
            if row.n < 2:
                raise ParseError(f"n {row.n} is below 2", lineno)
            if not 0 <= row.flags <= row.n:
                raise ParseError(f"flags {row.flags} outside [0, {row.n}]", lineno)
            rows = systems.setdefault(system, {})
            if name in rows:
                raise ParseError(f"repeated row for {system!r} {name!r}", lineno)
            rows[name] = row
        for system, rows in systems.items():
            missing = [name for name in MEASURE_FIELDS if name not in rows]
            if missing:
                raise ParseError(f"system {system!r} lacks {', '.join(missing)}")
    return EnsembleSummary(systems)


def write_json(data: dict, path) -> None:
    """data as JSON indented by two spaces, with a final newline."""
    with opened(path, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
