"""Time-series ingestion and preprocessing.

A :class:`TimeSeries` is an immutable pair of (strictly increasing timestamp
labels, finite float amplitudes) plus a ``kind`` tag recording where the
values sit in the fixed pipeline ``raw -> log-return -> standardized``.
Timestamps are either ISO calendar dates (kept as strings, which sort
chronologically) or plain integer indices.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateTimestamp,
    EmptyIntersection,
    IoError,
    NonPositiveValue,
    ParseError,
    WrongKind,
    ZeroVariance,
)

KIND_RAW = "raw"
KIND_LOG_RETURN = "log-return"
KIND_STANDARDIZED = "standardized"
KINDS = (KIND_RAW, KIND_LOG_RETURN, KIND_STANDARDIZED)

_STD_TOL = 1e-9

#: Largest number of float64 cells (2**16, 512 KB) in one array that a
#: stacked stage builds; see stack_size.
STACK_CELLS = 2**16


def stack_size(row_cells: int) -> int:
    """Rows of row_cells float64 cells each that fit in STACK_CELLS, at least 1.

    Stacked stages (fGn draws, binning, measure families) handle this many
    replicas per array. Memory, not time, sets the budget: drawing and
    measuring each 32-replica system of the default battery at once raised
    peak RSS by 4.3 MB (about 6% of the benchmark process), stacks within
    this budget by 0.3 MB.
    """
    return max(1, STACK_CELLS // row_cells)


def check_values(values: np.ndarray, kind: str) -> None:
    """TimeSeries' value invariants, for one series or each row of a stack.

    Every value is finite, kind is known, and a standardized row has mean
    within 1e-9 of 0 and population standard deviation within 1e-9 of 1.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("values must all be finite")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == KIND_STANDARDIZED and (
        np.any(np.abs(values.mean(axis=-1)) > _STD_TOL)
        or np.any(np.abs(values.std(axis=-1) - 1.0) > _STD_TOL)
    ):
        raise ValueError("standardized series must have mean 0, std 1")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered, finite-valued amplitude series.

    Invariants enforced at construction: strictly increasing timestamps,
    length >= 2, all values finite, and for ``kind="standardized"`` a sample
    mean within 1e-9 of 0 and population standard deviation within 1e-9 of 1.
    """

    timestamps: np.ndarray
    values: np.ndarray
    kind: str = KIND_RAW

    def __post_init__(self):
        ts = np.asarray(self.timestamps)
        vals = np.asarray(self.values, dtype=np.float64)
        if ts.ndim != 1 or vals.ndim != 1:
            raise ValueError("timestamps and values must be one-dimensional")
        if len(ts) != len(vals):
            raise ValueError("timestamps and values differ in length")
        if len(vals) < 2:
            raise ValueError("a TimeSeries needs at least 2 points")
        if not np.all(ts[:-1] < ts[1:]):
            raise ValueError("timestamps must be strictly increasing")
        check_values(vals, self.kind)
        ts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class AlignedPair:
    """Two series sharing one timestamp calendar."""

    x: TimeSeries
    y: TimeSeries

    def __post_init__(self):
        if len(self.x) != len(self.y) or not np.array_equal(
            self.x.timestamps, self.y.timestamps
        ):
            raise ValueError("aligned series must share identical timestamps")

    @property
    def common_length(self) -> int:
        return len(self.x)


def index_series(values, kind: str = KIND_RAW) -> TimeSeries:
    """Wrap plain values with integer timestamps 0..N-1."""
    values = np.asarray(values, dtype=np.float64)
    return TimeSeries(np.arange(len(values), dtype=np.int64), values, kind)


def _parse_timestamp(token: str, column: str, line_no: int):
    token = token.strip()
    try:
        if column == "date":
            datetime.date.fromisoformat(token)
            return token
        return int(token)
    except ValueError:
        raise ParseError(f"row {line_no}: bad timestamp {token!r}") from None


def _parse_value(token: str, line_no: int) -> float:
    try:
        v = float(token.strip())
    except ValueError:
        raise ParseError(f"row {line_no}: bad value {token.strip()!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"row {line_no}: non-finite value {token.strip()!r}")
    return v


def load_csv(path, value_column: str) -> TimeSeries:
    """Read a two-plus-column CSV into a raw TimeSeries.

    The header must name a timestamp column (``date`` for ISO-8601 dates or
    ``t`` for integer indices) and the requested ``value_column``. Rows may
    arrive in any order; the result is sorted by timestamp. Duplicate
    timestamps are rejected.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(str(path)) from exc
    if not rows:
        raise ParseError("empty file")
    header = [h.strip() for h in rows[0]]
    if "date" in header and "t" in header:
        raise ParseError("header names both 'date' and 't'")
    if "date" in header:
        ts_column = "date"
    elif "t" in header:
        ts_column = "t"
    else:
        raise ParseError("header must name a 'date' or 't' column")
    if value_column not in header:
        raise ParseError(f"header has no column {value_column!r}")
    ts_idx = header.index(ts_column)
    val_idx = header.index(value_column)

    stamps, values = [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= max(ts_idx, val_idx):
            raise ParseError(f"row {line_no}: too few fields")
        stamps.append(_parse_timestamp(row[ts_idx], ts_column, line_no))
        values.append(_parse_value(row[val_idx], line_no))
    if len(stamps) < 2:
        raise ParseError("need at least 2 data rows")
    if len(set(stamps)) != len(stamps):
        seen = set()
        for s in stamps:
            if s in seen:
                raise DuplicateTimestamp(str(s))
            seen.add(s)
    order = np.argsort(np.asarray(stamps), kind="stable")
    stamps_arr = np.asarray(stamps)[order]
    values_arr = np.asarray(values, dtype=np.float64)[order]
    return TimeSeries(stamps_arr, values_arr, KIND_RAW)


def write_csv(series: TimeSeries, path, value_column: str = "value") -> None:
    """Write a series in the same CSV dialect load_csv reads."""
    ts_column = "date" if series.timestamps.dtype.kind in ("U", "S", "O") else "t"
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([ts_column, value_column])
            for t, v in zip(series.timestamps, series.values):
                writer.writerow([t, repr(float(v))])
    except OSError as exc:
        raise IoError(str(path)) from exc


def align_pair(a: TimeSeries, b: TimeSeries) -> AlignedPair:
    """Inner-join two series on their timestamps.

    Non-common timestamps are dropped from both sides; order is preserved.
    Raises EmptyIntersection when the calendars are disjoint. A proper
    subset of a standardized series would break the mean-0/std-1 invariant,
    so standardized inputs must already share their calendar: align first,
    standardize after.
    """
    common, ia, ib = np.intersect1d(
        a.timestamps, b.timestamps, assume_unique=True, return_indices=True
    )
    if len(common) == 0:
        raise EmptyIntersection("no common timestamps")
    if len(common) < 2:
        raise EmptyIntersection("fewer than 2 common timestamps")
    for s in (a, b):
        if s.kind == KIND_STANDARDIZED and len(common) != len(s):
            raise WrongKind(
                "cannot drop timestamps from a standardized series; "
                "align before standardizing"
            )
    return AlignedPair(
        TimeSeries(common, a.values[ia], a.kind),
        TimeSeries(common.copy(), b.values[ib], b.kind),
    )


def log_returns(s: TimeSeries) -> TimeSeries:
    """ln(s[t+1] / s[t]), stamped at the later endpoint of each ratio."""
    if s.kind != KIND_RAW:
        raise WrongKind(f"log_returns expects kind=raw, got {s.kind}")
    if np.any(s.values <= 0):
        raise NonPositiveValue("log_returns needs strictly positive values")
    with np.errstate(over="ignore", divide="ignore"):
        vals = np.log(s.values[1:] / s.values[:-1])
    bad = ~np.isfinite(vals)
    if bad.any():
        stamp = s.timestamps[1:][np.argmax(bad)]
        raise ValueError(f"log-return at {stamp} is out of the float range")
    return TimeSeries(s.timestamps[1:], vals, KIND_LOG_RETURN)


def standardize(s: TimeSeries) -> TimeSeries:
    """Subtract the mean and divide by the population (divisor N) std."""
    if s.kind == KIND_STANDARDIZED:
        raise WrongKind("series is already standardized")
    return TimeSeries(s.timestamps, standardized_values(s.values), KIND_STANDARDIZED)


def standardized_values(values: np.ndarray) -> np.ndarray:
    """standardize's arithmetic along the last axis: one series or each row."""
    std = values.std(axis=-1, keepdims=True)
    if np.any(std == 0.0):
        raise ZeroVariance("constant series cannot be standardized")
    vals = (values - values.mean(axis=-1, keepdims=True)) / std
    # dividing by a small std can magnify the first centring's rounding
    # error past the 1e-9 mean invariant, so centre once more
    vals -= vals.mean(axis=-1, keepdims=True)
    return vals


def prepare(s: TimeSeries, mode: str = "returns") -> TimeSeries:
    """Apply the fixed preprocessing pipeline.

    ``returns`` maps raw prices to standardized log-returns; ``raw`` passes
    the input through untouched (for reproduction experiments on raw
    amplitudes).
    """
    if mode == "raw":
        return s
    if mode == "returns":
        return standardize(log_returns(s))
    raise ValueError(f"unknown preprocessing mode {mode!r}")
