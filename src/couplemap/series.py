"""Time-series ingestion and preprocessing.

A :class:`TimeSeries` is an immutable pair of (strictly increasing timestamp
labels, finite float amplitudes) plus a ``kind`` tag recording where the
values sit in the fixed pipeline ``raw -> log-return -> standardized``.
Timestamps are either YYYY-MM-DD calendar dates (kept as strings, which
sort chronologically) or plain integer indices.
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
    NonPositiveValue,
    ParseError,
    ZeroVariance,
    opened,
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

    Stacked stages (fGn draws, surrogate draws, measure families) handle this
    many replicas per array. Memory, not time, sets the budget: drawing and
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
            # YYYY-MM-DD only: the stored token must name its day one way,
            # so that equal days align and string order is date order.
            # From Python 3.11 fromisoformat also reads 20000103 and
            # 2000-W01-1; given ten characters with dashes at 4 and 7 it
            # takes ASCII digits of a real day only.
            if len(token) != 10 or token[4] != "-" or token[7] != "-":
                raise ValueError(token)
            datetime.date.fromisoformat(token)
            return token
        return int(token)
    except ValueError:
        raise ParseError(f"bad timestamp {token!r}", line_no) from None


def _parse_value(token: str, line_no: int) -> float:
    try:
        v = float(token.strip())
    except ValueError:
        raise ParseError(f"bad value {token.strip()!r}", line_no) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite value {token.strip()!r}", line_no)
    return v


def load_csv(path, value_column: str) -> TimeSeries:
    """Read a two-plus-column CSV into a raw TimeSeries, in one pass.

    The header must name a timestamp column (``date`` for YYYY-MM-DD dates
    or ``t`` for integer indices) and the requested ``value_column``, each
    once; a leading UTF-8 byte-order mark is skipped. Rows are sorted by
    timestamp; blank rows are skipped but counted, and the first faulty row
    in file order is reported.
    """
    with opened(path, encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file")
        header = [h.strip() for h in header]
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
        for name in (ts_column, value_column):
            if header.count(name) > 1:
                raise ParseError(f"header names column {name!r} more than once")
        ts_idx, val_idx = header.index(ts_column), header.index(value_column)

        by_stamp = {}  # timestamp -> value, in file order
        for line_no, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) <= max(ts_idx, val_idx):
                raise ParseError("too few fields", line_no)
            stamp = _parse_timestamp(row[ts_idx], ts_column, line_no)
            value = _parse_value(row[val_idx], line_no)
            if stamp in by_stamp:
                raise DuplicateTimestamp(str(stamp), line_no)
            by_stamp[stamp] = value
        if len(by_stamp) < 2:
            raise ParseError("need at least 2 data rows")
    stamps, values = np.asarray(list(by_stamp)), np.asarray(list(by_stamp.values()))
    order = np.argsort(stamps, kind="stable")
    return TimeSeries(stamps[order], values[order], KIND_RAW)


def write_csv(series: TimeSeries, path, value_column: str = "value") -> None:
    """Write a series in the same CSV dialect load_csv reads."""
    ts_column = "date" if series.timestamps.dtype.kind in ("U", "S", "O") else "t"
    with opened(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow([ts_column, value_column])
        writer.writerows(zip(series.timestamps.tolist(), map(repr, series.values.tolist())))


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
            raise ValueError(
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
        raise ValueError(f"log_returns expects kind=raw, got {s.kind}")
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
        raise ValueError("series is already standardized")
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
