"""Ingestion, alignment and preprocessing contracts."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplemap import (
    DuplicateTimestamp,
    EmptyIntersection,
    IoError,
    NonPositiveValue,
    ParseError,
    ZeroVariance,
    align_pair,
    load_csv,
    standardize,
)
from couplemap.series import (
    KIND_LOG_RETURN,
    KIND_RAW,
    KIND_STANDARDIZED,
    AlignedPair,
    TimeSeries,
    index_series,
    log_returns,
    prepare,
    write_csv,
)

finite_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=3,
    max_size=40,
)


class TestTimeSeries:
    def test_basic_construction(self):
        s = index_series([1.0, 2.0, 3.0])
        assert len(s) == 3
        assert s.kind == KIND_RAW
        assert list(s.timestamps) == [0, 1, 2]

    def test_too_short(self):
        with pytest.raises(ValueError):
            index_series([1.0])

    def test_non_increasing_timestamps(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([2, 1, 3]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            TimeSeries(np.array([1, 1, 2]), np.array([1.0, 2.0, 3.0]))

    def test_non_finite_values(self):
        with pytest.raises(ValueError):
            index_series([1.0, math.nan, 2.0])
        with pytest.raises(ValueError):
            index_series([1.0, math.inf, 2.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            index_series([1.0, 2.0], kind="prices")

    def test_standardized_tag_enforced(self):
        # mean 1.5, not 0: the tag is a checked invariant, not a label
        with pytest.raises(ValueError):
            index_series([1.0, 2.0], kind=KIND_STANDARDIZED)
        index_series([-1.0, 1.0], kind=KIND_STANDARDIZED)

    def test_values_immutable(self):
        s = index_series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_two_dimensional_arrays(self):
        with pytest.raises(ValueError) as exc:
            TimeSeries(np.array([[0, 1], [2, 3]]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert str(exc.value) == "timestamps and values must be one-dimensional"

    def test_lengths_differ(self):
        with pytest.raises(ValueError) as exc:
            TimeSeries(np.array([0, 1, 2]), np.array([1.0, 2.0]))
        assert str(exc.value) == "timestamps and values differ in length"


class TestLoadCsv:
    def test_date_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,value\n2019-07-30,26814.0\n2019-07-31,26864.27\n")
        s = load_csv(p, "value")
        assert len(s) == 2
        assert s.kind == KIND_RAW
        assert list(s.timestamps) == ["2019-07-30", "2019-07-31"]
        assert s.values[1] == pytest.approx(26864.27)

    def test_integer_index_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,value\n0,1.5\n1,2.5\n2,3.5\n")
        s = load_csv(p, "value")
        assert list(s.timestamps) == [0, 1, 2]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError) as exc:
            load_csv(p, "value")
        assert str(exc.value) == f"{p}: empty file"

    def test_blank_first_line_is_a_header_without_columns(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("\nt,value\n0,1.0\n1,2.0\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p, "value")
        assert str(exc.value) == f"{p}: header must name a 'date' or 't' column"

    def test_rows_out_of_order_sorted(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,value\n2,30.0\n0,10.0\n1,20.0\n")
        s = load_csv(p, "value")
        assert list(s.timestamps) == [0, 1, 2]
        assert sorted(s.values) == [10.0, 20.0, 30.0]

    def test_duplicate_timestamp(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,value\n2020-01-01,1.0\n\n2020-01-01,2.0\n")
        with pytest.raises(DuplicateTimestamp) as exc:
            load_csv(p, "value")
        # the row of the second occurrence, counting the blank line
        assert str(exc.value) == f"{p}:4: 2020-01-01"

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.csv"
        with pytest.raises(IoError) as exc:
            load_csv(missing, "value")
        assert str(exc.value) == f"{missing}: No such file or directory"

    def test_bad_value_reports_row(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,value\n0,1.0\n1,oops\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p, "value")
        assert str(exc.value) == f"{p}:3: bad value 'oops'"

    def test_bad_timestamp_reports_row(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,value\n2020-01-01,1.0\nnot-a-date,2.0\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p, "value")
        assert str(exc.value) == f"{p}:3: bad timestamp 'not-a-date'"

    @pytest.mark.parametrize("token", ["20000103", "2000-W01-1"])
    def test_other_iso_spellings_refused(self, tmp_path, token):
        # Python 3.11's date.fromisoformat reads both as 2000-01-03; stored
        # as written they would neither align with nor sort among
        # YYYY-MM-DD dates
        p = tmp_path / "a.csv"
        p.write_text(f"date,value\n2000-01-04,1.0\n{token},2.0\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p, "value")
        assert str(exc.value) == f"{p}:3: bad timestamp '{token}'"

    def test_byte_order_mark_skipped(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes("date,value\n2000-01-03,1.0\n2000-01-04,2.0\n".encode("utf-8-sig"))
        s = load_csv(p, "value")
        assert list(s.timestamps) == ["2000-01-03", "2000-01-04"]

    @pytest.mark.parametrize("header", ["date,value,value", "date,value,date"])
    def test_repeated_column_refused(self, tmp_path, header):
        p = tmp_path / "a.csv"
        p.write_text(f"{header}\n2000-01-03,1.0,5.0\n2000-01-04,2.0,6.0\n")
        with pytest.raises(ParseError, match="more than once"):
            load_csv(p, "value")

    def test_missing_value_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,price\n0,1.0\n1,2.0\n")
        with pytest.raises(ParseError, match="value"):
            load_csv(p, "value")

    def test_no_timestamp_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("when,value\n0,1.0\n1,2.0\n")
        with pytest.raises(ParseError):
            load_csv(p, "value")

    def test_extra_columns_selected_by_name(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,open,close\n0,9.0,1.0\n1,9.0,2.0\n")
        s = load_csv(p, "close")
        assert list(s.values) == [1.0, 2.0]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,value\n0,1.0\n\n1,2.0\n")
        assert len(load_csv(p, "value")) == 2

    def test_whitespace_cells_row_skipped_but_counted(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,value\n0,1.0\n , \n1,2.0\n")
        assert list(load_csv(p, "value").values) == [1.0, 2.0]
        p.write_text("t,value\n0,1.0\n , \n1,2.0\n1,3.0\n")
        with pytest.raises(DuplicateTimestamp) as exc:
            load_csv(p, "value")
        assert str(exc.value) == f"{p}:5: 1"

    def test_first_fault_in_file_order_reported(self, tmp_path):
        # row 4 repeats a date and row 5 holds a bad value: row 4 is named
        p = tmp_path / "two.csv"
        p.write_text("date,value\n2000-01-03,1.0\n2000-01-04,2.0\n2000-01-03,3.0\n2000-01-05,abc\n")
        with pytest.raises(DuplicateTimestamp) as exc:
            load_csv(p, "value")
        assert str(exc.value) == f"{p}:4: 2000-01-03"

    def test_round_trip_exact(self, tmp_path):
        s = index_series([1.25, -3.5, 0.1, 7.0])
        p = tmp_path / "rt.csv"
        write_csv(s, p)
        back = load_csv(p, "value")
        assert np.array_equal(back.values, s.values)
        assert np.array_equal(back.timestamps, s.timestamps)


class TestAlignPair:
    def test_inner_join(self):
        a = TimeSeries(np.array([1, 2, 3]), np.array([10.0, 20.0, 30.0]))
        b = TimeSeries(np.array([2, 3, 4]), np.array([2.0, 3.0, 4.0]))
        pair = align_pair(a, b)
        assert pair.common_length == 2
        assert list(pair.x.timestamps) == [2, 3]
        assert list(pair.x.values) == [20.0, 30.0]
        assert list(pair.y.values) == [2.0, 3.0]

    def test_identical_calendars(self):
        a = index_series([1.0, 2.0, 3.0])
        b = index_series([4.0, 5.0, 6.0])
        assert align_pair(a, b).common_length == len(a)

    def test_disjoint_calendars(self):
        a = TimeSeries(np.array([1, 2]), np.array([1.0, 2.0]))
        b = TimeSeries(np.array([3, 4]), np.array([3.0, 4.0]))
        with pytest.raises(EmptyIntersection):
            align_pair(a, b)

    def test_idempotent(self):
        a = TimeSeries(np.array([1, 2, 3, 5]), np.array([1.0, 2.0, 3.0, 4.0]))
        b = TimeSeries(np.array([2, 3, 5, 8]), np.array([5.0, 6.0, 7.0, 8.0]))
        once = align_pair(a, b)
        twice = align_pair(once.x, once.y)
        assert np.array_equal(once.x.timestamps, twice.x.timestamps)
        assert np.array_equal(once.x.values, twice.x.values)
        assert np.array_equal(once.y.values, twice.y.values)

    def test_standardized_subset_rejected(self):
        # dropping points would silently break the mean-0/std-1 invariant
        a = standardize(TimeSeries(np.array([1, 2, 3]), np.array([1.0, 5.0, 9.0])))
        b = TimeSeries(np.array([2, 3, 4]), np.array([2.0, 3.0, 4.0]))
        with pytest.raises(ValueError, match="^cannot drop timestamps from a standardized"):
            align_pair(a, b)

    def test_standardized_same_calendar_ok(self):
        a = standardize(index_series([1.0, 5.0, 9.0]))
        b = index_series([2.0, 3.0, 4.0])
        assert align_pair(a, b).common_length == 3

    def test_date_calendars(self):
        a = TimeSeries(np.array(["2020-01-01", "2020-01-02"]), np.array([1.0, 2.0]))
        b = TimeSeries(np.array(["2020-01-02", "2020-01-03"]), np.array([3.0, 4.0]))
        with pytest.raises(EmptyIntersection):
            # only one common stamp: too short to form a pair
            align_pair(a, b)

    def test_aligned_pair_validates(self):
        a = index_series([1.0, 2.0])
        b = TimeSeries(np.array([5, 6]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            AlignedPair(a, b)


class TestLogReturns:
    def test_constant_series(self):
        assert list(log_returns(index_series([100.0, 100.0, 100.0])).values) == [0.0, 0.0]

    def test_exponential(self):
        s = index_series([1.0, math.e, math.e**2])
        assert log_returns(s).values == pytest.approx([1.0, 1.0])

    def test_pinned_value(self):
        s = index_series([100.0, 110.0])
        # needs length >= 2 output? one ratio -> length-1 output of 1 value
        with pytest.raises(ValueError):
            log_returns(s)

    def test_pinned_value_longer(self):
        s = index_series([100.0, 110.0, 121.0])
        r = log_returns(s)
        assert r.values[0] == pytest.approx(0.0953102, abs=1e-6)
        assert r.kind == KIND_LOG_RETURN

    def test_later_endpoint_timestamps(self):
        s = TimeSeries(np.array([3, 7, 9]), np.array([1.0, 2.0, 4.0]))
        assert list(log_returns(s).timestamps) == [7, 9]

    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveValue):
            log_returns(index_series([1.0, -2.0, 3.0]))
        with pytest.raises(NonPositiveValue):
            log_returns(index_series([1.0, 0.0, 3.0]))

    def test_wrong_kind_rejected(self):
        s = index_series([-1.0, 1.0], kind=KIND_STANDARDIZED)
        with pytest.raises(ValueError, match="^log_returns expects kind=raw, got standardized$"):
            log_returns(s)

    @given(
        c=st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
        n=st.integers(min_value=3, max_value=50),
    )
    def test_exponential_growth_gives_constant(self, c, n):
        t = np.arange(n, dtype=np.float64)
        r = log_returns(index_series(np.exp(c * t)))
        assert np.allclose(r.values, c, atol=1e-9)


class TestStandardize:
    def test_already_standardized_values(self):
        assert list(standardize(index_series([-1.0, 1.0])).values) == [-1.0, 1.0]

    def test_population_divisor(self):
        # mean 5, population std 5 (not the 7.07 a sample divisor would give)
        s = standardize(index_series([0.0, 10.0]))
        assert list(s.values) == [-1.0, 1.0]
        assert s.kind == KIND_STANDARDIZED

    def test_constant_rejected(self):
        with pytest.raises(ZeroVariance):
            standardize(index_series([3.0, 3.0, 3.0]))

    def test_double_standardize_rejected(self):
        with pytest.raises(ValueError, match="^series is already standardized$"):
            standardize(standardize(index_series([1.0, 2.0, 4.0])))

    @settings(max_examples=60)
    @given(
        values=finite_values,
        a=st.floats(min_value=1e-3, max_value=1e3),
        b=st.floats(min_value=-1e3, max_value=1e3),
    )
    @example(values=[0, 0, 0.00390625], a=0.00390625, b=128)
    def test_affine_invariance(self, values, a, b):
        base = np.asarray(values)
        if base.std() < 1e-6:
            return
        lhs = standardize(index_series(a * base + b)).values
        rhs = standardize(index_series(base)).values
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestPrepare:
    def test_returns_pipeline(self):
        s = index_series([100.0, 110.0, 105.0, 120.0])
        out = prepare(s)
        expected = standardize(log_returns(s))
        assert out.kind == KIND_STANDARDIZED
        assert np.array_equal(out.values, expected.values)
        assert len(out) == len(s) - 1

    def test_raw_passthrough(self):
        s = index_series([100.0, 110.0, 105.0])
        assert prepare(s, mode="raw") is s

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            prepare(index_series([1.0, 2.0]), mode="diff")

    def test_composition_rejects_wrong_kind(self):
        returns = log_returns(index_series([1.0, 2.0, 4.0]))
        with pytest.raises(ValueError, match="^log_returns expects kind=raw, got log-return$"):
            log_returns(returns)
