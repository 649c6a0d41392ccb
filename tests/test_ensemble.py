"""Ensemble aggregation, confidence intervals, seeds and radar reports."""

import json
import math

import numpy as np
import pytest
from scipy.stats import norm

from couplemap import (
    EnsembleConfig,
    LagTooLarge,
    ParseError,
    TooFewSamples,
    TooManyBins,
    radar_normalize,
    read_summary_csv,
    run_fgn_ensemble,
    run_surrogate_pair,
    write_json,
    write_summary_csv,
)
from couplemap import ensemble, metrics
from couplemap.ensemble import (
    DEFAULT_MASTER_SEED,
    SUMMARY_COLUMNS,
    UNCOUPLED_SYSTEM,
    Z90,
    _aggregate,
    confidence_interval,
    derive_seed,
    fgn_system_name,
)
from couplemap.metrics import (
    MEASURE_FIELDS,
    MeasureReport,
    degree_stats,
    measure_all,
    measure_many,
)
from couplemap.netmap import map_lagged, map_pair
from couplemap.series import AlignedPair, TimeSeries, index_series
from couplemap.synth import FgnSpec, generate_fgn, surrogate

SMALL = dict(
    hurst_values=(0.5,), replicas_per_h=4, series_length=128, bin_count=8
)


def small_report(**overrides) -> MeasureReport:
    values = {name: 1.0 for name in MEASURE_FIELDS}
    values.update(bin_count=5, sample_count=10, flags=())
    values.update(overrides)
    return MeasureReport(**values)


class TestDeriveSeed:
    def test_pinned_values(self):
        # frozen regression: reseeding would silently change every baseline
        assert derive_seed(0, 0, 0) == 12035550249420947055
        assert derive_seed(20200529, 3, 17) == 9970068972282670208
        assert derive_seed(2**64 - 1, 8, 31) == 15833394321345807750

    def test_64_bit_range(self):
        for master in (0, 1, 2**63, 2**64 - 1):
            for stream in range(3):
                s = derive_seed(master, stream, 5)
                assert 0 <= s < 2**64

    def test_sensitive_to_every_argument(self):
        base = derive_seed(11, 2, 3)
        assert derive_seed(12, 2, 3) != base
        assert derive_seed(11, 3, 3) != base
        assert derive_seed(11, 2, 4) != base

    def test_no_collisions_across_grid(self):
        seeds = {
            derive_seed(99, stream, index)
            for stream in range(16)
            for index in range(64)
        }
        assert len(seeds) == 16 * 64


class TestConfidenceInterval:
    def test_pinned_example(self):
        mean, half_width = confidence_interval([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert half_width == pytest.approx(0.9497, abs=1e-4)

    def test_z_value(self):
        # S = sqrt(2) and n = 2 cancel: the half-width IS the 90% Z
        _, half_width = confidence_interval([0.0, 2.0])
        assert half_width == pytest.approx(1.6449, abs=1e-4)
        # S = 2 and sqrt(n) = 2 cancel exactly: the half-width is bit for
        # bit the two-sided 90% normal quantile
        _, half_width = confidence_interval([3.0, -1.0, -1.0, -1.0])
        assert half_width == Z90 == norm.ppf(0.95)

    def test_constant_samples(self):
        assert confidence_interval([4.2, 4.2, 4.2]) == (4.2, 0.0)

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            confidence_interval([1.0])


class TestEnsembleConfig:
    def test_defaults_follow_the_288_layout(self):
        cfg = EnsembleConfig()
        assert len(cfg.hurst_values) * cfg.replicas_per_h == 288
        assert cfg.series_length == 2000
        assert cfg.bin_count == 50
        assert cfg.lag == 1

    def test_replicas_floor(self):
        with pytest.raises(TooFewSamples):
            EnsembleConfig(replicas_per_h=1)

    def test_length_floor(self):
        with pytest.raises(ValueError):
            EnsembleConfig(series_length=63)

    def test_hurst_bounds(self):
        with pytest.raises(ValueError):
            EnsembleConfig(hurst_values=(0.5, 1.0))
        with pytest.raises(ValueError):
            EnsembleConfig(hurst_values=())

    def test_hurst_values_need_distinct_system_names(self):
        # fgn_h{h:g} keys the summary: a repeated name would drop a system
        for hurst in ((0.5, 0.5), (0.1, 0.10000001)):
            with pytest.raises(ValueError, match="share the system name 'fgn_h0."):
                EnsembleConfig(hurst_values=hurst)

    def test_lag_and_seed_and_coupling(self):
        with pytest.raises(ValueError):
            EnsembleConfig(lag=0)
        with pytest.raises(LagTooLarge, match="^lag 64 >= series length 64$"):
            EnsembleConfig(series_length=64, lag=64)
        with pytest.raises(TooManyBins, match="^50 bins exceed the 1 samples to map$"):
            EnsembleConfig(series_length=64, lag=63)
        assert EnsembleConfig(series_length=64, lag=61, bin_count=3).lag == 61
        with pytest.raises(ValueError):
            EnsembleConfig(master_seed=2**64)
        with pytest.raises(TypeError, match="seed must be an integer"):
            EnsembleConfig(master_seed=1.5)
        with pytest.raises(ValueError):
            EnsembleConfig(coupling="mutual")

    @pytest.mark.parametrize(
        "bins, kind, line",
        [
            (0, ValueError, "^measure battery needs at least 3 bins$"),
            (2, ValueError, "^measure battery needs at least 3 bins$"),
            (62, TooManyBins, "^62 bins exceed the 61 samples to map$"),
        ],
    )
    def test_bins_checked_when_built(self, bins, kind, line, monkeypatch):
        def draw(*args):
            raise AssertionError("an fGn stack was drawn before bin_count was checked")

        monkeypatch.setattr(ensemble, "fgn_stacks", draw)
        with pytest.raises(kind, match=line):
            ensemble.run_fgn_ensemble(EnsembleConfig(series_length=64, lag=3, bin_count=bins))

    def test_pair_coupled_bins_checked_against_series_length(self):
        # a pair-coupled network maps every one of its series_length samples
        assert EnsembleConfig(series_length=64, coupling="pair", bin_count=64).bin_count == 64
        with pytest.raises(TooManyBins, match="^65 bins exceed the 64 samples to map$"):
            EnsembleConfig(series_length=64, coupling="pair", bin_count=65)

    def test_list_coerced_to_tuple(self):
        assert EnsembleConfig(hurst_values=[0.4]).hurst_values == (0.4,)


class TestAggregate:
    def test_flag_counting(self):
        reports = [
            small_report(),
            small_report(flags=("assort_coef",)),
            small_report(flags=("assort_coef", "mean_len_directed")),
        ]
        rows = _aggregate(reports)
        assert rows["assort_coef"].flags == 2
        assert rows["mean_len_directed"].flags == 1
        assert rows["mean_k_total"].flags == 0
        assert rows["mean_k_total"].n == 3

    def test_row_per_measure(self):
        rows = _aggregate([small_report(), small_report()])
        assert tuple(rows) == MEASURE_FIELDS
        assert tuple(r.measure_name for r in rows.values()) == MEASURE_FIELDS


class TestRunFgnEnsemble:
    def test_small_run_structure(self):
        summary = run_fgn_ensemble(EnsembleConfig(**SMALL))
        assert summary.system_names() == ("fgn_h0.5",)
        rows = summary.rows("fgn_h0.5")
        assert len(rows) == len(MEASURE_FIELDS)
        for row in rows:
            assert row.n == 4
            assert row.half_width >= 0.0

    def test_out_in_identity(self):
        summary = run_fgn_ensemble(EnsembleConfig(**SMALL))
        rows = summary.systems["fgn_h0.5"]
        out, inn, total = rows["mean_k_out"], rows["mean_k_in"], rows["mean_k_total"]
        assert abs(out.mean - inn.mean) <= 1e-12
        assert abs(out.mean - total.mean / 2.0) <= 1e-12

    def test_replica_reproduces_by_seed(self):
        # replica 2 of stream 0 is derive_seed(master, 0, 2), nothing else
        cfg = EnsembleConfig(**SMALL, master_seed=77)
        summary = run_fgn_ensemble(cfg)
        series = generate_fgn(FgnSpec(0.5, 128, derive_seed(77, 0, 2)))
        report = measure_all(map_lagged(series, lag=1, bin_count=8))
        # the ensemble mean over 4 replicas moves when any replica changes;
        # reproducing one replica exactly pins the whole seed schedule
        replicas = [
            measure_all(
                map_lagged(
                    generate_fgn(FgnSpec(0.5, 128, derive_seed(77, 0, r))),
                    lag=1,
                    bin_count=8,
                )
            )
            for r in range(4)
        ]
        assert replicas[2].mean_k_total == report.mean_k_total
        mean = np.mean([r.mean_k_total for r in replicas])
        assert summary.systems["fgn_h0.5"]["mean_k_total"].mean == pytest.approx(
            mean, abs=1e-12
        )

    # 27 replicas of N = 2000 take four stacks of draws (8 + 8 + 8 + 3) per
    # system; the two systems' 54 networks at B = 50 are measured as one
    # stream, in stacks of 26 + 26 + 2, so the second stack spans both
    @pytest.mark.parametrize("coupling", ["lag", "pair"])
    def test_stacked_reports_equal_building_each_alone(self, coupling, monkeypatch):
        captured = []
        stacks = []

        def recording(nets):
            reports = measure_many(nets)
            captured.append(reports)
            return reports

        def degrees(stack):
            stacks.append(len(stack))
            return degree_stats(stack)

        monkeypatch.setattr(ensemble, "measure_many", recording)
        monkeypatch.setattr(metrics, "degree_stats", degrees)
        cfg = EnsembleConfig(
            hurst_values=(0.3, 0.9), replicas_per_h=27, master_seed=41, coupling=coupling
        )
        summary = run_fgn_ensemble(cfg)
        (reports,) = captured
        assert stacks == [26, 26, 2]

        def alone(h_index: int, h: float, r: int) -> MeasureReport:
            def draw(stream):
                return generate_fgn(FgnSpec(h, 2000, derive_seed(41, h_index, stream)))

            if coupling == "lag":
                return measure_all(map_lagged(draw(r), lag=1, bin_count=50))
            pair = AlignedPair(draw(2 * r), draw(2 * r + 1))
            return measure_all(map_pair(pair, bin_count=50))

        for h_index, h in enumerate(cfg.hurst_values):
            expected = [alone(h_index, h, r) for r in range(27)]
            system = reports[27 * h_index : 27 * (h_index + 1)]
            assert [repr(r) for r in system] == [repr(r) for r in expected]
            assert summary.systems[fgn_system_name(h)] == _aggregate(expected)

    def test_pair_mode_differs_from_lag_mode(self):
        lag = run_fgn_ensemble(EnsembleConfig(**SMALL))
        pair = run_fgn_ensemble(EnsembleConfig(**SMALL, coupling="pair"))
        assert (
            lag.systems["fgn_h0.5"]["deformation_R"].mean
            != pair.systems["fgn_h0.5"]["deformation_R"].mean
        )

    def test_system_names_format(self):
        assert fgn_system_name(0.5) == "fgn_h0.5"
        assert fgn_system_name(0.1) == "fgn_h0.1"
        assert UNCOUPLED_SYSTEM == fgn_system_name(0.5)

    def test_ci_shrinkage_with_replica_doubling(self):
        # half-width ~ S/sqrt(n); doubling replicas on the same seed stream
        # (the 8-replica prefix is shared) shrinks it by sqrt(2) on average
        base = dict(hurst_values=(0.5,), series_length=64, bin_count=5)
        masters = range(12)
        hw_small = {name: 0.0 for name in MEASURE_FIELDS}
        hw_large = {name: 0.0 for name in MEASURE_FIELDS}
        for master in masters:
            small = run_fgn_ensemble(
                EnsembleConfig(**base, replicas_per_h=8, master_seed=master)
            )
            large = run_fgn_ensemble(
                EnsembleConfig(**base, replicas_per_h=16, master_seed=master)
            )
            for name in MEASURE_FIELDS:
                hw_small[name] += small.systems["fgn_h0.5"][name].half_width
                hw_large[name] += large.systems["fgn_h0.5"][name].half_width
        ratios = [
            hw_small[name] / hw_large[name]
            for name in MEASURE_FIELDS
            if hw_large[name] > 1e-12  # flagged-constant measures have no width
        ]
        assert len(ratios) >= 10
        assert np.mean(ratios) == pytest.approx(math.sqrt(2.0), rel=0.15)


class TestRunSurrogatePair:
    @staticmethod
    def _pair(n=256, seed=0):
        rng = np.random.default_rng(seed)
        return index_series(rng.normal(size=n)), index_series(rng.normal(size=n))

    def test_structure(self):
        x, y = self._pair()
        summary = run_surrogate_pair(x, y, replicas=3, bin_count=8, master_seed=5)
        assert summary.system_names() == ("surrogate",)
        assert all(r.n == 3 for r in summary.rows("surrogate"))

    def test_replica_floor(self):
        x, y = self._pair()
        with pytest.raises(TooFewSamples):
            run_surrogate_pair(x, y, replicas=1, bin_count=8)

    def test_master_seed_range(self):
        # derive_seed masks to 64 bits, so -1 would alias 2**64 - 1
        x, y = self._pair()
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="64 unsigned bits"):
                run_surrogate_pair(x, y, replicas=2, bin_count=8, master_seed=seed)

    def test_master_seed_must_be_an_integer(self):
        x, y = self._pair()
        with pytest.raises(TypeError, match="seed must be an integer"):
            run_surrogate_pair(x, y, replicas=2, bin_count=8, master_seed=1.5)

    def test_misaligned_inputs_rejected(self):
        x = index_series(np.zeros(10) + np.arange(10))
        y = TimeSeries(np.arange(5, 15), np.arange(10, dtype=np.float64))
        with pytest.raises(ValueError):
            run_surrogate_pair(x, y, replicas=2, bin_count=8)

    def test_deterministic(self):
        x, y = self._pair()
        a = run_surrogate_pair(x, y, replicas=3, bin_count=8, master_seed=1)
        b = run_surrogate_pair(x, y, replicas=3, bin_count=8, master_seed=1)
        assert a.rows("surrogate") == b.rows("surrogate")
        # replica r surrogates x and y with derive_seed(master, r, 0 / 1)
        reports = [
            measure_all(
                map_pair(
                    AlignedPair(
                        surrogate(x, derive_seed(1, r, 0)),
                        surrogate(y, derive_seed(1, r, 1)),
                    ),
                    bin_count=8,
                )
            )
            for r in range(3)
        ]
        assert a.systems["surrogate"] == _aggregate(reports)

    @pytest.mark.parametrize("n, replicas", [(2447, 7), (2000, 9)])
    def test_stacks_equal_replicas_built_alone(self, n, replicas):
        # surrogates are drawn 6 rows a stack at the prime N = 2447 and 8 at
        # N = 2000, so both replica counts cross a stack boundary
        rng = np.random.default_rng(n)
        x = index_series(rng.standard_t(3, size=n))
        y = index_series(rng.standard_t(3, size=n))
        summary = run_surrogate_pair(x, y, replicas=replicas, bin_count=50, master_seed=9)
        reports = [
            measure_all(
                map_pair(
                    AlignedPair(
                        surrogate(x, derive_seed(9, r, 0)),
                        surrogate(y, derive_seed(9, r, 1)),
                    ),
                    bin_count=50,
                )
            )
            for r in range(replicas)
        ]
        assert repr(summary.systems["surrogate"]) == repr(_aggregate(reports))


class TestEnsembleSummary:
    def test_vector_and_row(self):
        summary = run_fgn_ensemble(EnsembleConfig(**SMALL))
        rows = summary.systems["fgn_h0.5"]
        assert tuple(rows) == MEASURE_FIELDS
        assert summary.rows("fgn_h0.5") == tuple(rows.values())
        with pytest.raises(KeyError):
            rows["not_a_measure"]


class TestSummaryCsv:
    def test_round_trip_exact(self, tmp_path):
        summary = run_fgn_ensemble(EnsembleConfig(**SMALL))
        path = tmp_path / "summary.csv"
        write_summary_csv(summary, path)
        back = read_summary_csv(path)
        assert back.system_names() == summary.system_names()
        # repr round-trip keeps every float bit-exact
        assert back.rows("fgn_h0.5") == summary.rows("fgn_h0.5")

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nope,nope\n")
        with pytest.raises(ParseError):
            read_summary_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            read_summary_csv(p)

    def test_bad_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            ",".join(SUMMARY_COLUMNS) + "\nsys,mean_k_total,not-a-float,0.0,2,0\n"
        )
        with pytest.raises(ParseError, match=":2"):
            read_summary_csv(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(",".join(SUMMARY_COLUMNS) + "\nsys,mean_k_total,1.0\n")
        with pytest.raises(ParseError, match=":2"):
            read_summary_csv(p)

    @pytest.mark.parametrize(
        ("record", "detail"),
        [
            ("sys,mean_k_out,1.0,0.5,2,0", "repeated row for 'sys' 'mean_k_out'"),
            ("sys,mean_k_in,1.0,-0.5,2,0", "half-width -0.5 is negative"),
            ("sys,mean_k_in,1.0,0.5,1,0", "n 1 is below 2"),
            ("sys,mean_k_in,1.0,0.5,2,3", "flags 3 outside [0, 2]"),
            ("sys,mean_k_in,1.0,0.5,2,-1", "flags -1 outside [0, 2]"),
            ("sys,not_a_measure,1.0,0.5,2,0", "unknown measure 'not_a_measure'"),
        ],
        ids=[
            "repeated", "negative-half-width", "n-below-2", "flags-above-n", "flags-negative",
            "unknown-measure",
        ],
    )
    def test_rows_never_written_refused(self, tmp_path, record, detail):
        # write_summary_csv writes one row per (system, measure) of
        # MEASURE_FIELDS, n >= 2, half-width >= 0 and 0 <= flags <= n;
        # anything else is refused at its row
        p = tmp_path / "bad.csv"
        good = "sys,mean_k_out,1.0,0.5,2,2\nother,mean_k_out,1.0,0.5,2,0\n"
        p.write_text(",".join(SUMMARY_COLUMNS) + f"\n{good}{record}\n")
        with pytest.raises(ParseError) as exc:
            read_summary_csv(p)
        assert str(exc.value) == f"{p}:4: {detail}"


class TestRadarNormalize:
    @staticmethod
    def _vec(**values):
        return dict(values)

    def test_two_systems_hit_zero_and_one(self):
        report = radar_normalize(
            {
                UNCOUPLED_SYSTEM: self._vec(a=1.0, b=5.0),
                "market": self._vec(a=3.0, b=2.0),
            }
        )
        assert sorted(report["normalized"][UNCOUPLED_SYSTEM].values()) == [0.0, 1.0]
        assert sorted(report["normalized"]["market"].values()) == [0.0, 1.0]

    def test_three_values_rescale_linearly(self):
        report = radar_normalize(
            {
                UNCOUPLED_SYSTEM: self._vec(m=1.0),
                "mid": self._vec(m=2.0),
                "high": self._vec(m=3.0),
            }
        )
        assert report["normalized"][UNCOUPLED_SYSTEM]["m"] == 0.0
        assert report["normalized"]["mid"]["m"] == 0.5
        assert report["normalized"]["high"]["m"] == 1.0

    def test_all_equal_normalizes_to_half(self):
        report = radar_normalize(
            {UNCOUPLED_SYSTEM: self._vec(m=7.0), "other": self._vec(m=7.0)}
        )
        assert report["normalized"]["other"]["m"] == 0.5
        assert report["distance_to_uncoupled"]["other"] == 0.0

    def test_identity_distance_zero(self):
        report = radar_normalize(
            {
                UNCOUPLED_SYSTEM: self._vec(a=1.0, b=2.0),
                "twin": self._vec(a=1.0, b=2.0),
                "far": self._vec(a=9.0, b=-2.0),
            }
        )
        assert report["distance_to_uncoupled"]["twin"] == 0.0
        assert report["distance_to_uncoupled"][UNCOUPLED_SYSTEM] == 0.0
        assert report["distance_to_uncoupled"]["far"] == pytest.approx(math.sqrt(2.0))

    def test_mismatched_sets_rejected(self):
        line = "^system 'other' does not share the measure set of 'fgn_h0.5'$"
        with pytest.raises(ValueError, match=line):
            radar_normalize(
                {UNCOUPLED_SYSTEM: self._vec(a=1.0), "other": self._vec(b=1.0)}
            )

    def test_needs_two_systems_and_baseline(self):
        with pytest.raises(ValueError):
            radar_normalize({UNCOUPLED_SYSTEM: self._vec(a=1.0)})
        with pytest.raises(ValueError):
            radar_normalize({"a": self._vec(m=1.0), "b": self._vec(m=2.0)})

    def test_report_round_trip(self, tmp_path):
        report = radar_normalize(
            {UNCOUPLED_SYSTEM: self._vec(a=1.0), "other": self._vec(a=2.0)}
        )
        path = tmp_path / "comparison.json"
        write_json(report, path)
        again = json.loads(path.read_text())
        assert list(again) == ["baseline", "systems", "normalized", "distance_to_uncoupled"]
        assert again["baseline"] == UNCOUPLED_SYSTEM
        assert again == report
