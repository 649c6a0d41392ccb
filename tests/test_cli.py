"""End-to-end command-line contracts: files, exit codes, error lines."""

import ast
import hashlib
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

import couplemap
from conftest import write_series_csv
from couplemap import CoupleMapError, cli
from couplemap.cli import main
from couplemap.ensemble import (
    SUMMARY_COLUMNS,
    EnsembleSummary,
    SummaryRow,
    read_summary_csv,
    write_summary_csv,
)
from couplemap.metrics import MEASURE_FIELDS, MeasureReport


@pytest.fixture
def market_csvs(tmp_path, rng):
    """Two positive price series on overlapping integer calendars."""
    steps = rng.normal(0, 0.01, size=260)
    prices = 100.0 * np.exp(np.cumsum(steps))
    other = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=260)))
    x = write_series_csv(tmp_path / "x.csv", prices[:250])
    y_series = other[:250]
    y = tmp_path / "y.csv"
    # offset calendar: days 10..259 against x's 0..249
    rows = ["t,value"] + [
        f"{10 + i},{float(v)!r}" for i, v in enumerate(y_series)
    ]
    y.write_text("\n".join(rows) + "\n")
    return x, str(y)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMap:
    def test_writes_four_files(self, market_csvs, tmp_path, capsys):
        x, y = market_csvs
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(
            capsys, "map", x, y, "--bins", "10", "--out", str(out)
        )
        assert code == 0, stderr
        assert stderr == ""
        listed = stdout.strip().splitlines()
        assert [p.rsplit("/", 1)[-1] for p in listed] == [
            "adjacency.tsv",
            "edges.csv",
            "joint.tsv",
            "measures.json",
        ]
        for p in listed:
            assert (out / p.rsplit("/", 1)[-1]).exists()
        report = MeasureReport.from_dict(
            json.loads((out / "measures.json").read_text())
        )
        assert report.bin_count == 10
        # align first: 240 common days, minus one consumed by the return
        assert report.sample_count == 239

    def test_missing_file_error_line(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        present = write_series_csv(tmp_path / "p.csv", [100.0, 101.0, 99.0])
        code, stdout, stderr = run_cli(capsys, "map", str(missing), present)
        assert code == 1
        assert stdout == ""
        assert stderr == f"IoError:{missing}: No such file or directory\n"

    def test_disjoint_calendars(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("t,value\n0,1.0\n1,2.0\n")
        b = tmp_path / "b.csv"
        b.write_text("t,value\n10,1.0\n11,2.0\n")
        code, _, stderr = run_cli(capsys, "map", str(a), str(b))
        assert code == 1
        assert stderr.startswith("EmptyIntersection:")
        assert stderr.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_log_return_out_of_float_range(self, tmp_path, capsys):
        # finite prices whose ratios overflow to inf or underflow to 0
        extreme = write_series_csv(tmp_path / "e.csv", [1e308, 1e-308] * 5)
        plain = write_series_csv(tmp_path / "p.csv", np.arange(100.0, 110.0))
        code, stdout, stderr = run_cli(capsys, "map", extreme, plain, "--bins", "4")
        assert code == 1
        assert stdout == ""
        assert stderr == "ValueError:log-return at 1 is out of the float range\n"

    def test_raw_preprocess(self, market_csvs, tmp_path, capsys):
        x, y = market_csvs
        out = tmp_path / "raw_out"
        code, _, _ = run_cli(
            capsys,
            "map", x, y, "--bins", "8", "--preprocess", "raw", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "measures.json").read_text())
        assert report["sample_count"] == 240  # no return step in raw mode

    def test_rerun_byte_identical(self, market_csvs, tmp_path, capsys):
        x, y = market_csvs
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code, _, _ = run_cli(
                capsys, "map", x, y, "--bins", "10", "--out", str(out)
            )
            assert code == 0
        for name in ("adjacency.tsv", "edges.csv", "joint.tsv", "measures.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestMapLag:
    def test_lag_run(self, market_csvs, tmp_path, capsys):
        x, _ = market_csvs
        out = tmp_path / "lag_out"
        code, stdout, stderr = run_cli(
            capsys, "map-lag", x, "--lag", "2", "--bins", "12", "--out", str(out)
        )
        assert code == 0, stderr
        report = json.loads((out / "measures.json").read_text())
        assert report["bin_count"] == 12
        # 250 prices -> 249 returns -> lag 2 leaves 247 samples
        assert report["sample_count"] == 247

    def test_lag_too_large(self, tmp_path, capsys):
        p = write_series_csv(tmp_path / "short.csv", [100.0, 101.0, 102.0, 99.0])
        code, _, stderr = run_cli(
            capsys, "map-lag", p, "--lag", "9", "--preprocess", "raw"
        )
        assert code == 1
        assert stderr.startswith("LagTooLarge:")

    @pytest.mark.parametrize(
        ("text", "detail"),
        [
            ("date,t,value\n2000-01-03,0,1.0\n2000-01-04,1,2.0\n",
             ": header names both 'date' and 't'"),
            ("t,value\n0,1.0\n2\n1,2.0\n", ":3: too few fields"),
        ],
        ids=["date-and-t", "short-row"],
    )
    def test_malformed_csv_refused(self, text, detail, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "o"
        result = run_cli(capsys, "map-lag", str(bad), "--out", str(out))
        assert result == (1, "", f"ParseError:{bad}{detail}\n")
        assert not out.exists()


class TestBinsGuard:
    """--bins is refused before any B x B array is allocated."""

    @pytest.fixture
    def no_bincount(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.bincount reached")

        monkeypatch.setattr(np, "bincount", refuse)

    @pytest.mark.parametrize("command", ["map", "map-lag", "surrogate", "baseline"])
    def test_above_sample_count(self, command, market_csvs, tmp_path, capsys, no_bincount):
        x, y = market_csvs
        inputs = {
            "map": [x, y],
            "map-lag": [x],
            "surrogate": [x, y, "--replicas", "2"],
            "baseline": ["--hurst", "0.5", "--replicas", "2", "--length", "64"],
        }[command]
        code, stdout, stderr = run_cli(
            capsys, command, *inputs, "--bins", "100000", "--out", str(tmp_path / "o")
        )
        assert code == 1
        assert stdout == ""
        # baseline maps --length less --lag (1 by default) samples per network
        samples = {"map": 239, "map-lag": 248, "surrogate": 239, "baseline": 63}[command]
        assert stderr == f"TooManyBins:100000 bins exceed the {samples} samples to map\n"

    def test_baseline_bins_above_lagged_samples(self, tmp_path, capsys, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("run_fgn_ensemble ran before --bins was checked")

        monkeypatch.setattr(cli, "run_fgn_ensemble", work)
        out = tmp_path / "o"
        # each lag-62 network of a 64-point draw maps 2 samples
        code, stdout, stderr = run_cli(
            capsys,
            "baseline", "--hurst", "0.5", "--replicas", "2", "--length", "64",
            "--lag", "62", "--bins", "50", "--out", str(out),
        )
        line = "TooManyBins:50 bins exceed the 2 samples to map\n"
        assert (code, stdout, stderr) == (1, "", line)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["map", "map-lag", "surrogate", "baseline"])
    def test_below_three(self, command, market_csvs, tmp_path, capsys, no_bincount):
        x, y = market_csvs
        inputs = {
            "map": [x, y],
            "map-lag": [x],
            "surrogate": [x, y, "--replicas", "2"],
            "baseline": ["--hurst", "0.5", "--replicas", "2", "--length", "64"],
        }[command]
        out = tmp_path / "o"
        code, stdout, stderr = run_cli(capsys, command, *inputs, "--bins", "2", "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert stderr == "ValueError:measure battery needs at least 3 bins\n"
        assert not out.exists()

    def test_beyond_physical_memory(self, market_csvs, tmp_path, capsys, monkeypatch, no_bincount):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        x, y = market_csvs
        # 8 * 23**2 = 4232 bytes, over the 4096 reported
        code, stdout, stderr = run_cli(capsys, "map", x, y, "--bins", "23")
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("TooManyBins:23 bins need 4232 bytes")
        assert stderr.count("\n") == 1


class TestBaseline:
    def test_small_baseline(self, tmp_path, capsys):
        out = tmp_path / "base"
        code, stdout, stderr = run_cli(
            capsys,
            "baseline",
            "--hurst", "0.3,0.5",
            "--replicas", "2",
            "--length", "64",
            "--bins", "5",
            "--out", str(out),
        )
        assert code == 0, stderr
        summary_path = out / "baseline_summary.csv"
        assert stdout.splitlines() == [str(summary_path)]
        assert sorted(p.name for p in out.iterdir()) == ["baseline_summary.csv"]
        summary = read_summary_csv(summary_path)
        assert summary.system_names() == ("fgn_h0.3", "fgn_h0.5")
        for system in summary.system_names():
            assert {r.measure_name for r in summary.rows(system)} == set(MEASURE_FIELDS)

    def test_replicas_floor_maps_to_error_line(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys,
            "baseline", "--hurst", "0.5", "--replicas", "1", "--length", "64",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert stderr.startswith("TooFewSamples:")

    def test_bad_hurst_value(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys,
            "baseline", "--hurst", "0.5,1.5", "--replicas", "2", "--length", "64",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert stderr.startswith("ValueError:")

    @pytest.mark.parametrize("hurst", ["0.5,0.5", "0.1,0.10000001"])
    def test_hurst_values_sharing_a_system_name(self, hurst, tmp_path, capsys):
        code, stdout, stderr = run_cli(
            capsys,
            "baseline", "--hurst", hurst, "--replicas", "2", "--length", "64",
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("ValueError:hurst values ")
        assert stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        args = [
            "baseline", "--hurst", "0.4", "--replicas", "3", "--length", "64",
            "--bins", "5", "--seed", "99",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, *args, "--out", str(out_a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(out_b))[0] == 0
        name = "baseline_summary.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSurrogateAndCompare:
    @pytest.fixture
    def pipeline_dirs(self, market_csvs, tmp_path, capsys):
        x, y = market_csvs
        base_dir = tmp_path / "base"
        sur_dir = tmp_path / "sur"
        map_dir = tmp_path / "mapped"
        code, _, stderr = run_cli(
            capsys,
            "baseline", "--hurst", "0.3,0.5,0.7", "--replicas", "3",
            "--length", "128", "--bins", "6", "--out", str(base_dir),
        )
        assert code == 0, stderr
        code, _, stderr = run_cli(
            capsys,
            "surrogate", x, y, "--replicas", "3", "--bins", "6",
            "--out", str(sur_dir),
        )
        assert code == 0, stderr
        code, _, stderr = run_cli(
            capsys, "map", x, y, "--bins", "6", "--out", str(map_dir)
        )
        assert code == 0, stderr
        return base_dir, sur_dir, map_dir

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_surrogate_seed_out_of_range(self, seed, market_csvs, tmp_path, capsys):
        x, y = market_csvs
        code, stdout, stderr = run_cli(
            capsys,
            "surrogate", x, y, "--replicas", "2", "--bins", "6", "--seed", seed,
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert stdout == ""
        assert stderr == f"ValueError:seed must fit in 64 unsigned bits, got {seed}\n"

    def test_full_compare(self, pipeline_dirs, tmp_path, capsys):
        base_dir, sur_dir, map_dir = pipeline_dirs
        out = tmp_path / "cmp"
        code, stdout, stderr = run_cli(
            capsys,
            "compare",
            f"markets={map_dir / 'measures.json'}",
            "--baseline", str(base_dir / "baseline_summary.csv"),
            "--surrogate", str(sur_dir / "surrogate_summary.csv"),
            "--out", str(out),
        )
        assert code == 0, stderr
        data = json.loads((out / "comparison.json").read_text())
        assert data["baseline"] == "fgn_h0.5"
        systems = set(data["distance_to_uncoupled"])
        assert systems == {"fgn_h0.3", "fgn_h0.5", "fgn_h0.7", "surrogate", "markets"}
        assert data["distance_to_uncoupled"]["fgn_h0.5"] == 0.0
        for vector in data["normalized"].values():
            assert set(vector) == set(MEASURE_FIELDS)

    def test_baseline_only_compare(self, pipeline_dirs, tmp_path, capsys):
        base_dir, _, _ = pipeline_dirs
        out = tmp_path / "cmp2"
        code, _, stderr = run_cli(
            capsys,
            "compare",
            "--baseline", str(base_dir / "baseline_summary.csv"),
            "--out", str(out),
        )
        assert code == 0, stderr
        data = json.loads((out / "comparison.json").read_text())
        assert data["distance_to_uncoupled"]["fgn_h0.5"] == 0.0
        assert data["distance_to_uncoupled"]["fgn_h0.7"] > 0.0

    def test_mismatched_schema(self, pipeline_dirs, tmp_path, capsys):
        base_dir, _, _ = pipeline_dirs
        truncated = tmp_path / "short_summary.csv"
        lines = (base_dir / "baseline_summary.csv").read_text().strip().splitlines()
        # drop the last measure row of the last system only
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        result = run_cli(
            capsys,
            "compare", "--baseline", str(truncated), "--out", str(tmp_path / "x"),
        )
        line = f"ParseError:{truncated}: system 'fgn_h0.7' lacks {MEASURE_FIELDS[-1]}\n"
        assert result == (1, "", line)

    def test_bad_report_argument(self, pipeline_dirs, tmp_path, capsys):
        base_dir, _, _ = pipeline_dirs
        code, _, stderr = run_cli(
            capsys,
            "compare", "just-a-path.json",
            "--baseline", str(base_dir / "baseline_summary.csv"),
            "--out", str(tmp_path / "y"),
        )
        assert code == 1
        assert stderr.startswith("ValueError:")

    @pytest.mark.parametrize(
        "names", [("fgn_h0.5",), ("surrogate",), ("a", "a")], ids="-".join
    )
    def test_report_name_already_taken(self, names, pipeline_dirs, tmp_path, capsys):
        base_dir, sur_dir, map_dir = pipeline_dirs
        report = map_dir / "measures.json"
        code, stdout, stderr = run_cli(
            capsys,
            "compare", *(f"{name}={report}" for name in names),
            "--baseline", str(base_dir / "baseline_summary.csv"),
            "--surrogate", str(sur_dir / "surrogate_summary.csv"),
            "--out", str(tmp_path / "cmp"),
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"ValueError:duplicate system name {names[-1]!r}")
        assert stderr.count("\n") == 1
        assert not (tmp_path / "cmp").exists()

    def test_report_json_not_a_report(self, pipeline_dirs, tmp_path, capsys):
        base_dir, _, _ = pipeline_dirs
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"mean_k_total": 1.0}\n')
        code, _, stderr = run_cli(
            capsys,
            "compare", f"b={bogus}",
            "--baseline", str(base_dir / "baseline_summary.csv"),
            "--out", str(tmp_path / "z"),
        )
        assert code == 1
        assert stderr.startswith("ParseError:")


class TestCompareRefusesNonFinite:
    """compare reads only finite numbers, so comparison.json is valid JSON."""

    @pytest.fixture
    def inputs(self, tmp_path):
        summary = tmp_path / "summary.csv"
        rows = {name: SummaryRow(name, 1.0, 0.1, 2) for name in MEASURE_FIELDS}
        write_summary_csv(EnsembleSummary({"fgn_h0.5": rows}), summary)
        report = MeasureReport(**dict.fromkeys(MEASURE_FIELDS, 2.0), bin_count=3, sample_count=9)
        return summary, report.to_dict()

    def compare(self, capsys, tmp_path, summary, report):
        path = tmp_path / "m.json"
        path.write_text(report)
        out = tmp_path / "cmp"
        result = run_cli(capsys, "compare", f"m={path}", "--baseline", str(summary), "--out", str(out))
        return result, path, out

    def test_finite_report_accepted(self, inputs, tmp_path, capsys):
        summary, report = inputs
        report["deformation_R"] = 3  # an int is a finite number
        (code, _, stderr), _, out = self.compare(capsys, tmp_path, summary, json.dumps(report))
        assert code == 0, stderr
        assert json.loads((out / "comparison.json").read_text())["systems"]["m"]["deformation_R"] == 3

    @pytest.mark.parametrize(
        "token, shown",
        [
            ("NaN", "nan"),
            ("Infinity", "inf"),
            ("-1e400", "-inf"),
            ("1" + "0" * 400, "1" + "0" * 400),
            ("true", "True"),
            ('"abc"', "'abc'"),
            ("null", "None"),
        ],
        ids=["nan", "inf", "float-overflow", "int-past-float", "true", "string", "null"],
    )
    def test_report_value_not_finite(self, token, shown, inputs, tmp_path, capsys):
        summary, report = inputs
        text = json.dumps({**report, "deformation_R": "@"}).replace('"@"', token)
        result, path, out = self.compare(capsys, tmp_path, summary, text)
        line = f"ParseError:{path}: deformation_R is {shown}, not a finite number\n"
        assert result == (1, "", line)
        assert not out.exists()

    @pytest.mark.parametrize("column", [2, 3], ids=["mean", "half-width"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-1e400"])
    def test_summary_value_not_finite(self, column, token, inputs, tmp_path, capsys):
        summary, report = inputs
        lines = summary.read_text().splitlines()
        fields = lines[3].split(",")
        fields[column] = token
        lines[3] = ",".join(fields)
        summary.write_text("\n".join(lines) + "\n")
        result, _, out = self.compare(capsys, tmp_path, summary, json.dumps(report))
        line = f"ParseError:{summary}:4: mean and half-width must be finite\n"
        assert result == (1, "", line)
        assert not out.exists()


class TestCompareSummaryShape:
    """compare reads only the summaries baseline and surrogate write, where
    each system has one row for each of the 21 measures, and refuses a
    system name that --baseline, --surrogate or a report has already given."""

    @staticmethod
    def summary(path, systems, measures=MEASURE_FIELDS):
        rows = {name: SummaryRow(name, 1.0, 0.1, 2) for name in measures}
        write_summary_csv(EnsembleSummary(dict.fromkeys(systems, rows)), path)
        return path

    def compare(self, capsys, tmp_path, *argv):
        out = tmp_path / "o"
        result = run_cli(capsys, "compare", *argv, "--out", str(out))
        assert not out.exists()
        return result

    def test_system_in_baseline_and_surrogate(self, tmp_path, capsys):
        a = self.summary(tmp_path / "a.csv", ["fgn_h0.5"])
        b = self.summary(tmp_path / "b.csv", ["fgn_h0.5"])
        result = self.compare(capsys, tmp_path, "--baseline", str(a), "--surrogate", str(b))
        assert result == (1, "", "ValueError:duplicate system name 'fgn_h0.5'\n")

    def test_unknown_measure(self, tmp_path, capsys):
        a = self.summary(tmp_path / "a.csv", ["fgn_h0.5", "fgn_h0.9"], ["not_a_measure"])
        result = self.compare(capsys, tmp_path, "--baseline", str(a))
        assert result == (1, "", f"ParseError:{a}:2: unknown measure 'not_a_measure'\n")

    def test_system_lacking_measures(self, tmp_path, capsys):
        a = self.summary(tmp_path / "a.csv", ["fgn_h0.5", "fgn_h0.9"], ["deformation_R"])
        missing = ", ".join(name for name in MEASURE_FIELDS if name != "deformation_R")
        result = self.compare(capsys, tmp_path, "--baseline", str(a))
        assert result == (1, "", f"ParseError:{a}: system 'fgn_h0.5' lacks {missing}\n")


def assert_file_error(result, kind, path):
    """Exit 1, nothing on stdout, one `Kind:<path>: detail` line on stderr."""
    code, stdout, stderr = result
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"{kind}:{path}: "), stderr
    assert stderr.count("\n") == 1 and stderr.endswith("\n")


class TestFileBoundary:
    """Every file error names its file in the one error line."""

    @pytest.fixture
    def summary_csv(self, tmp_path):
        path = tmp_path / "summary.csv"
        rows = {name: SummaryRow(name, 1.0, 0.1, 2) for name in MEASURE_FIELDS}
        write_summary_csv(EnsembleSummary({"fgn_h0.5": rows}), path)
        return path

    def test_csv_field_over_limit_map(self, market_csvs, tmp_path, capsys):
        x, _ = market_csvs
        big = tmp_path / "big.csv"
        big.write_text("t,value\n0," + "1" * 131_073 + "\n1,2.0\n")
        result = run_cli(capsys, "map", str(big), x, "--out", str(tmp_path / "o"))
        assert_file_error(result, "ParseError", big)
        assert "field larger than field limit" in result[2]

    def test_csv_field_over_limit_compare(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text(",".join(SUMMARY_COLUMNS) + "\n" + "s" * 131_073 + "\n")
        result = run_cli(
            capsys, "compare", "--baseline", str(big), "--out", str(tmp_path / "o")
        )
        assert_file_error(result, "ParseError", big)

    def test_non_utf8_csv(self, market_csvs, tmp_path, capsys):
        x, _ = market_csvs
        latin = tmp_path / "latin.csv"
        latin.write_bytes("t,valeur_\xe9\n0,1.0\n1,2.0\n".encode("latin-1"))
        result = run_cli(capsys, "map", str(latin), x, "--out", str(tmp_path / "o"))
        assert_file_error(result, "ParseError", latin)
        assert "can't decode" in result[2]

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["map", "map-lag", "baseline", "surrogate", "compare"])
    def test_out_names_a_file(self, command, under, market_csvs, summary_csv, tmp_path, capsys):
        # --out is created after the work, so the work runs and then is refused
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        bins = ["--bins", "4"]
        surrogate = tmp_path / "surrogate.csv"
        rows = {name: SummaryRow(name, 2.0, 0.1, 2) for name in MEASURE_FIELDS}
        write_summary_csv(EnsembleSummary({"surrogate": rows}), surrogate)
        argv = {
            "map": ["map", *market_csvs, *bins],
            "map-lag": ["map-lag", market_csvs[0], *bins],
            "baseline": ["baseline", "--replicas", "2", "--length", "64", *bins],
            "surrogate": ["surrogate", *market_csvs, "--replicas", "2", *bins],
            "compare": ["compare", "--baseline", str(summary_csv), "--surrogate", str(surrogate)],
        }[command]
        result = run_cli(capsys, *argv, "--out", str(out))
        assert_file_error(result, "IoError", out)
        assert blocker.read_text() == ""

    def test_missing_input_csv(self, market_csvs, tmp_path, capsys):
        x, _ = market_csvs
        missing = tmp_path / "absent.csv"
        result = run_cli(capsys, "map-lag", str(missing), "--out", str(tmp_path))
        assert_file_error(result, "IoError", missing)
        result = run_cli(capsys, "surrogate", x, str(missing), "--out", str(tmp_path))
        assert_file_error(result, "IoError", missing)

    def test_missing_summary_csv(self, summary_csv, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        result = run_cli(
            capsys, "compare", "--baseline", str(summary_csv),
            "--surrogate", str(missing), "--out", str(tmp_path / "o"),
        )
        assert_file_error(result, "IoError", missing)

    def test_missing_report_json(self, summary_csv, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        result = run_cli(
            capsys, "compare", f"m={missing}", "--baseline", str(summary_csv),
            "--out", str(tmp_path / "o"),
        )
        assert_file_error(result, "IoError", missing)

    @pytest.mark.parametrize(
        ("text", "kind", "detail"),
        [
            ("t,value\n0,1.0\n1,abc\n", "ParseError", ":3: bad value 'abc'"),
            ("t,value\n0,1.0\n0,2.0\n", "DuplicateTimestamp", ":3: 0"),
            ("t,value\n0,1.0\n", "ParseError", ": need at least 2 data rows"),
            ("when,value\n0,1.0\n1,2.0\n", "ParseError",
             ": header must name a 'date' or 't' column"),
        ],
        ids=["bad-value", "repeated-stamp", "one-row", "no-stamp-column"],
    )
    @pytest.mark.parametrize("command", ["map", "surrogate"])
    def test_content_error_names_the_failing_input(
        self, command, text, kind, detail, market_csvs, tmp_path, capsys
    ):
        x, _ = market_csvs
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "o"
        for inputs in ([x, str(bad)], [str(bad), x]):
            result = run_cli(capsys, command, *inputs, "--bins", "4", "--out", str(out))
            assert result == (1, "", f"{kind}:{bad}{detail}\n")
        assert not out.exists()

    def test_repeated_summary_row_refused(self, summary_csv, tmp_path, capsys):
        # a second row for one (system, measure) used to win silently
        with summary_csv.open("a") as fh:
            fh.write("fgn_h0.5,mean_k_total,99.0,0.1,2,0\n")
        out = tmp_path / "o"
        result = run_cli(capsys, "compare", "--baseline", str(summary_csv), "--out", str(out))
        line = f"ParseError:{summary_csv}:23: repeated row for 'fgn_h0.5' 'mean_k_total'\n"
        assert result == (1, "", line)
        assert not out.exists()

    def test_directory_in_place_of_output_file(self, market_csvs, tmp_path, capsys):
        x, y = market_csvs
        out = tmp_path / "out"
        (out / "adjacency.tsv").mkdir(parents=True)
        result = run_cli(capsys, "map", x, y, "--bins", "6", "--out", str(out))
        assert_file_error(result, "IoError", out / "adjacency.tsv")


class TestOneFailurePath:
    """Usage errors, flag owners' refusals and memory errors leave through
    the one error line with exit 1."""

    @pytest.mark.parametrize(
        ("argv", "detail"),
        [
            (["map", "X", "Y", "--bins", "0"], "measure battery needs at least 3 bins"),
            (["map", "X", "Y", "--bins", "abc"], "argument --bins: invalid int value"),
            (["map", "X", "Y", "--preprocess", "logs"], "argument --preprocess: invalid choice"),
            (["baseline", "--hurst", "0.5,abc"], "argument --hurst: bad hurst list"),
            (["baseline", "--seed", "1.5"], "argument --seed: invalid int value"),
            (["baseline", "--level", "0.95"], "unrecognized arguments: --level 0.95"),
            (["map"], "the following arguments are required: x_csv, y_csv"),
            ([], "the following arguments are required: command"),
        ],
        ids=[
            "bins-0", "bins-abc", "preprocess", "hurst", "seed", "level", "no-inputs",
            "no-command",
        ],
    )
    def test_usage_error(self, argv, detail, market_csvs, tmp_path, capsys):
        x, y = market_csvs
        out = tmp_path / "o"
        argv = [{"X": x, "Y": y}.get(arg, arg) for arg in argv]
        code, stdout, stderr = run_cli(capsys, *argv, *(["--out", str(out)] if argv else []))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("ValueError:") and detail in stderr
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        ("argv", "line"),
        [
            (["map-lag", "X", "--lag", "0"], "ValueError:lag must be at least 1, got 0"),
            (["map-lag", "X", "--lag", "-2"], "ValueError:lag must be at least 1, got -2"),
            (
                ["surrogate", "X", "Y", "--replicas", "0"],
                "TooFewSamples:need at least 2 replicas, got 0",
            ),
            (
                ["baseline", "--replicas", "-1"],
                "TooFewSamples:need at least 2 replicas, got -1",
            ),
            (["baseline", "--length", "0"], "ValueError:series_length must be at least 64, got 0"),
            (["baseline", "--lag", "0"], "ValueError:lag must be at least 1, got 0"),
        ],
    )
    def test_value_refused_by_its_owner(self, argv, line, market_csvs, tmp_path, capsys):
        # each integer flag is checked once, by the library call that owns it
        x, y = market_csvs
        argv = [{"X": x, "Y": y}.get(arg, arg) for arg in argv]
        if argv[0] == "baseline":
            argv = ["baseline", "--hurst", "0.5", "--replicas", "2", "--length", "64", *argv[1:]]
        code, stdout, stderr = run_cli(capsys, *argv, "--bins", "6", "--out", str(tmp_path / "o"))
        assert (code, stdout, stderr) == (1, "", line + "\n")

    def test_baseline_lag_refused_before_out(self, tmp_path, capsys, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("run_fgn_ensemble ran before --lag was checked")

        monkeypatch.setattr(cli, "run_fgn_ensemble", work)
        out = tmp_path / "o"
        code, stdout, stderr = run_cli(
            capsys,
            "baseline", "--hurst", "0.5", "--replicas", "2", "--length", "64",
            "--bins", "3", "--lag", "64", "--out", str(out),
        )
        assert (code, stdout, stderr) == (1, "", "LagTooLarge:lag 64 >= series length 64\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        ("lag", "line"),
        [
            ("0", "ValueError:lag must be at least 1, got 0"),
            ("9", "LagTooLarge:lag 9 >= series length 5"),
        ],
    )
    def test_map_lag_refused_before_out(self, lag, line, tmp_path, capsys):
        # six prices leave five returns
        x = write_series_csv(tmp_path / "x.csv", [100.0, 101.0, 99.0, 102.0, 100.5, 103.0])
        out = tmp_path / "o"
        code, stdout, stderr = run_cli(
            capsys, "map-lag", x, "--lag", lag, "--bins", "3", "--out", str(out)
        )
        assert (code, stdout, stderr) == (1, "", line + "\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        ("argv", "line"),
        [
            (
                ["surrogate", "X", "Y", "--replicas", "0"],
                "TooFewSamples:need at least 2 replicas, got 0",
            ),
            (
                ["surrogate", "X", "Y", "--seed", "-1"],
                "ValueError:seed must fit in 64 unsigned bits, got -1",
            ),
            (
                ["surrogate", "X", "Y", "--seed", str(2**64)],
                f"ValueError:seed must fit in 64 unsigned bits, got {2**64}",
            ),
            (
                ["surrogate", "SHORT", "SHORT"],
                "LengthTooShort:surrogate needs at least 4 points, got 3",
            ),
            (
                ["map-lag", "HUGE", "--preprocess", "raw"],
                "ValueError:value range times 3 bins is out of the float range",
            ),
        ],
        ids=["replicas-0", "seed-negative", "seed-2**64", "three-returns", "raw-overflow"],
    )
    def test_late_refusal_leaves_no_out(self, argv, line, market_csvs, tmp_path, capsys):
        # each is refused by the library call that does the work, before --out exists
        huge = tmp_path / "huge.csv"
        values = ["1e308", "-1e308", "0", "5e307", "-5e307", "1e307", "2", "3"]
        huge.write_text("t,value\n" + "".join(f"{t},{v}\n" for t, v in enumerate(values)))
        x, y = market_csvs
        inputs = {"X": x, "Y": y, "SHORT": _dated(tmp_path / "short.csv"), "HUGE": str(huge)}
        out = tmp_path / "o"
        argv = [inputs.get(arg, arg) for arg in argv]
        code, stdout, stderr = run_cli(capsys, *argv, "--bins", "3", "--out", str(out))
        assert (code, stdout, stderr) == (1, "", line + "\n")
        assert not out.exists()

    def test_memory_error(self, tmp_path, capsys, monkeypatch):
        class _ArrayMemoryError(MemoryError):
            """Stands in for NumPy's private MemoryError subclass."""

        def allocate(*args, **kwargs):
            raise _ArrayMemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(cli, "run_fgn_ensemble", allocate)
        code, stdout, stderr = run_cli(
            capsys,
            "baseline", "--hurst", "0.5", "--replicas", "2", "--length", "64",
            "--bins", "3", "--out", str(tmp_path / "o"),
        )
        assert (code, stdout) == (1, "")
        assert stderr == "MemoryError:Unable to allocate 7.45 GiB for an array\n"

    @pytest.mark.filterwarnings("error")
    def test_raw_amplitudes_near_float_limit(self, tmp_path, capsys):
        huge = tmp_path / "huge.csv"
        values = ["1e308", "-1e308", "0", "5e307", "-5e307", "1e307", "2", "3"]
        huge.write_text("t,value\n" + "".join(f"{t},{v}\n" for t, v in enumerate(values)))
        code, stdout, stderr = run_cli(
            capsys, "map-lag", str(huge), "--preprocess", "raw", "--bins", "3",
            "--out", str(tmp_path / "o"),
        )
        assert (code, stdout) == (1, "")
        assert stderr == "ValueError:value range times 3 bins is out of the float range\n"

        dated = tmp_path / "dated.csv"
        values = ["-2.8e-43", "116", "166.1", "-3.5e16", "-1e308", "100", "100.5", "7"]
        dated.write_text(
            "date,value\n" + "".join(f"2020-01-0{d},{v}\n" for d, v in enumerate(values, 1))
        )
        code, stdout, stderr = run_cli(
            capsys, "surrogate", str(dated), str(dated), "--preprocess", "raw",
            "--bins", "3", "--replicas", "3", "--out", str(tmp_path / "o"),
        )
        assert (code, stdout, stderr) == (1, "", "ValueError:values must all be finite\n")


def _text_csv(path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _prices(path) -> str:
    return write_series_csv(path, [100.0, 101.0, 99.0, 102.0, 100.5, 103.0, 101.0, 104.0])


def _dated(path) -> str:
    dates = np.array(["2000-01-03", "2000-01-04", "2000-01-05", "2000-01-06"])
    return write_series_csv(path, [100.0, 101.0, 99.0, 102.0], dates=dates)


# One command per error kind that a command can print, from inputs under d
PRINTABLE_KINDS = {
    "IoError": lambda d: ["map", str(d / "absent.csv"), _prices(d / "y.csv")],
    "ParseError": lambda d: [
        "map", _text_csv(d / "x.csv", "t,value\n0,1.0\n1,abc\n"), _prices(d / "y.csv")
    ],
    "DuplicateTimestamp": lambda d: [
        "map", _text_csv(d / "x.csv", "t,value\n0,1.0\n0,2.0\n"), _prices(d / "y.csv")
    ],
    "EmptyIntersection": lambda d: [
        "map",
        _text_csv(d / "x.csv", "t,value\n0,1.0\n1,2.0\n"),
        _text_csv(d / "y.csv", "t,value\n10,1.0\n11,2.0\n"),
    ],
    "NonPositiveValue": lambda d: [
        "map", write_series_csv(d / "x.csv", [1.0, -2.0, 3.0, 4.0]), _prices(d / "y.csv")
    ],
    "ZeroVariance": lambda d: [
        "map", write_series_csv(d / "x.csv", [5.0] * 8), _prices(d / "y.csv")
    ],
    # 4 dated prices leave 3 returns: 3 bins fit, a surrogate needs 4 points
    "LengthTooShort": lambda d: [
        "surrogate", _dated(d / "x.csv"), _dated(d / "y.csv"), "--bins", "3"
    ],
    "LagTooLarge": lambda d: ["map-lag", _prices(d / "x.csv"), "--lag", "9"],
    "TooManyBins": lambda d: [
        "map", _prices(d / "x.csv"), _prices(d / "y.csv"), "--bins", "100000"
    ],
    "TooFewSamples": lambda d: [
        "baseline", "--hurst", "0.5", "--replicas", "1", "--length", "64"
    ],
}


class TestErrorKinds:
    """Every CoupleMapError kind is one that a command prints; every other
    refusal is a ValueError."""

    @pytest.mark.parametrize("kind", PRINTABLE_KINDS)
    def test_command_prints_kind(self, kind, tmp_path, capsys):
        argv = PRINTABLE_KINDS[kind](tmp_path)
        code, stdout, stderr = run_cli(capsys, *argv, "--out", str(tmp_path / "o"))
        assert (code, stdout) == (1, ""), stderr
        assert stderr.startswith(f"{kind}:")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")

    def test_every_kind_is_printable(self):
        kinds = {k.__name__ for k in CoupleMapError.__subclasses__()}
        assert set(PRINTABLE_KINDS) == kinds

    def test_all_is_the_imported_public_names(self):
        tree = ast.parse(Path(couplemap.__file__).read_text(encoding="utf-8"))
        imported = [
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]
        assert sorted(couplemap.__all__) == sorted(imported)
        assert len(set(couplemap.__all__)) == len(couplemap.__all__)


class TestHelp:
    @pytest.mark.parametrize(
        ("command", "expected"),
        [
            ("map", "at least 3, at most the number of samples mapped"),
            ("map-lag", "less than the series length"),
            ("baseline", "in (0, 1)"),
            ("surrogate", "at least 2"),
            ("compare", "NAME=PATH"),
        ],
    )
    def test_help_documents_preconditions(self, command, expected, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        # argparse wraps long help strings, so compare on collapsed whitespace
        flattened = " ".join(capsys.readouterr().out.split())
        assert expected in flattened

    @pytest.mark.parametrize(
        "argv", [["baseline"], ["surrogate", "x.csv", "y.csv"]], ids=lambda a: a[0]
    )
    def test_no_level_flag(self, argv, capsys):
        # every summary is a fixed 90% interval
        code, stdout, stderr = run_cli(capsys, *argv, "--level", "0.95")
        assert code == 1
        assert stdout == ""
        assert stderr.count("\n") == 1
        assert "unrecognized arguments: --level 0.95" in stderr

    @pytest.mark.parametrize(
        ("command", "flags"),
        [
            ("map", ["--bins", "--column", "--preprocess", "--out"]),
            ("map-lag", ["--bins", "--column", "--preprocess", "--out", "--lag"]),
            ("baseline",
             ["--hurst", "--replicas", "--length", "--lag", "--bins", "--seed", "--out"]),
            ("surrogate",
             ["--replicas", "--bins", "--column", "--preprocess", "--seed", "--out"]),
            ("compare", ["--baseline", "--surrogate", "--out"]),
        ],
    )
    def test_help_lists_exactly_the_command_flags(self, command, flags, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        options = out[out.index("options:"):]
        listed = {line.split()[0] for line in options.splitlines()[1:] if line.startswith("  -")}
        assert listed == {"-h,", *flags}

    @pytest.mark.parametrize(
        ("command", "patched", "expected"),
        [
            ("map", {"DEFAULT_BIN_COUNT": 17}, ["samples mapped (default 17)"]),
            ("map-lag", {"DEFAULT_LAG": 4}, ["series length (default 4)"]),
            (
                "baseline",
                {"DEFAULT_BIN_COUNT": 17, "DEFAULT_REPLICAS": 5,
                 "DEFAULT_SERIES_LENGTH": 640, "DEFAULT_LAG": 4},
                ["samples mapped (default 17)", "at least 2 (default 5)",
                 "at least 64 (default 640)", "at least 1 (default 4)"],
            ),
            ("surrogate", {"DEFAULT_REPLICAS": 5}, ["at least 2 (default 5)"]),
        ],
    )
    def test_help_defaults_follow_the_constants(
        self, command, patched, expected, monkeypatch, capsys
    ):
        for name, value in patched.items():
            monkeypatch.setattr(cli, name, value)
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flattened = " ".join(capsys.readouterr().out.split())
        for text in expected:
            assert text in flattened

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("map", "map-lag", "baseline", "surrogate", "compare"):
            assert command in out


class TestOutputBytes:
    """The exact bytes map and map-lag write for two fixed integer series.

    Raw mode keeps log and exp, whose SIMD paths may differ between CPUs,
    out of the numbers. The digests were recorded with NumPy 2.4.6; the
    NumPy 2.0 floor has not been checked against them.
    """

    DIGESTS = {
        "map": {
            "adjacency.tsv": "14684f174efbc23e1bae9c780c452d444d89443117df5cdbfbbae76c74c8c7ef",
            "edges.csv": "13fdcb457115b467cb6c3679d143b7a922516150e0ebc5d6b8484128a8f1b701",
            "joint.tsv": "d6726f09c9c151b1a4f0bb0aecacd041cd6e41104c8e6795a5e908dcb4c1b145",
            "measures.json": "15a083f7e1cd4d4381edc3ee78db4371a08a24ae3e384704c297aeaaba1ffb20",
        },
        "map-lag": {
            "adjacency.tsv": "7b4e2735667a0d303ceff7f5d820f5f120b6dc092d566e664e57c11cee6e9655",
            "edges.csv": "7d6e4fa10be8a68964024d3f2952408c213fdc26e44c56a5b594cc96d466f70f",
            "joint.tsv": "69cc8d97274d4e67dc78118bd665768436cf6f4915742c3cfc5f2954f067c1e5",
            "measures.json": "dfeec74dbf7801d36be54bf186a9bff7466b5a41f1f196c7bba388ad9dd968d0",
        },
    }

    @pytest.fixture
    def integer_csvs(self, tmp_path):
        """Two t,value CSVs of 400 integers in [1, 999]."""
        draw = random.Random(7)
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            rows = [f"{t},{draw.randint(1, 999)}" for t in range(400)]
            path.write_text("t,value\n" + "\n".join(rows) + "\n")
            paths.append(str(path))
        return paths

    def test_map_and_map_lag_bytes(self, integer_csvs, tmp_path, capsys):
        a, b = integer_csvs
        got = {}
        for name, argv in (("map", ["map", a, b]), ("map-lag", ["map-lag", a, "--lag", "2"])):
            out = tmp_path / name
            code, _, stderr = run_cli(
                capsys, *argv, "--preprocess", "raw", "--bins", "20", "--out", str(out)
            )
            assert code == 0, stderr
            got[name] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
            }
        assert got == self.DIGESTS
