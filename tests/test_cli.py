"""End-to-end command-line contracts: files, exit codes, error lines."""

import json
import os

import numpy as np
import pytest

from conftest import write_series_csv
from couplemap import cli
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
        samples = {"map": 239, "map-lag": 248, "surrogate": 239, "baseline": 64}[command]
        assert stderr == f"TooManyBins:--bins 100000 exceeds the {samples} samples to map\n"

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
        assert stderr.startswith("TooManyBins:--bins 23 needs 4232 bytes")
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
        code, _, stderr = run_cli(
            capsys,
            "compare", "--baseline", str(truncated), "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert stderr.startswith("MismatchedMeasureSets:")

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
        rows = (SummaryRow("mean_k_total", 1.0, 0.1, 2),)
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
    @pytest.mark.parametrize("command", ["map", "baseline"])
    def test_out_names_a_file(self, command, under, market_csvs, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        step, argv = {
            "map": ("map_pair", ["map", *market_csvs]),
            "baseline": ("run_fgn_ensemble", ["baseline", "--replicas", "2", "--length", "64"]),
        }[command]

        def work(*args, **kwargs):
            raise AssertionError(f"{step} ran before --out was checked")

        monkeypatch.setattr(cli, step, work)
        result = run_cli(capsys, *argv, "--bins", "4", "--out", str(out))
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
            (["map-lag", "X", "--lag", "0"], "ValueError:lag must be >= 1"),
            (["map-lag", "X", "--lag", "-2"], "ValueError:lag must be >= 1"),
            (
                ["surrogate", "X", "Y", "--replicas", "0"],
                "TooFewSamples:need at least 2 replicas, got 0",
            ),
            (
                ["baseline", "--replicas", "-1"],
                "TooFewSamples:replicas_per_h must be at least 2, got -1",
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

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("map", "map-lag", "baseline", "surrogate", "compare"):
            assert command in out
