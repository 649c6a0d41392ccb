"""End-to-end command-line contracts: files, exit codes, error lines."""

import http.server
import json
import os
import threading

import numpy as np
import pytest

from conftest import write_series_csv
from couplemap.cli import main
from couplemap.ensemble import read_summary_csv
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
        assert stderr == f"IoError:{missing}\n"

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


class _Handler(http.server.BaseHTTPRequestHandler):
    routes = {}

    def do_GET(self):
        if self.path in self.routes:
            status, ctype, body = self.routes[self.path]
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def http_url():
    _Handler.routes = {
        "/good.csv": (200, "text/csv", b"t,value\n0,1.5\n1,2.5\n2,2.0\n"),
        "/page.html": (200, "text/html", b"<html><body>not a csv</body></html>"),
    }
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestFetch:
    def test_valid_csv_normalized(self, http_url, tmp_path, capsys):
        dest = tmp_path / "fetched.csv"
        code, stdout, stderr = run_cli(
            capsys, "fetch", f"{http_url}/good.csv", "--out", str(dest)
        )
        assert code == 0, stderr
        assert stdout.strip() == str(dest)
        assert dest.read_bytes() == b"t,value\r\n0,1.5\r\n1,2.5\r\n2,2.0\r\n"

    def test_404_is_network_error(self, http_url, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "fetch", f"{http_url}/absent.csv", "--out", str(tmp_path / "o.csv")
        )
        assert code == 1
        assert stderr.startswith("NetworkError:")

    def test_html_is_parse_error(self, http_url, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "fetch", f"{http_url}/page.html", "--out", str(tmp_path / "o.csv")
        )
        assert code == 1
        assert stderr.startswith("ParseError:")

    def test_unreachable_host(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys,
            "fetch", "http://127.0.0.1:9/nothing.csv", "--out", str(tmp_path / "o.csv"),
        )
        assert code == 1
        assert stderr.startswith("NetworkError:")


class TestHelp:
    @pytest.mark.parametrize(
        ("command", "expected"),
        [
            ("fetch", "destination CSV path"),
            ("map", "at least 2 to map"),
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

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("fetch", "map", "map-lag", "baseline", "surrogate", "compare"):
            assert command in out
