"""Command-line surface: fetch, map, map-lag, baseline, surrogate, compare.

Every subcommand validates numeric flags against the owning module's
preconditions before any work starts (--bins against the number of samples
to map and physical memory, before any B x B array exists), prints the
written file paths on stdout, and reports failures as a single
`Kind:detail` line on stderr with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import urllib.error
import urllib.request

from .ensemble import (
    DEFAULT_LAG,
    DEFAULT_LEVEL,
    DEFAULT_MASTER_SEED,
    DEFAULT_REPLICAS,
    DEFAULT_SERIES_LENGTH,
    EnsembleConfig,
    radar_normalize,
    read_summary_csv,
    run_fgn_ensemble,
    run_surrogate_pair,
    write_comparison_json,
    write_summary_csv,
)
from .errors import CoupleMapError, IoError, NetworkError, ParseError, TooManyBins
from .metrics import MeasureReport, measure_all
from .netmap import (
    DEFAULT_BIN_COUNT,
    joint_probability,
    map_lagged,
    map_pair,
    write_adjacency_tsv,
    write_edge_list_csv,
    write_joint_tsv,
)
from .series import AlignedPair, align_pair, load_csv, prepare, write_csv

_HURST_DEFAULT = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _hurst_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hurst list {text!r}") from None


def _check_bins(bins: int, samples: int) -> None:
    """Refuse a bin count above the number of samples to map, or one whose
    B x B int64 weight matrix exceeds physical memory (where os.sysconf,
    a POSIX call, reports it)."""
    if bins > samples:
        raise TooManyBins(f"--bins {bins} exceeds the {samples} samples to map")
    if not hasattr(os, "sysconf"):
        return
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * bins * bins > memory:
        raise TooManyBins(
            f"--bins {bins} needs {8 * bins * bins} bytes per weight matrix, "
            f"more than the {memory} bytes of physical memory"
        )


def _add_bins(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--bins",
        type=_positive_int,
        default=DEFAULT_BIN_COUNT,
        help="amplitude bins per series; at least 2 to map, 3 to measure, "
        "at most the number of samples mapped (default 50)",
    )


def _add_column(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--column",
        default="value",
        help="value column name in the input CSV header (default 'value')",
    )


def _add_preprocess(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--preprocess",
        choices=("returns", "raw"),
        default="returns",
        help="returns = standardized log-returns of a raw positive series; "
        "raw = use values as loaded (default returns)",
    )


def _add_out_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory (created if missing)")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_MASTER_SEED,
        help="master seed, 64-bit unsigned; identical seeds give byte-identical files",
    )


def _add_level(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--level",
        type=float,
        default=DEFAULT_LEVEL,
        help="two-sided confidence level in (0, 1) (default 0.90)",
    )


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_network_files(net, out_dir: str) -> list:
    adjacency = os.path.join(out_dir, "adjacency.tsv")
    edges = os.path.join(out_dir, "edges.csv")
    joint = os.path.join(out_dir, "joint.tsv")
    measures = os.path.join(out_dir, "measures.json")
    write_adjacency_tsv(net, adjacency)
    write_edge_list_csv(net, edges)
    write_joint_tsv(joint_probability(net), joint)
    _write_report_json(measure_all(net), measures)
    return [adjacency, edges, joint, measures]


def _write_report_json(report: MeasureReport, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def cmd_fetch(args) -> list:
    try:
        with urllib.request.urlopen(args.url, timeout=60) as response:
            payload = response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise NetworkError(f"{args.url}: {exc}") from exc
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.url}: response is not UTF-8 text") from exc
    with tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", suffix=".csv", delete=False
    ) as handle:
        handle.write(text)
        tmp_path = handle.name
    try:
        series = load_csv(tmp_path, args.column)
    finally:
        os.unlink(tmp_path)
    write_csv(series, args.out, value_column=args.column)
    return [args.out]


def _load_aligned(x_csv: str, y_csv: str, column: str, mode: str) -> AlignedPair:
    """Inner-join the raw calendars first, then preprocess each side."""
    raw = align_pair(load_csv(x_csv, column), load_csv(y_csv, column))
    return AlignedPair(prepare(raw.x, mode=mode), prepare(raw.y, mode=mode))


def cmd_map(args) -> list:
    pair = _load_aligned(args.x_csv, args.y_csv, args.column, args.preprocess)
    _check_bins(args.bins, pair.common_length)
    net = map_pair(pair, bin_count=args.bins)
    return _write_network_files(net, _out_dir(args))


def cmd_map_lag(args) -> list:
    series = prepare(load_csv(args.csv, args.column), mode=args.preprocess)
    if args.lag < len(series):  # a longer lag is map_lagged's LagTooLarge
        _check_bins(args.bins, len(series) - args.lag)
    net = map_lagged(series, lag=args.lag, bin_count=args.bins)
    return _write_network_files(net, _out_dir(args))


def cmd_baseline(args) -> list:
    cfg = EnsembleConfig(
        hurst_values=args.hurst,
        replicas_per_h=args.replicas,
        series_length=args.length,
        bin_count=args.bins,
        lag=args.lag,
        master_seed=args.seed,
    )
    if not 0.0 < args.level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {args.level}")
    _check_bins(args.bins, args.length)
    summary = run_fgn_ensemble(cfg, level=args.level)
    path = os.path.join(_out_dir(args), "baseline_summary.csv")
    write_summary_csv(summary, path)
    return [path]


def cmd_surrogate(args) -> list:
    pair = _load_aligned(args.x_csv, args.y_csv, args.column, args.preprocess)
    _check_bins(args.bins, pair.common_length)
    summary = run_surrogate_pair(
        pair.x,
        pair.y,
        replicas=args.replicas,
        bin_count=args.bins,
        master_seed=args.seed,
        level=args.level,
    )
    out_dir = _out_dir(args)
    path = os.path.join(out_dir, "surrogate_summary.csv")
    write_summary_csv(summary, path)
    return [path]


def _load_report_vector(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return MeasureReport.from_dict(data).as_vector()
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: not a measure report ({exc})") from exc


def cmd_compare(args) -> list:
    summary = read_summary_csv(args.baseline)
    if args.surrogate is not None:
        summary = summary.merged(read_summary_csv(args.surrogate))
    systems = {name: summary.vector(name) for name in summary.system_names()}
    for item in args.reports:
        name, _, path = item.partition("=")
        if not name or not path:
            raise ValueError(f"expected NAME=PATH, got {item!r}")
        systems[name] = _load_report_vector(path)
    report = radar_normalize(systems)
    out_dir = _out_dir(args)
    path = os.path.join(out_dir, "comparison.json")
    write_comparison_json(report, path)
    return [path]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="couplemap",
        description="Map coupled time-series onto directed networks and "
        "benchmark their measures against noise baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download a CSV and normalize it")
    p.add_argument("url", help="HTTP(S) endpoint serving a series CSV")
    p.add_argument("--out", required=True, help="destination CSV path")
    _add_column(p)
    p.set_defaults(fn=cmd_fetch)

    p = sub.add_parser("map", help="map two series onto a coupling network")
    p.add_argument("x_csv", help="CSV of the source series (edge sources)")
    p.add_argument("y_csv", help="CSV of the target series (edge targets)")
    _add_bins(p)
    _add_column(p)
    _add_preprocess(p)
    _add_out_dir(p)
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("map-lag", help="map one series against its own lag")
    p.add_argument("csv", help="CSV of the series")
    p.add_argument(
        "--lag",
        type=_positive_int,
        default=DEFAULT_LAG,
        help="lag in steps; at least 1 and less than the series length (default 1)",
    )
    _add_bins(p)
    _add_column(p)
    _add_preprocess(p)
    _add_out_dir(p)
    p.set_defaults(fn=cmd_map_lag)

    p = sub.add_parser("baseline", help="run the fractional-noise ensemble")
    p.add_argument(
        "--hurst",
        type=_hurst_list,
        default=_hurst_list(_HURST_DEFAULT),
        help="comma list of Hurst exponents, each in (0, 1) "
        f"(default {_HURST_DEFAULT})",
    )
    p.add_argument(
        "--replicas",
        type=_positive_int,
        default=DEFAULT_REPLICAS,
        help="noise draws per Hurst value; at least 2 (default 32)",
    )
    p.add_argument(
        "--length",
        type=_positive_int,
        default=DEFAULT_SERIES_LENGTH,
        help="points per draw; at least 64 (default 2000)",
    )
    p.add_argument(
        "--lag",
        type=_positive_int,
        default=DEFAULT_LAG,
        help="self-coupling lag; at least 1 (default 1)",
    )
    _add_bins(p)
    _add_seed(p)
    _add_level(p)
    _add_out_dir(p)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("surrogate", help="phase-randomized ensemble of a pair")
    p.add_argument("x_csv", help="CSV of the source series")
    p.add_argument("y_csv", help="CSV of the target series")
    p.add_argument(
        "--replicas",
        type=_positive_int,
        default=DEFAULT_REPLICAS,
        help="surrogate draws; at least 2 (default 32)",
    )
    _add_bins(p)
    _add_column(p)
    _add_preprocess(p)
    _add_seed(p)
    _add_level(p)
    _add_out_dir(p)
    p.set_defaults(fn=cmd_surrogate)

    p = sub.add_parser("compare", help="radar-normalize systems against baselines")
    p.add_argument(
        "reports",
        nargs="*",
        metavar="NAME=PATH",
        help="measure-report JSON files to include as named systems",
    )
    p.add_argument("--baseline", required=True, help="baseline summary CSV")
    p.add_argument("--surrogate", default=None, help="surrogate summary CSV")
    _add_out_dir(p)
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        written = args.fn(args)
    except CoupleMapError as exc:
        detail = str(exc).replace("\n", " ")
        print(f"{type(exc).__name__}:{detail}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError) as exc:
        detail = str(exc).replace("\n", " ")
        print(f"{type(exc).__name__}:{detail}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
