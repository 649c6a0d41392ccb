"""Command-line surface: map, map-lag, baseline, surrogate, compare.

Every subcommand prints the written file paths on stdout and reports any
failure, a usage error included, as a single `Kind:detail` line on stderr
with exit code 1. Each numeric flag is checked once, by the module that
owns it (--bins here, against the number of samples to map and physical
memory, before any B x B array exists).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ensemble import (
    DEFAULT_HURST_VALUES,
    DEFAULT_LAG,
    DEFAULT_MASTER_SEED,
    DEFAULT_REPLICAS,
    DEFAULT_SERIES_LENGTH,
    EnsembleConfig,
    radar_normalize,
    read_summary_csv,
    run_fgn_ensemble,
    run_surrogate_pair,
    write_json,
    write_summary_csv,
)
from .errors import CoupleMapError, IoError, ParseError, TooManyBins, opened
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
from .series import AlignedPair, align_pair, load_csv, prepare


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, main's one-line exit 1, not exit 2."""

    def error(self, message):
        raise ValueError(message)


def _hurst_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hurst list {text!r}") from None


def _check_bins(bins: int, samples: int) -> None:
    """Refuse a bin count below the measure battery's 3, one above the
    number of samples to map, or one whose B x B int64 weight matrix
    exceeds physical memory (where os.sysconf, a POSIX call, reports it)."""
    if bins < 3:
        raise ValueError("measure battery needs at least 3 bins")
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
        type=int,
        default=DEFAULT_BIN_COUNT,
        help="amplitude bins per series; at least 3, at most the number of "
        "samples mapped (default 50)",
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


def _out_dir(path: str) -> str:
    """Create the --out directory; called once a command's flags and inputs
    are checked, before anything is drawn, mapped or measured."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"{path}: {exc.strerror or exc}") from exc
    return path


def _write_network_files(net, out_dir: str) -> list:
    adjacency = os.path.join(out_dir, "adjacency.tsv")
    edges = os.path.join(out_dir, "edges.csv")
    joint = os.path.join(out_dir, "joint.tsv")
    measures = os.path.join(out_dir, "measures.json")
    write_adjacency_tsv(net, adjacency)
    write_edge_list_csv(net, edges)
    write_joint_tsv(joint_probability(net), joint)
    write_json(measure_all(net).to_dict(), measures)
    return [adjacency, edges, joint, measures]


def _load_aligned(x_csv: str, y_csv: str, column: str, mode: str) -> AlignedPair:
    """Inner-join the raw calendars first, then preprocess each side."""
    raw = align_pair(load_csv(x_csv, column), load_csv(y_csv, column))
    return AlignedPair(prepare(raw.x, mode=mode), prepare(raw.y, mode=mode))


def cmd_map(args) -> list:
    pair = _load_aligned(args.x_csv, args.y_csv, args.column, args.preprocess)
    _check_bins(args.bins, pair.common_length)
    out_dir = _out_dir(args.out)
    return _write_network_files(map_pair(pair, bin_count=args.bins), out_dir)


def cmd_map_lag(args) -> list:
    series = prepare(load_csv(args.csv, args.column), mode=args.preprocess)
    if args.lag < len(series):  # a longer lag is map_lagged's LagTooLarge
        _check_bins(args.bins, len(series) - args.lag)
    out_dir = _out_dir(args.out)
    net = map_lagged(series, lag=args.lag, bin_count=args.bins)
    return _write_network_files(net, out_dir)


def cmd_baseline(args) -> list:
    cfg = EnsembleConfig(
        hurst_values=args.hurst,
        replicas_per_h=args.replicas,
        series_length=args.length,
        bin_count=args.bins,
        lag=args.lag,
        master_seed=args.seed,
    )
    _check_bins(args.bins, args.length)
    path = os.path.join(_out_dir(args.out), "baseline_summary.csv")
    write_summary_csv(run_fgn_ensemble(cfg), path)
    return [path]


def cmd_surrogate(args) -> list:
    pair = _load_aligned(args.x_csv, args.y_csv, args.column, args.preprocess)
    _check_bins(args.bins, pair.common_length)
    path = os.path.join(_out_dir(args.out), "surrogate_summary.csv")
    summary = run_surrogate_pair(
        pair.x,
        pair.y,
        replicas=args.replicas,
        bin_count=args.bins,
        master_seed=args.seed,
    )
    write_summary_csv(summary, path)
    return [path]


def _load_report_vector(path: str) -> dict:
    try:
        with opened(path) as handle:
            data = json.load(handle)
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
        if name in systems:
            raise ValueError(f"duplicate system name {name!r} in {item!r}")
        systems[name] = _load_report_vector(path)
    comparison = radar_normalize(systems)
    path = os.path.join(_out_dir(args.out), "comparison.json")
    write_json(comparison, path)
    return [path]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="couplemap",
        description="Map coupled time-series onto directed networks and "
        "benchmark their measures against noise baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
        type=int,
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
        default=DEFAULT_HURST_VALUES,
        help="comma list of Hurst exponents, each in (0, 1) "
        f"(default {','.join(map(str, DEFAULT_HURST_VALUES))})",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=DEFAULT_REPLICAS,
        help="noise draws per Hurst value; at least 2 (default 32)",
    )
    p.add_argument(
        "--length",
        type=int,
        default=DEFAULT_SERIES_LENGTH,
        help="points per draw; at least 64 (default 2000)",
    )
    p.add_argument(
        "--lag",
        type=int,
        default=DEFAULT_LAG,
        help="self-coupling lag; at least 1 (default 1)",
    )
    _add_bins(p)
    _add_seed(p)
    _add_out_dir(p)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("surrogate", help="phase-randomized ensemble of a pair")
    p.add_argument("x_csv", help="CSV of the source series")
    p.add_argument("y_csv", help="CSV of the target series")
    p.add_argument(
        "--replicas",
        type=int,
        default=DEFAULT_REPLICAS,
        help="surrogate draws; at least 2 (default 32)",
    )
    _add_bins(p)
    _add_column(p)
    _add_preprocess(p)
    _add_seed(p)
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
    try:
        args = parser.parse_args(argv)
        written = args.fn(args)
    except (CoupleMapError, ValueError, TypeError, KeyError, MemoryError) as exc:
        # NumPy raises a private MemoryError subclass; print the public name
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"{kind}:{exc}".replace("\n", " "), file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
