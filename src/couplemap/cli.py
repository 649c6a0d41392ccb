"""Command-line surface: map, map-lag, baseline, surrogate, compare.

Every subcommand prints the written file paths on stdout and reports any
failure, a usage error included, as a single `Kind:detail` line on stderr
with exit code 1; Kind is a CoupleMapError kind (every one is printable, see
errors.py), or ValueError, TypeError, KeyError or MemoryError. Each numeric
flag is checked once, by the module that owns it: --bins by netmap.check_bins,
which _load_pair (map, surrogate) and cmd_map_lag call here and baseline's
EnsembleConfig calls when built, before any B x B array exists. A command
computes its whole result first and then writes it through _write, which
alone creates --out, so a refused command leaves no --out behind.
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
from .errors import CoupleMapError, ParseError, naming, opened
from .metrics import MeasureReport, measure_all
from .netmap import (
    DEFAULT_BIN_COUNT,
    check_bins,
    joint_probability,
    lagged_samples,
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


def _write(out: str, files: dict) -> list:
    """Create the --out directory and write each file name: (writer, data)
    into it in order; return the paths. Each command calls it last, once its
    whole result is computed, so a refused command leaves no --out behind."""
    with naming(out):
        os.makedirs(out, exist_ok=True)
    paths = [os.path.join(out, name) for name in files]
    for path, (writer, data) in zip(paths, files.values()):
        writer(data, path)
    return paths


def _write_network(net, out: str) -> list:
    return _write(
        out,
        {
            "adjacency.tsv": (write_adjacency_tsv, net),
            "edges.csv": (write_edge_list_csv, net),
            "joint.tsv": (write_joint_tsv, joint_probability(net)),
            "measures.json": (write_json, measure_all(net).to_dict()),
        },
    )


def _load_pair(args) -> AlignedPair:
    """Inner-join the raw calendars first, then preprocess each side, and
    check --bins against the common length before any mapping or drawing."""
    raw = align_pair(load_csv(args.x_csv, args.column), load_csv(args.y_csv, args.column))
    pair = AlignedPair(prepare(raw.x, mode=args.preprocess), prepare(raw.y, mode=args.preprocess))
    check_bins(args.bins, pair.common_length)
    return pair


def cmd_map(args) -> list:
    return _write_network(map_pair(_load_pair(args), bin_count=args.bins), args.out)


def cmd_map_lag(args) -> list:
    series = prepare(load_csv(args.csv, args.column), mode=args.preprocess)
    check_bins(args.bins, lagged_samples(len(series), args.lag))
    return _write_network(map_lagged(series, lag=args.lag, bin_count=args.bins), args.out)


def cmd_baseline(args) -> list:
    cfg = EnsembleConfig(
        hurst_values=args.hurst,
        replicas_per_h=args.replicas,
        series_length=args.length,
        bin_count=args.bins,
        lag=args.lag,
        master_seed=args.seed,
    )
    return _write(args.out, {"baseline_summary.csv": (write_summary_csv, run_fgn_ensemble(cfg))})


def cmd_surrogate(args) -> list:
    pair = _load_pair(args)
    summary = run_surrogate_pair(
        pair.x,
        pair.y,
        replicas=args.replicas,
        bin_count=args.bins,
        master_seed=args.seed,
    )
    return _write(args.out, {"surrogate_summary.csv": (write_summary_csv, summary)})


def _load_report_vector(path: str) -> dict:
    with opened(path) as handle:
        data = json.load(handle)
        try:
            vector = MeasureReport.from_dict(data).as_vector()
        except (KeyError, TypeError) as exc:
            raise ParseError(f"not a measure report ({exc})") from exc
        for name, value in vector.items():
            # a bool, a string, null, NaN, an infinity or an int past the float range
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise ParseError(f"{name} is {value!r}, not a finite number")
    return vector


def _compared_systems(args):
    """(name, measure name -> value) for each summary system of --baseline,
    then of --surrogate, then for each NAME=PATH report, in that order."""
    for path in (args.baseline, args.surrogate):
        if path is not None:
            for name, rows in read_summary_csv(path).systems.items():
                yield name, {measure: row.mean for measure, row in rows.items()}
    for item in args.reports:
        name, _, path = item.partition("=")
        if not name or not path:
            raise ValueError(f"expected NAME=PATH, got {item!r}")
        yield name, _load_report_vector(path)


def cmd_compare(args) -> list:
    systems = {}
    for name, vector in _compared_systems(args):
        if name in systems:
            raise ValueError(f"duplicate system name {name!r}")
        systems[name] = vector
    return _write(args.out, {"comparison.json": (write_json, radar_normalize(systems))})


def build_parser() -> argparse.ArgumentParser:
    bins = argparse.ArgumentParser(add_help=False)
    bins.add_argument(
        "--bins",
        type=int,
        default=DEFAULT_BIN_COUNT,
        help="amplitude bins per series; at least 3, at most the number of "
        "samples mapped (default %(default)s)",
    )
    column = argparse.ArgumentParser(add_help=False)
    column.add_argument(
        "--column",
        default="value",
        help="value column name in the input CSV header (default %(default)r)",
    )
    column.add_argument(
        "--preprocess",
        choices=("returns", "raw"),
        default="returns",
        help="returns = standardized log-returns of a raw positive series; "
        "raw = use values as loaded (default %(default)s)",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_MASTER_SEED,
        help="master seed, 64-bit unsigned; identical seeds give byte-identical files",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", help="output directory (created if missing)")

    parser = _Parser(
        prog="couplemap",
        description="Map coupled time-series onto directed networks and "
        "benchmark their measures against noise baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "map", parents=[bins, column, out], help="map two series onto a coupling network"
    )
    p.add_argument("x_csv", help="CSV of the source series (edge sources)")
    p.add_argument("y_csv", help="CSV of the target series (edge targets)")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser(
        "map-lag", parents=[bins, column, out], help="map one series against its own lag"
    )
    p.add_argument("csv", help="CSV of the series")
    p.add_argument(
        "--lag",
        type=int,
        default=DEFAULT_LAG,
        help="lag in steps; at least 1 and less than the series length (default %(default)s)",
    )
    p.set_defaults(fn=cmd_map_lag)

    p = sub.add_parser(
        "baseline", parents=[bins, seed, out], help="run the fractional-noise ensemble"
    )
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
        help="noise draws per Hurst value; at least 2 (default %(default)s)",
    )
    p.add_argument(
        "--length",
        type=int,
        default=DEFAULT_SERIES_LENGTH,
        help="points per draw; at least 64 (default %(default)s)",
    )
    p.add_argument(
        "--lag",
        type=int,
        default=DEFAULT_LAG,
        help="self-coupling lag; at least 1 (default %(default)s)",
    )
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser(
        "surrogate",
        parents=[bins, column, seed, out],
        help="phase-randomized ensemble of a pair",
    )
    p.add_argument("x_csv", help="CSV of the source series")
    p.add_argument("y_csv", help="CSV of the target series")
    p.add_argument(
        "--replicas",
        type=int,
        default=DEFAULT_REPLICAS,
        help="surrogate draws; at least 2 (default %(default)s)",
    )
    p.set_defaults(fn=cmd_surrogate)

    p = sub.add_parser("compare", parents=[out], help="radar-normalize systems against baselines")
    p.add_argument(
        "reports",
        nargs="*",
        metavar="NAME=PATH",
        help="measure-report JSON files to include as named systems",
    )
    p.add_argument("--baseline", required=True, help="baseline summary CSV")
    p.add_argument("--surrogate", default=None, help="surrogate summary CSV")
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
