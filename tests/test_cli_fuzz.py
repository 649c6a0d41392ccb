"""Generated command lines: every invocation ends in files or one error line.

Hypothesis drives `main` for map, map-lag, surrogate and baseline with small
generated CSVs (integer or dated stamps, repeated stamps, blank lines, zero,
negative, non-finite and near-limit values) and generated flag values, and
`compare` with mutated summary CSVs and report JSONs. Each example must end
one of two ways: exit 0 with nothing on stderr and every printed path
present, or exit 1 with nothing on stdout and exactly one `Kind:detail` line
on stderr and no `--out` directory left behind. A warning counts as stderr
output. A file error (`ParseError`, `DuplicateTimestamp` or `IoError`) must
name, as `Kind:<path>:`, the first input that its reader refuses when
reading it alone.
"""

import contextlib
import csv
import io
import json
import os
import re
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplemap import cli
from couplemap.cli import main
from couplemap.ensemble import EnsembleSummary, SummaryRow, read_summary_csv, write_summary_csv
from couplemap.errors import CoupleMapError
from couplemap.metrics import MEASURE_FIELDS, MeasureReport
from couplemap.series import load_csv

# the options each command takes, besides its input CSVs
OPTIONS = {
    "map": ("--bins", "--preprocess"),
    "map-lag": ("--lag", "--bins", "--preprocess"),
    "surrogate": ("--replicas", "--bins", "--preprocess", "--seed"),
    "baseline": ("--hurst", "--replicas", "--length", "--lag", "--bins", "--seed"),
}
INPUTS = {"map": 2, "map-lag": 1, "surrogate": 2, "baseline": 0}

prices = st.floats(min_value=1.0, max_value=1000.0).map(repr)
extreme = st.one_of(
    st.sampled_from(
        ["0", "-1", "1e308", "-1e308", "1.7976931348623157e308", "5e-324", "-2.8e-43", "3.5e16"]
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
broken = st.one_of(extreme, st.sampled_from(["nan", "inf", "-inf", "abc", ""]))


@st.composite
def csv_texts(draw):
    """A CSV of 0-12 rows: stamps t or date, maybe repeated, blank lines between."""
    column = draw(st.sampled_from(["t", "date"]))
    values = draw(st.sampled_from([prices, extreme, broken]))
    rows = st.tuples(st.integers(1, 14), values, st.booleans())
    size = draw(st.integers(0, 12))  # st.lists alone favours short lists
    unique = (lambda row: row[0]) if draw(st.booleans()) else None
    lines = [f"{column},value"]
    for day, value, blank in draw(
        st.lists(rows, min_size=size, max_size=size, unique_by=unique)
    ):
        lines.append(f"{day if column == 't' else f'2020-01-{day:02d}'},{value}")
        if blank:
            lines.append("")
    return "\n".join(lines) + "\n"


options = st.fixed_dictionaries(
    {
        "--hurst": st.lists(
            st.sampled_from(
                ["0.5", "0.25", "0.9", "0.1", "0.10000001", "0", "1", "1.5", "-0.2", "nan",
                 "inf", "abc", ""]
            ),
            min_size=1,
            max_size=3,
        ).map(",".join),
        "--replicas": st.integers(-1, 4).map(str),
        "--length": st.integers(-1, 100).map(str),
        "--bins": st.integers(-3, 14).map(str),
    },
    optional={
        "--lag": st.one_of(st.integers(-1, 14), st.integers(60, 101)).map(str),
        "--seed": st.sampled_from(["0", "7", str(2**64 - 1), "-1", str(2**64)]),
        "--preprocess": st.sampled_from(["returns", "raw"]),
    },
)

PRICES = "t,value\n" + "".join(f"{t},{100.0 + (t * 7) % 5}\n" for t in range(12))
# raw amplitudes whose range overflows the float range when binned
HUGE = "t,value\n0,1e308\n1,-1e308\n2,0\n3,5e307\n4,-5e307\n5,1e307\n6,2\n7,3\n"
# raw amplitudes whose surrogates overflow in the inverse transform
DATED = "date,value\n" + "".join(
    f"2020-01-0{d},{v}\n"
    for d, v in enumerate(["-2.8e-43", "116", "166.1", "-3.5e16", "-1e308", "100", "100.5", "7"], 1)
)
TWO_FAULTS = "date,value\n2000-01-03,1.0\n2000-01-04,2.0\n2000-01-03,3.0\n2000-01-05,abc\n"
SMALL_BASELINE = {"--hurst": "0.5", "--replicas": "2", "--length": "64", "--bins": "3"}


FILE_KINDS = ("ParseError", "DuplicateTimestamp", "IoError")


def read_series(path):
    return load_csv(path, "value")


def first_refused(reads):
    """The path of the first (reader, path) whose reader refuses it alone."""
    for reader, path in reads:
        try:
            reader(path)
        except CoupleMapError:
            return path
    return None


def run_main(argv, reads):
    """main(argv) ended one of the two ways; return its exit code.

    reads lists the (reader, path) of each input file in the order the
    command reads them; a file error must name the first one refused.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()

    assert [str(w.message) for w in caught] == [], argv
    if code == 0:
        assert err == "", argv
        paths = out.splitlines()
        assert paths and all(os.path.isfile(p) for p in paths), argv
    else:
        assert code == 1, argv
        assert out == "", argv
        assert re.fullmatch(r"[A-Z]\w*:[^\n]*\n", err), (argv, err)
        assert not os.path.exists(argv[argv.index("--out") + 1]), (argv, err)
        kind, _, detail = err.partition(":")
        if kind in FILE_KINDS:
            refused = first_refused(reads)
            assert refused is not None and detail.startswith(f"{refused}:"), (argv, err)
    return code


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(sorted(OPTIONS)),
    x=csv_texts(),
    y=csv_texts(),
    same=st.booleans(),
    options=options,
)
@example(
    command="map-lag", x=HUGE, y="", same=False, options={"--preprocess": "raw", "--bins": "3"}
)
@example(
    command="surrogate",
    x=DATED,
    y="",
    same=True,
    options={"--preprocess": "raw", "--bins": "3", "--replicas": "3"},
)
@example(command="map", x=PRICES, y=PRICES, same=False, options={"--bins": "3"})
# content errors used to leave the file out: "ParseError:row 3: bad value 'abc'"
@example(command="map", x=PRICES, y="t,value\n0,1.0\n1,abc\n", same=False, options={})
@example(command="surrogate", x=PRICES, y="t,value\n0,1\n1,2\n0,3\n", same=False, options={})
# a repeated stamp on row 4 before a bad value on row 5 (test_series pins the row)
@example(command="map", x=PRICES, y=TWO_FAULTS, same=False, options={})
@example(command="map-lag", x="t,value\n0,1.0\n", y="", same=False, options={})
@example(command="map-lag", x=PRICES, y="", same=False, options={"--bins": "3"})
@example(command="surrogate", x=PRICES, y="", same=True, options={"--bins": "3", "--replicas": "2"})
@example(command="baseline", x="", y="", same=False, options=SMALL_BASELINE)
def test_one_of_two_endings(command, x, y, same, options):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = []
        for name, text in zip(("x.csv", "y.csv"), (x, x if same else y)):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            inputs.append(path)
        argv = [command, *inputs[: INPUTS[command]]]
        for flag in OPTIONS[command]:
            if flag in options:
                argv += [flag, options[flag]]
        argv += ["--out", os.path.join(tmp, "out")]

        run_main(argv, [(read_series, path) for path in inputs[: INPUTS[command]]])


SUMMARY_TOKENS = ["nan", "inf", "-1e400", "-0.5", "-1", "0", "1", "2", "3", "abc", ""]
# each input is left whole about half the time, so exit 0 is common too
summary_edits = st.just([]) | st.lists(
    st.one_of(
        st.tuples(
            st.just("set"), st.integers(0, 99), st.integers(0, 5), st.sampled_from(SUMMARY_TOKENS)
        ),
        st.tuples(st.just("repeat"), st.integers(0, 99)),
        st.tuples(st.just("drop"), st.integers(0, 99)),
    ),
    max_size=3,
)
report_texts = st.one_of(
    st.just([]),
    st.lists(
        st.tuples(
            st.sampled_from(MEASURE_FIELDS + ("bin_count", "flags")),
            st.sampled_from([None, "null", "NaN", '"abc"', "1e400", "true", "3", "[]"]),
        ),
        max_size=2,
    ),
    st.sampled_from([b"", b"{", b"[1, 2]", b"\xff{}"]),
)


def edited_summary(path, systems, edits):
    """Write a valid summary of systems to path, then apply line edits."""
    rows = {name: SummaryRow(name, 1.0 + i, 0.1, 4, 1) for i, name in enumerate(MEASURE_FIELDS)}
    write_summary_csv(EnsembleSummary(dict.fromkeys(systems, rows)), path)
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    for op, index, *rest in edits:
        index %= len(lines)
        if op == "set":
            column, token = rest
            lines[index][column % len(lines[index])] = token
        elif op == "repeat":
            lines.append(list(lines[index]))
        else:
            del lines[index]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(lines)


def edited_report(path, edits):
    """Write a valid measure report to path with edited values, or raw bytes."""
    if isinstance(edits, bytes):
        with open(path, "wb") as fh:
            fh.write(edits)
        return
    report = MeasureReport(**dict.fromkeys(MEASURE_FIELDS, 2.0), bin_count=3, sample_count=9)
    data = report.to_dict()
    for key, token in edits:
        if token is None:
            data.pop(key, None)
        else:
            data[key] = "@" + key
    text = json.dumps(data)
    for key, token in edits:
        text = text.replace(f'"@{key}"', token or "")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@settings(max_examples=100, deadline=None)
@given(baseline=summary_edits, surrogate=summary_edits, report=report_texts)
# a second row for one (system, measure) used to win silently, with exit 0
@example(baseline=[("repeat", 1), ("set", -1, 2, "99.0")], surrogate=[], report=[])
@example(baseline=[], surrogate=[], report=b"{")
@example(baseline=[], surrogate=[], report=[])
def test_compare_inputs(baseline, surrogate, report):
    """compare ends one of the two ways, names a refused input, and on exit 0
    carries every summary row's mean, each (system, measure) once."""
    with tempfile.TemporaryDirectory() as tmp:
        base, sur, rep, out = (
            os.path.join(tmp, name)
            for name in ("base.csv", "sur.csv", "m.json", "out")
        )
        edited_summary(base, ("fgn_h0.5", "fgn_h0.9"), baseline)
        edited_summary(sur, ("surrogate",), surrogate)
        edited_report(rep, report)
        argv = ["compare", f"m={rep}", "--baseline", base, "--surrogate", sur, "--out", out]
        reads = [(read_summary_csv, base), (read_summary_csv, sur), (cli._load_report_vector, rep)]
        if run_main(argv, reads) == 0:
            with open(os.path.join(out, "comparison.json"), encoding="utf-8") as fh:
                systems = json.load(fh)["systems"]
            for path in (base, sur):
                with open(path, encoding="utf-8", newline="") as fh:
                    records = list(csv.reader(fh))[1:]
                for system in {record[0] for record in records}:
                    rows = [record for record in records if record[0] == system]
                    assert len(rows) == len(systems[system]), (path, system)
                    assert {r[1]: float(r[2]) for r in rows} == systems[system], (path, system)
