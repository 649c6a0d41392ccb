"""Generated command lines: every invocation ends in files or one error line.

Hypothesis drives `main` for map, map-lag, surrogate and baseline with small
generated CSVs (integer or dated stamps, repeated stamps, blank lines, zero,
negative, non-finite and near-limit values) and generated flag values. Each
example must end one of two ways: exit 0 with nothing on stderr and every
printed path present, or exit 1 with nothing on stdout and exactly one
`Kind:detail` line on stderr. A warning counts as stderr output.
"""

import contextlib
import io
import os
import re
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplemap.cli import main

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
SMALL_BASELINE = {"--hurst": "0.5", "--replicas": "2", "--length": "64", "--bins": "3"}


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
