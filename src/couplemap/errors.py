"""Exception hierarchy shared by all couplemap modules.

Every :class:`CoupleMapError` kind is one that a command can print; the class
name doubles as the machine-parsable error kind printed by the CLI
(``Kind:detail``). Every other refusal, such as a bad argument to a library
call that no command makes, is a ``ValueError``. Every file is opened through
:func:`opened`, and :func:`naming`, which it uses, is the one place a path
enters a message, so a file error names its file, and its row where there is
one, in that one line.
"""

import contextlib
import csv
import json


class CoupleMapError(Exception):
    """Base class for all couplemap errors."""


class IoError(CoupleMapError):
    """File could not be read or written."""


class ParseError(CoupleMapError):
    """Bad CSV or JSON content: ParseError(detail[, row]); naming adds the path."""


class DuplicateTimestamp(CoupleMapError):
    """Two rows share the same timestamp label: DuplicateTimestamp(stamp, row)."""


class EmptyIntersection(CoupleMapError):
    """Two series have fewer than two common timestamps."""


class NonPositiveValue(CoupleMapError):
    """Logarithm requested on a value <= 0."""


class ZeroVariance(CoupleMapError):
    """Standardization of a constant series."""


class LengthTooShort(CoupleMapError):
    """Series shorter than the operation's minimum length."""


class LagTooLarge(CoupleMapError):
    """Lag is >= the series length."""


class TooManyBins(CoupleMapError):
    """Bin count above the samples to map, or beyond physical memory."""


class TooFewSamples(CoupleMapError):
    """Fewer than two samples for a confidence interval, or fewer than two replicas."""


@contextlib.contextmanager
def naming(path):
    """Re-raise the block's file and content errors as one that names path:
    OSError as IoError("<path>: <strerror>"), a csv, decoding or JSON error as
    ParseError("<path>: <detail>"), and ParseError(detail[, row]) or
    DuplicateTimestamp(stamp, row) as the same kind, "<path>[:<row>]: <detail>"."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"{path}: {exc.strerror or exc}") from exc
    except (csv.Error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except (ParseError, DuplicateTimestamp) as exc:
        where = ":".join(map(str, (path, *exc.args[1:])))
        raise type(exc)(f"{where}: {exc.args[0]}") from exc


@contextlib.contextmanager
def opened(path, mode: str = "r", encoding: str = "utf-8"):
    """open(path, mode, encoding=encoding, newline="") inside naming(path)."""
    with naming(path), open(path, mode, encoding=encoding, newline="") as handle:
        yield handle
