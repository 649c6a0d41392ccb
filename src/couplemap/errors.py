"""Exception hierarchy shared by all couplemap modules.

Every error the library raises subclasses :class:`CoupleMapError`, and the
class name doubles as the machine-parsable error kind printed by the CLI
(``Kind:detail``).
"""


class CoupleMapError(Exception):
    """Base class for all couplemap errors."""


class IoError(CoupleMapError):
    """File could not be read or written."""


class ParseError(CoupleMapError):
    """Malformed CSV content; the message carries the offending row."""


class DuplicateTimestamp(CoupleMapError):
    """Two rows share the same timestamp label."""


class EmptyIntersection(CoupleMapError):
    """Two series have no common timestamps."""


class NonPositiveValue(CoupleMapError):
    """Logarithm requested on a value <= 0."""


class ZeroVariance(CoupleMapError):
    """Standardization of a constant series."""


class WrongKind(CoupleMapError):
    """Series fed to a pipeline step that expects a different kind tag."""


class LengthTooShort(CoupleMapError):
    """Series shorter than the operation's minimum length."""


class LagTooLarge(CoupleMapError):
    """Lag is >= the series length."""


class TooManyBins(CoupleMapError):
    """Bin count above the samples to map, or beyond physical memory."""


class EmptyNetwork(CoupleMapError):
    """Network carries zero samples."""


class EmptyDistribution(CoupleMapError):
    """Joint probability with no positive cell."""


class NoEdges(CoupleMapError):
    """Graph operation that needs at least one edge."""


class DegenerateDegrees(CoupleMapError):
    """All edge-endpoint degrees identical: assortativity undefined."""


class InvalidPartition(CoupleMapError):
    """Partition does not cover every positive-degree node."""


class TooFewSamples(CoupleMapError):
    """Confidence interval over fewer than two samples."""


class MismatchedMeasureSets(CoupleMapError):
    """Systems under comparison do not share one measure-name set."""


class NetworkError(CoupleMapError):
    """HTTP fetch failed."""
