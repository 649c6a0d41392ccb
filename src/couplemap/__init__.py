"""Coupling networks from time-series pairs, with noise baselines.

Pipeline: load or synthesize series, bin amplitudes, count simultaneous
bin visits as weighted directed edges, then compare the resulting network
measures against fractional-Gaussian-noise and phase-randomized baselines.

The names below are the ones the pipeline's users call, plus the error
kinds; everything else (the measure families, seeds, intervals, fGn
internals) is imported from its submodule. Every error kind is one that a
command can print; every other refusal is a ValueError.
"""

from .ensemble import (
    EnsembleConfig,
    radar_normalize,
    read_summary_csv,
    run_fgn_ensemble,
    run_surrogate_pair,
    write_json,
    write_summary_csv,
)
from .errors import (
    CoupleMapError,
    DuplicateTimestamp,
    EmptyIntersection,
    IoError,
    LagTooLarge,
    LengthTooShort,
    NonPositiveValue,
    ParseError,
    TooFewSamples,
    TooManyBins,
    ZeroVariance,
)
from .metrics import MEASURE_FIELDS, MeasureReport, measure_all
from .netmap import (
    DEFAULT_BIN_COUNT,
    joint_probability,
    map_lagged,
    map_pair,
    write_adjacency_tsv,
    write_edge_list_csv,
    write_joint_tsv,
)
from .series import (
    AlignedPair,
    align_pair,
    index_series,
    load_csv,
    prepare,
    standardize,
    write_csv,
)
from .synth import surrogate

__version__ = "0.1.0"

__all__ = [
    "AlignedPair",
    "CoupleMapError",
    "DEFAULT_BIN_COUNT",
    "DuplicateTimestamp",
    "EmptyIntersection",
    "EnsembleConfig",
    "IoError",
    "LagTooLarge",
    "LengthTooShort",
    "MEASURE_FIELDS",
    "MeasureReport",
    "NonPositiveValue",
    "ParseError",
    "TooFewSamples",
    "TooManyBins",
    "ZeroVariance",
    "align_pair",
    "index_series",
    "joint_probability",
    "load_csv",
    "map_lagged",
    "map_pair",
    "measure_all",
    "prepare",
    "radar_normalize",
    "read_summary_csv",
    "run_fgn_ensemble",
    "run_surrogate_pair",
    "standardize",
    "surrogate",
    "write_adjacency_tsv",
    "write_csv",
    "write_edge_list_csv",
    "write_joint_tsv",
    "write_json",
    "write_summary_csv",
]
