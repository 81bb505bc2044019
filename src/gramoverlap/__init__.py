"""Inlier recovery for paired point sets via Gram-matrix overlap.

The overlap matrix of two d-by-n point sets is the entrywise product of their
Gram matrices; its leading eigenvector and its row sums each separate matched
(inlier) columns from mismatched ones.  This package provides the matrix
pipeline, the matcher, exact population oracles, seeded synthetic data,
split-merge parallel matching, and a CLI.
"""

__version__ = "0.1.0"

from .classify import (
    ErrorReport,
    LabelPartition,
    MatchConfig,
    MatchDiagnostics,
    ThresholdInterval,
    classify_rows,
    error_rates,
    match,
    threshold_interval,
)
from .errors import DegenerateColumnError, SizeLimitError
from .linalg import (
    dense_eig,
    gram,
    spectral_norm,
)
from .overlap import (
    OverlapMatrix,
    PopulationModel,
    PreprocessMode,
    SpectralPair,
    build_overlap,
    population_overlap,
    population_row_sum_mean,
    population_spectrum,
    preprocess,
)
from .parallel import ParallelReport, make_split, parallel_match
from .synth import (
    DeviationStats,
    LabeledPair,
    ScenarioSpec,
    derive_seed,
    empirical_deviation,
    generate,
)

__all__ = [
    "__version__",
    "DegenerateColumnError",
    "SizeLimitError",
    "SpectralPair",
    "gram",
    "dense_eig",
    "spectral_norm",
    "PreprocessMode",
    "OverlapMatrix",
    "PopulationModel",
    "preprocess",
    "build_overlap",
    "population_overlap",
    "population_spectrum",
    "population_row_sum_mean",
    "LabelPartition",
    "MatchConfig",
    "MatchDiagnostics",
    "ErrorReport",
    "ThresholdInterval",
    "classify_rows",
    "match",
    "threshold_interval",
    "error_rates",
    "ScenarioSpec",
    "LabeledPair",
    "DeviationStats",
    "derive_seed",
    "generate",
    "empirical_deviation",
    "ParallelReport",
    "make_split",
    "parallel_match",
]
