"""Inlier recovery for paired point sets via Gram-matrix overlap.

The overlap matrix of two d-by-n point sets is the entrywise product of their
Gram matrices; its leading eigenvector and its row sums each separate matched
(inlier) columns from mismatched ones.  This package provides the matrix
pipeline, both matchers, exact population oracles, seeded synthetic data,
split-merge parallel matching, and a CLI.
"""

__version__ = "0.1.0"

from .classify import (
    ErrorReport,
    LabelPartition,
    MatchConfig,
    MatchDiagnostics,
    ThresholdInterval,
    eigenvector_match,
    error_rates,
    match,
    row_sum_match,
    threshold_interval,
    two_means_1d,
)
from .errors import DegenerateColumnError, DegenerateValuesError, SizeLimitError
from .linalg import (
    SpectralPair,
    dense_eig,
    gram,
    power_iteration,
    spectral_norm,
)
from .overlap import (
    OverlapMatrix,
    PopulationModel,
    PreprocessMode,
    build_overlap,
    population_overlap,
    population_row_sum_mean,
    population_spectrum,
    preprocess,
)
from .parallel import ParallelReport, SplitPlan, make_split, parallel_match
from .synth import (
    DeviationStats,
    LabeledPair,
    ScenarioSpec,
    derive_seed,
    empirical_deviation,
    generate,
    haar_orthogonal,
)

__all__ = [
    "__version__",
    "DegenerateColumnError",
    "DegenerateValuesError",
    "SizeLimitError",
    "SpectralPair",
    "gram",
    "power_iteration",
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
    "two_means_1d",
    "eigenvector_match",
    "row_sum_match",
    "match",
    "threshold_interval",
    "error_rates",
    "ScenarioSpec",
    "LabeledPair",
    "DeviationStats",
    "derive_seed",
    "haar_orthogonal",
    "generate",
    "empirical_deviation",
    "SplitPlan",
    "ParallelReport",
    "make_split",
    "parallel_match",
]
