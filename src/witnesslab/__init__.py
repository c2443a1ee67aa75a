"""witnesslab: numerical evaluation of product-moment entanglement conditions.

The package detects multipartite entanglement by checking whether
|<A_1...A_n>| exceeds either of two separability bounds (a geometric
mean of operator moments, or the moment of the averaged operator sum)
on explicitly represented states: qubit GHZ variants, partially
separable mixtures, and Fock-truncated squeezed-vacuum fields.
"""

from .errors import (
    BadParameter,
    DimensionCap,
    DimensionMismatch,
    InvalidDensityMatrix,
    MissingParameter,
    NegativeSpectrum,
    NonHermitian,
    NoSignChange,
    NumericalOverflow,
    TruncationTooCoarse,
    WitnessLabError,
)
from .formulas import (
    FormulaId,
    closed_form,
    numeric_form,
    rearrangement_note,
    run_verification,
    series_identity_check,
)
from .linalg import kron_embed, matelem, psd_power
from .oracle import (
    SeparableSpec,
    check_lemma,
    check_separable_bounds,
    run_lemma_trials,
    run_separable_trials,
    sample_separable,
)
from .scan import SweepSpec, ThresholdResult, find_threshold, sweep
from .states import (
    MixedEnsemble,
    ProductTerm,
    PureSOP,
    StateFamily,
    build_state,
    tail_weight,
)
from .witness import (
    OperatorAssignment,
    WitnessReport,
    canonical_assignment,
    evaluate,
    product_expectation,
    rhs_condition1,
    rhs_condition2,
    site_second_moments,
)

__version__ = "0.1.0"

__all__ = [
    "BadParameter",
    "DimensionCap",
    "DimensionMismatch",
    "FormulaId",
    "InvalidDensityMatrix",
    "MissingParameter",
    "MixedEnsemble",
    "NegativeSpectrum",
    "NonHermitian",
    "NoSignChange",
    "NumericalOverflow",
    "OperatorAssignment",
    "ProductTerm",
    "PureSOP",
    "SeparableSpec",
    "StateFamily",
    "SweepSpec",
    "ThresholdResult",
    "TruncationTooCoarse",
    "WitnessLabError",
    "WitnessReport",
    "build_state",
    "canonical_assignment",
    "check_lemma",
    "check_separable_bounds",
    "closed_form",
    "evaluate",
    "find_threshold",
    "kron_embed",
    "matelem",
    "numeric_form",
    "product_expectation",
    "psd_power",
    "rearrangement_note",
    "rhs_condition1",
    "rhs_condition2",
    "run_lemma_trials",
    "run_separable_trials",
    "run_verification",
    "sample_separable",
    "series_identity_check",
    "site_second_moments",
    "sweep",
    "tail_weight",
]
