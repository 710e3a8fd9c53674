"""Exact bias, analytic rank, and combinatorial ranks of tensors over F_p."""

from .bias import (
    DEFAULT_BUDGET,
    AnalyticRank,
    BiasValue,
    BudgetExceededError,
    MultiformBias,
    ValueHistogram,
    analytic_rank,
    arank_ceil,
    bias_all_engines,
    bias_fiber,
    bias_histogram,
    bias_multiform,
    bias_recursive,
    c_constant,
    chi,
    diagonal_bias_numerator,
)
from .gf import PrimeField, matrix_rank
from .laws import (
    CorrelationInstance,
    LawResult,
    SurveyReport,
    law_arank_le_prank,
    law_basis_invariance,
    law_correlation,
    law_independent_bound,
    law_lemma_bias,
    law_restriction_monotone,
    law_subadditivity,
    survey_gap,
)
from .ranks import (
    RankOneTerm,
    RankReport,
    greedy_decomposition,
    is_independent_set,
    max_independent_set,
    rank_bounds,
    rank_exact,
)
from .tensor import (
    MultiComponentForm,
    Tensor,
    TensorFormatError,
    all_tensors,
    coordinate_basis,
    diagonal_tensor,
    direct_sum,
    from_entries,
    identity_tensor,
    parse_tensor,
    random_multiform,
    random_tensor,
    restrict,
    serialize_tensor,
    shift_terms,
    zero_tensor,
)

__version__ = "0.1.0"
