"""Exact computer algebra on the infinite noncommutative torus.

Countably many unitary generators u_l (l in Z) obey u_l u_k = lam u_k u_l
for l < k with lam = e^(2*pi*i*beta).  This package computes normal forms
exactly, evaluates the distinguished states (trace, site products, block
products, Cesaro averages, mixtures), checks distributional symmetries on
declared budgets, and ships independent brute-force and matrix oracles.
"""

from .algebra import (
    Element,
    TorusAlgebra,
    Word,
    apply_coordinate_gauge,
    apply_gauge,
    apply_index_map,
    degree_zero_part,
    divisible_exponent_part,
    gauge_orbit_numeric,
    normal_form,
    translate,
    word_degree,
    word_translate,
)
from .deformation import (
    IRRATIONAL,
    DeformationParameter,
    InputError,
    IsotropySubgroup,
    canonicalize,
    factorize,
    isotropy,
    isotropy_generator_table,
    parse_beta,
    twist_exponent,
)
from .expr import ParseError, format_complex, format_element, parse
from .oracle import (
    MatrixRep,
    PsdVerdict,
    brute_cesaro_word,
    brute_n0,
    brute_normal_form,
    brute_phase_is_zero,
    brute_phase_reduce,
    brute_phase_to_qqi,
    gram_psd,
    hermitian_psd_exact,
    hermitian_psd_float,
    matrix_rep,
    matrix_trace_eval,
    n0_table,
    toeplitz_psd,
)
from .scalars import PhaseCoefficient, QQi, cyclotomic_polynomial
from .states import (
    BlockProductState,
    CesaroState,
    InadmissibleMomentsError,
    MixtureState,
    MomentSequence,
    ProductState,
    StateSpec,
    TRACE,
    Trace,
    clustering_gap,
    clustering_gap_float,
    describe_state,
    evaluate,
    evaluate_float,
    evaluate_word,
    evaluate_word_float,
    is_stationary_evaluable,
    load_state,
    state_from_json,
    state_to_json,
    validate_state,
)
from .symmetry import (
    CheckReport,
    Composite,
    Counterexample,
    IDENTITY,
    IncreasingMap,
    PartialShift,
    Shift,
    TableMap,
    check_gauge_invariant,
    check_spreadable,
    check_stationary,
    compose,
    random_increasing_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
