"""Exact computer algebra on the infinite noncommutative torus.

Countably many unitary generators u_l (l in Z) obey u_l u_k = lam u_k u_l
for l < k with lam = e^(2*pi*i*beta).  This package computes normal forms
exactly, evaluates the distinguished states (trace, site products, block
products, Cesaro averages, mixtures), checks distributional symmetries on
declared budgets, and ships independent brute-force and matrix oracles.

The public names below load their submodule on first use (PEP 562), so that
`import nctorus` and each command line entry point pay only for what they
touch.  A name is looked up on its submodule at every access, never cached
here, so `nctorus.X` is always the submodule's current binding.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {
    "algebra": (
        "Element", "TorusAlgebra", "Word", "apply_gauge", "apply_index_map",
        "normal_form", "translate", "word_degree", "word_translate",
    ),
    "deformation": (
        "IRRATIONAL", "DeformationParameter", "InputError", "IsotropySubgroup",
        "canonicalize", "factorize", "isotropy", "isotropy_generator_table",
        "parse_beta",
    ),
    "expr": ("ParseError", "format_complex", "format_element", "parse"),
    "oracle": (
        "MatrixRep", "PsdVerdict", "brute_cesaro_word", "brute_n0", "brute_normal_form",
        "brute_phase_is_zero", "brute_phase_reduce", "brute_phase_to_qqi", "gram_psd",
        "hermitian_psd_exact", "hermitian_psd_float", "matrix_trace_eval", "n0_table",
        "toeplitz_psd",
    ),
    "scalars": ("PhaseCoefficient", "QQi"),
    "states": (
        "BlockProductState", "CesaroState", "InadmissibleMomentsError", "MixtureState",
        "MomentSequence", "ProductState", "StateSpec", "TRACE", "Trace", "clustering_gap",
        "evaluate", "evaluate_word", "load_state", "state_from_json", "validate_state",
    ),
    "symmetry": (
        "CheckReport", "Composite", "Counterexample", "IDENTITY", "PartialShift",
        "Shift", "TableMap", "check_gauge_invariant", "check_spreadable",
        "check_stationary", "random_increasing_map",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
