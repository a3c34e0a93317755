"""The package namespace: every public name, resolved from its submodule on use."""

import importlib
import sys

import pytest

import nctorus
from nctorus import states

# submodule -> the public names it defines
EXPORTS = {
    "algebra": """Element TorusAlgebra Word apply_gauge apply_index_map normal_form
        translate word_degree word_translate""",
    "deformation": """IRRATIONAL DeformationParameter InputError IsotropySubgroup
        canonicalize factorize isotropy isotropy_generator_table parse_beta""",
    "expr": "ParseError format_complex format_element parse",
    "oracle": """MatrixRep PsdVerdict brute_cesaro_word brute_n0 brute_normal_form
        brute_phase_is_zero brute_phase_reduce brute_phase_to_qqi gram_psd
        hermitian_psd_exact hermitian_psd_float matrix_trace_eval n0_table toeplitz_psd""",
    "scalars": "PhaseCoefficient QQi",
    "states": """BlockProductState CesaroState InadmissibleMomentsError MixtureState
        MomentSequence ProductState StateSpec TRACE Trace clustering_gap evaluate
        evaluate_word load_state state_from_json validate_state""",
    "symmetry": """CheckReport Composite Counterexample IDENTITY PartialShift Shift
        TableMap check_gauge_invariant check_spreadable check_stationary
        random_increasing_map""",
}
HOME = {name: module for module, names in EXPORTS.items() for name in names.split()}
PUBLIC = sorted([*EXPORTS, *HOME])


def test_public_names_are_frozen():
    assert len(PUBLIC) == 71
    assert sorted(nctorus.__all__) == PUBLIC


def test_names_are_their_submodules_bindings():
    def home(module):
        return importlib.import_module(f"nctorus.{module}")

    assert [module for module in EXPORTS if getattr(nctorus, module) is not home(module)] == []
    assert [name for name, module in HOME.items()
            if getattr(nctorus, name) is not getattr(home(module), name)] == []


def test_names_follow_a_rebinding_on_the_submodule(monkeypatch):
    # nothing is cached on the package, so a rebinding such as a tracer's
    # wrapper is seen while it lasts and gone once it is undone
    original = states.evaluate
    monkeypatch.setattr(states, "evaluate", lambda *args, **kwargs: None)
    assert nctorus.evaluate is states.evaluate is not original
    monkeypatch.undo()
    assert nctorus.evaluate is original


def test_dir_lists_the_public_names():
    listed = dir(nctorus)
    assert "__all__" in listed
    assert set(PUBLIC) <= set(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nctorus.no_such_name
    assert not hasattr(nctorus, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from nctorus import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_lazy_lookup_returns_the_submodule_and_refuses_unknown_names():
    # importing a submodule binds it on the package, so a plain
    # nctorus.symmetry never reaches the module __getattr__; call it directly
    assert nctorus.__getattr__("symmetry") is sys.modules["nctorus.symmetry"]
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        nctorus.__getattr__("nosuch")
