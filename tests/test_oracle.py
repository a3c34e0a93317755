"""Oracle tests: brute normal forms, divisibility scans, matrix model, PSD."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nctorus import (
    CesaroState,
    IRRATIONAL,
    MatrixRep,
    MixtureState,
    MomentSequence,
    ProductState,
    QQi,
    TRACE,
    TorusAlgebra,
    brute_cesaro_word,
    brute_n0,
    brute_normal_form,
    canonicalize,
    evaluate,
    evaluate_word,
    gram_psd,
    hermitian_psd_exact,
    matrix_rep,
    matrix_trace_eval,
    n0_table,
    normal_form,
    toeplitz_psd,
)
from nctorus import oracle, states
from nctorus.algebra import word_translate
from nctorus.deformation import InputError
from nctorus.oracle import _quadratic_form
from nctorus.scalars import PC_ONE, PC_ZERO

F = Fraction


class TestBruteNormalForm:
    def test_examples(self):
        assert brute_normal_form([(2, 1), (1, 1)]) == (-1, ((1, 1), (2, 1)))
        assert brute_normal_form([(1, 1), (2, 1)]) == (0, ((1, 1), (2, 1)))
        assert brute_normal_form([(5, 1), (5, -1)]) == (0, ())

    def test_agreement_random(self):
        rng = random.Random(2024)
        for _ in range(500):
            factors = [
                (rng.randint(-10, 10), rng.randint(-5, 5))
                for _ in range(rng.randint(0, 8))
            ]
            assert brute_normal_form(factors) == normal_form(factors)


def _criterion_8_mixture():
    return MixtureState((
        (F(1, 2), ProductState(MomentSequence({0: 1, 2: F(2, 3), 4: F(1, 6)}))),
        (F(1, 2), ProductState(MomentSequence.lebesgue())),
    ))


CESARO_BETAS = [canonicalize(1, 2), canonicalize(1, 4), canonicalize(3, 8), IRRATIONAL]
CESARO_BASES = [
    TRACE,
    ProductState(MomentSequence({0: 1, 2: F(1, 2)})),
    _criterion_8_mixture(),
    CesaroState(1, _criterion_8_mixture()),
]


NESTED_CESARO = st.builds(CesaroState, st.integers(0, 2), st.recursive(
    st.sampled_from(CESARO_BASES[:3]),
    lambda inner: st.one_of(
        st.builds(CesaroState, st.integers(0, 2), inner),
        st.builds(lambda a, b: MixtureState(((F(1, 3), a), (F(2, 3), b))), inner, inner),
    ),
    max_leaves=4,
))


def _literal_value(state, word, algebra):
    """phi(word) with every Cesaro level the plain average over its 2n+1
    shifts, and every block product split by hand, each block moved back to
    block 0."""
    if isinstance(state, MixtureState):
        return sum((_literal_value(p, word, algebra) * w for w, p in state.parts), PC_ZERO)
    if not isinstance(state, CesaroState):
        return evaluate_word(state, word, algebra)
    n = state.half_width
    span = 2 * n + 1
    total = PC_ZERO
    for k in range(-n, n + 1):
        blocks = {}
        for i, e in word_translate(word, k):
            blocks.setdefault((i + n) // span, []).append((i, e))
        value = PC_ONE
        for r, block in blocks.items():
            if not algebra.isotropy.contains(sum(e for _, e in block)):
                value = PC_ZERO
                break
            moved = word_translate(tuple(block), -r * span)
            value = value * _literal_value(state.base, moved, algebra)
        total = total + value
    return total * F(1, span)


def _nested_trees(depth):
    """Shift-invariant trees of Cesaro states and mixtures, at most depth deep."""
    leaf = st.sampled_from(CESARO_BASES[:2])
    if depth == 1:
        return leaf
    inner = _nested_trees(depth - 1)
    return st.one_of(
        leaf,
        st.builds(CesaroState, st.integers(0, 3), inner),
        st.builds(lambda a, b: MixtureState(((F(1, 4), a), (F(3, 4), b))), inner, inner),
    )


NESTED_TREES = _nested_trees(3)


class TestBruteCesaro:
    def test_example(self):
        # u0^2 u1^2 at n = 1: shifts -1, 0 keep both factors in one block
        # (2/9 each), shift 1 separates them (1/9)
        algebra = TorusAlgebra(canonicalize(1, 2))
        state = CesaroState(1, _criterion_8_mixture())
        word = ((0, 2), (1, 2))
        assert brute_cesaro_word(state, word, algebra) == F(5, 27)
        assert abs(brute_cesaro_word(state, word, algebra, mode="float") - 5 / 27) < 1e-12

    @given(
        st.sampled_from(CESARO_BETAS),
        st.sampled_from(CESARO_BASES),
        st.integers(0, 12),
        st.lists(st.tuples(st.integers(-15, 15), st.integers(-2, 2)), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_shift_average(self, beta, base, n, factors):
        # indices up to 15 against spans 2n+1 down to 1: small n cuts the
        # support several times
        algebra = TorusAlgebra(beta)
        word = normal_form(factors)[1]
        state = CesaroState(n, base)
        assert evaluate_word(state, word, algebra) == brute_cesaro_word(
            state, word, algebra
        )
        fast = evaluate_word(state, word, algebra, mode="float")
        slow = brute_cesaro_word(state, word, algebra, mode="float")
        assert abs(fast - slow) <= 1e-9

    @given(st.sampled_from(CESARO_BETAS), NESTED_CESARO,
           st.lists(st.tuples(st.integers(-6, 6), st.integers(-2, 2)), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_nested_states_match_shift_average(self, beta, state, factors):
        algebra = TorusAlgebra(beta)
        word = normal_form(factors)[1]
        fast = evaluate_word(state, word, algebra)
        assert fast == brute_cesaro_word(state, word, algebra)
        assert fast == _literal_value(state, word, algebra)
        slow = brute_cesaro_word(state, word, algebra, mode="float")
        assert abs(evaluate_word(state, word, algebra, mode="float") - slow) <= 1e-9

    def test_nested_cesaro_evaluations_grow_slowly_in_depth(self, monkeypatch):
        # 15 levels, the deepest chain a state file allows; each level meets
        # at most three distinct translated blocks of the three-index word.
        # The count stops the evaluation as soon as it passes the bound
        calls = []
        value = CesaroState.value

        def counting(self, word, values):
            calls.append(word)
            if len(calls) > 700:
                raise AssertionError("more than 700 Cesaro evaluations")
            return value(self, word, values)

        monkeypatch.setattr(CesaroState, "value", counting)
        state = ProductState(MomentSequence({2: F(1, 2)}))
        for _ in range(15):
            state = CesaroState(1000, state)
        word = ((0, 2), (1, 2), (2, 2))
        assert evaluate_word(state, word, TorusAlgebra(canonicalize(1, 2))) == F(1, 8)
        assert calls

    def test_nested_cesaro_work_is_linear_in_depth(self, monkeypatch):
        # one evaluation shares its values down the tree: each level meets
        # at most 6*7/2 = 21 contiguous runs of the six-factor word
        counted = []
        value = CesaroState.value

        def counting(self, word, values):
            counted.append(word)
            return value(self, word, values)

        monkeypatch.setattr(CesaroState, "value", counting)
        state = ProductState(MomentSequence({2: F(1, 2)}))
        for _ in range(15):
            state = CesaroState(1000, state)
        word = ((0, 2), (1, -2), (3, 2), (4, 2), (7, -2), (8, 2))
        evaluate_word(state, word, TorusAlgebra(canonicalize(1, 2)))
        assert len(counted) <= 15 * 21

    @given(st.sampled_from(CESARO_BETAS), st.integers(0, 3), NESTED_TREES,
           st.lists(st.tuples(st.integers(-6, 6), st.integers(-2, 2)), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_deep_trees_match_shift_average(self, beta, n, base, factors):
        # depth <= 4; the oracle's per-shift average evaluates the block
        # product of the nested base on every shift
        algebra = TorusAlgebra(beta)
        word = normal_form(factors)[1]
        state = CesaroState(n, base)
        exact = evaluate_word(state, word, algebra)
        assert exact == brute_cesaro_word(state, word, algebra)
        number = exact.to_complex()
        assert abs(evaluate_word(state, word, algebra, mode="float") - number) <= 1e-9
        assert abs(brute_cesaro_word(state, word, algebra, mode="float") - number) <= 1e-9


class TestN0:
    def test_examples(self):
        assert brute_n0(4) == 2
        assert brute_n0(1) == 1
        assert brute_n0(12) == 6

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            brute_n0(0)

    def test_table_matches_scan(self):
        table = n0_table(3000)
        for d in range(1, 3001):
            assert table[d] == brute_n0(d)


class TestMatrixRep:
    @pytest.mark.parametrize("den", [2, 3, 5, 7])
    @pytest.mark.parametrize("gens", [1, 2, 3, 4])
    def test_constructs_and_verifies(self, den, gens):
        rep = MatrixRep(canonicalize(1, den), gens)
        rep.verify()

    @pytest.mark.parametrize("den,gens", [(2, 2), (3, 2), (2, 3), (5, 2)])
    def test_dense_relations(self, den, gens):
        rep = matrix_rep(1, den, gens)
        mats = [rep.generator_matrix(j) for j in range(1, gens + 1)]
        lam = rep.lam
        eye = np.eye(den**gens)
        for m in mats:
            assert np.abs(m @ m.conj().T - eye).max() < 1e-12
        for i in range(gens):
            for j in range(i + 1, gens):
                lhs = mats[i] @ mats[j]
                rhs = lam * (mats[j] @ mats[i])
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_dense_trace_matches_factored(self):
        rep = matrix_rep(1, 3, 2)
        rng = random.Random(5)
        for _ in range(50):
            factors = [
                (rng.randint(1, 2), rng.randint(-2, 2)) for _ in range(rng.randint(0, 5))
            ]
            dense = np.eye(9, dtype=complex)
            for i, e in factors:
                m = rep.generator_matrix(i)
                step = m if e >= 0 else m.conj().T
                for _ in range(abs(e)):
                    dense = dense @ step
            expected = np.trace(dense) / 9
            totals = {}
            for i, e in factors:
                totals[i] = totals.get(i, 0) + e
            if any(abs(a) >= 3 for a in totals.values()):
                continue
            assert abs(matrix_trace_eval(factors, rep) - expected) < 1e-9

    def test_irrational_rejected(self):
        from nctorus import IRRATIONAL

        with pytest.raises(InputError):
            MatrixRep(IRRATIONAL, 2)


class TestMatrixTrace:
    def test_empty_word(self):
        rep = matrix_rep(1, 3, 2)
        assert abs(matrix_trace_eval([], rep) - 1) < 1e-12

    def test_single_generator_traceless(self):
        rep = matrix_rep(1, 3, 2)
        assert abs(matrix_trace_eval([(1, 1)], rep)) < 1e-12

    def test_commutator_word(self):
        # u1 u2 u1^-1 u2^-1 = lam * 1 exactly (left-to-right products)
        rep = matrix_rep(1, 5, 2)
        value = matrix_trace_eval([(1, 1), (2, 1), (1, -1), (2, -1)], rep)
        assert abs(value - rep.lam) < 1e-9
        a = TorusAlgebra(canonicalize(1, 5))
        symbolic = evaluate(TRACE, a.word([(1, 1), (2, 1), (1, -1), (2, -1)]))
        assert abs(symbolic.to_complex() - value) < 1e-9

    def test_window_violation(self):
        rep = matrix_rep(1, 3, 2)
        with pytest.raises(InputError):
            matrix_trace_eval([(1, 3)], rep)
        with pytest.raises(InputError):
            matrix_trace_eval([(1, 2), (2, 1), (1, 1)], rep)

    def test_index_out_of_range(self):
        rep = matrix_rep(1, 3, 2)
        with pytest.raises(InputError):
            matrix_trace_eval([(3, 1)], rep)

    def test_agreement_with_canonical_trace(self):
        rng = random.Random(99)
        for den in (2, 3, 5, 7):
            algebra = TorusAlgebra(canonicalize(1, den))
            rep = matrix_rep(1, den, 4)
            done = 0
            while done < 50:
                factors = [
                    (rng.randint(1, 4), rng.randint(-(den - 1), den - 1))
                    for _ in range(rng.randint(0, 6))
                ]
                totals = {}
                for i, e in factors:
                    totals[i] = totals.get(i, 0) + e
                if any(abs(a) >= den for a in totals.values()):
                    continue
                done += 1
                numeric = matrix_trace_eval(factors, rep)
                symbolic = evaluate(TRACE, algebra.word(factors)).to_complex()
                assert abs(numeric - symbolic) < 1e-9


class TestToeplitz:
    def test_lebesgue_every_order(self):
        m = MomentSequence.lebesgue()
        for order in (1, 3, 6):
            assert toeplitz_psd(m, order).is_psd

    def test_point_mass_rank_one(self):
        # all moments 1: the all-ones matrix
        m = MomentSequence({l: 1 for l in range(-5, 6)})
        assert toeplitz_psd(m, 5).is_psd

    def test_large_first_moment_fails(self):
        # |c_1| > 1 is rejected by the moment container, so drive the LDL
        # check directly with the 2x2 matrix [[1, 2], [2, 1]]
        verdict = hermitian_psd_exact([[QQi.of(1), QQi.of(2)], [QQi.of(2), QQi.of(1)]])
        assert not verdict.is_psd
        assert verdict.form_value < 0

    def test_float_mode(self):
        m = MomentSequence({0: 1, 1: 0.9}, mode="float")
        verdict = toeplitz_psd(m, 3)
        assert not verdict.is_psd
        assert verdict.min_eigenvalue < -1e-6

    def test_float_mode_psd(self):
        # c_2 = 1/2 only: the even rows form the tridiagonal [1, 1/2] matrix of
        # size 3, least eigenvalue 1 - cos(pi/4), and the odd rows one of size 2
        verdict = toeplitz_psd(MomentSequence({2: 0.5}, mode="float"), 4)
        assert verdict.is_psd
        assert abs(verdict.min_eigenvalue - (1 - 2**-0.5)) < 1e-9

    def test_order_validation(self):
        with pytest.raises(InputError):
            toeplitz_psd(MomentSequence.lebesgue(), 0)


class TestExactPsd:
    def random_hermitian(self, rng, n):
        m = [[QQi(F(0), F(0))] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = QQi(F(rng.randint(-3, 5)), F(0))
            for j in range(i + 1, n):
                z = QQi(F(rng.randint(-2, 2), rng.randint(1, 2)),
                        F(rng.randint(-2, 2), rng.randint(1, 2)))
                m[i][j] = z
                m[j][i] = z.conjugate()
        return m

    def test_matches_eigensolve(self):
        rng = random.Random(31)
        for _ in range(80):
            n = rng.randint(1, 5)
            m = self.random_hermitian(rng, n)
            exact = hermitian_psd_exact(m)
            numeric = np.array([[complex(v) for v in row] for row in m])
            least = float(np.linalg.eigvalsh(numeric)[0])
            if exact.is_psd:
                assert least > -1e-9
            else:
                assert least < 1e-9
                value = _quadratic_form(m, list(exact.witness))
                assert value.im == 0
                assert value.re < 0
                assert value.re == exact.form_value

    def test_zero_pivot_with_spoiler(self):
        m = [
            [QQi.of(0), QQi.of(1)],
            [QQi.of(1), QQi.of(1)],
        ]
        verdict = hermitian_psd_exact(m)
        assert not verdict.is_psd
        assert verdict.form_value < 0

    def test_positive_semidefinite_rank_deficient(self):
        one = QQi.of(1)
        m = [[one, one], [one, one]]
        assert hermitian_psd_exact(m).is_psd

    def test_non_hermitian_rejected(self):
        with pytest.raises(InputError):
            hermitian_psd_exact([[QQi.of(1), QQi.of(2)], [QQi.of(3), QQi.of(1)]])


class TestGram:
    def test_trace_identity_gram(self):
        a = TorusAlgebra(canonicalize(1, 2))
        family = [a.one(), a.u(0), a.u(1)]
        verdict = gram_psd(TRACE, family)
        assert verdict.is_psd

    def test_admissible_product_gram(self):
        a = TorusAlgebra(canonicalize(1, 2))
        state = ProductState(MomentSequence({0: 1, 2: F(1, 2)}))
        rng = random.Random(8)
        for _ in range(10):
            family = [
                a.word(
                    [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))]
                )
                for _ in range(3)
            ]
            assert gram_psd(state, family).is_psd

    def test_inadmissible_product_not_psd(self):
        # frozen witness family: {1, u_0, u_0 u_1} at beta = 1/2 with c_1 = 1
        a = TorusAlgebra(canonicalize(1, 2))
        state = ProductState(MomentSequence({0: 1, 1: 1}))
        family = [a.one(), a.u(0), a.u(0) * a.u(1)]
        with pytest.warns(UserWarning):
            verdict = gram_psd(state, family, mode="float")
        assert not verdict.is_psd
        assert verdict.min_eigenvalue < -1e-6
        assert abs(verdict.min_eigenvalue - (1 - 2**0.5)) < 1e-9

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_family_validates_once_and_shares_values(self, monkeypatch, mode):
        # 20 words, 400 entries: one validation, and each word that the
        # entries share is evaluated once
        validations, words = [], []
        validate, value = states.validate_state, ProductState.value

        def counted_validate(*args, **options):
            validations.append(args)
            return validate(*args, **options)

        def counted_value(self, word, values):
            words.append(word)
            return value(self, word, values)

        monkeypatch.setattr(states, "validate_state", counted_validate)
        monkeypatch.setattr(ProductState, "value", counted_value)
        a = TorusAlgebra(canonicalize(1, 2))
        family = [a.u(i, e) for i in range(-2, 3) for e in (-2, -1, 1, 2)]
        state = ProductState(MomentSequence({0: 1, 2: F(1, 2)}))
        assert gram_psd(state, family, mode=mode).is_psd
        assert len(validations) == 1
        assert len(words) == len(set(words)) < len(family) ** 2

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_empty_family_is_psd_in_both_modes(self, mode):
        verdict = gram_psd(TRACE, [], mode=mode)
        assert verdict.is_psd and verdict.witness is None
        assert verdict.describe() == "positive semidefinite"


def private_scalars_uses(source: str) -> list[str]:
    """Underscore names that the source imports from scalars or reads off it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "scalars":
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name == "scalars":
                found.append(node.attr)
    return found


def test_oracle_stays_independent_of_the_scalar_kernel():
    # the dense references check the sparse kernel, so they must not call it
    assert private_scalars_uses(Path(oracle.__file__).read_text()) == []
    assert private_scalars_uses("from .scalars import QQi, _conductor\n"
                                "from . import scalars\n"
                                "x = scalars._vanishes\n"
                                "y = nctorus.scalars._power_basis\n") == [
        "_conductor", "_vanishes", "_power_basis"]


def test_oracle_builds_its_own_cyclotomic_polynomials(monkeypatch):
    # the dense residues must not lean on the kernel's product-form passes
    from nctorus import PhaseCoefficient, scalars

    pc = PhaseCoefficient([((F(j, 105), 0), F(1)) for j in (1, 4, 11, 16, 29)])
    expected = pc.reduce()._terms

    def refuse(*args):
        raise AssertionError("the oracle called the kernel's Phi_n passes")

    monkeypatch.setattr(scalars, "_times_phi", refuse)
    oracle.brute_cyclotomic_polynomial.cache_clear()
    assert oracle.brute_phase_reduce(pc)._terms == expected


@pytest.mark.parametrize("levels", [range(1, 100), [1155, 4620]], ids=["below-100", "smooth"])
def test_cyclotomic_polynomials_match_sympy(levels):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in levels:
        coeffs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        expected = tuple(int(c) for c in reversed(coeffs))
        assert oracle.brute_cyclotomic_polynomial(n) == expected
