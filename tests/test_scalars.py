"""Exact scalar ring tests: Gaussian rationals and cyclotomic phase sums."""

import cmath
import copy
import pickle
from collections import defaultdict
from fractions import Fraction
from math import pi

import pytest
from hypothesis import given, settings, strategies as st

from nctorus import (
    IRRATIONAL,
    PhaseCoefficient,
    QQi,
    TorusAlgebra,
    canonicalize,
)
from nctorus.oracle import brute_cyclotomic_polynomial

F = Fraction


def pc_angle(q, r=1):
    return PhaseCoefficient.unit_angle(F(q)) * F(r)


class TestQQi:
    def test_arithmetic(self):
        a = QQi(F(1, 2), F(1, 3))
        b = QQi(F(-1), F(2))
        assert a + b == QQi(F(-1, 2), F(7, 3))
        assert a * b == QQi(F(1, 2) * F(-1) - F(1, 3) * F(2),
                            F(1, 2) * F(2) + F(1, 3) * F(-1))
        assert (a / b) * b == a
        assert a.conjugate().im == -a.im
        assert a.abs2() == F(1, 4) + F(1, 9)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQi.of(1) / QQi.of(0)

    def test_complex_conversion(self):
        z = QQi(F(3, 4), F(-2, 5))
        assert complex(z) == 0.75 - 0.4j

    def test_value_object(self):
        z = QQi(F(1, 2))
        assert repr(z) == "QQi(re=Fraction(1, 2), im=Fraction(0, 1))"
        assert z == QQi(re=F(1, 2), im=0) and z != QQi(F(1, 2), 1)
        assert hash(z) == hash(QQi(F(2, 4))) == hash((F(1, 2), F(0)))
        assert z != F(1, 2) and z != (F(1, 2), F(0))  # only a QQi equals a QQi
        assert QQi() == QQi(0, 0) and type(QQi(1).re) is Fraction
        assert copy.copy(z) == pickle.loads(pickle.dumps(z)) == z
        with pytest.raises(AttributeError, match="cannot assign"):
            z.re = F(1)
        with pytest.raises(AttributeError, match="cannot delete"):
            del z.im
        with pytest.raises(AttributeError):
            z.extra = 1
        assert z == QQi(F(1, 2)) and not hasattr(z, "__dict__")


def four_products(a, b):
    """(a.re + a.im i)(b.re + b.im i) by the four-product formula."""
    return QQi(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


rationals = st.fractions(max_denominator=50, min_value=-20, max_value=20)
gaussians = st.one_of(
    st.just(QQi()),
    st.builds(QQi, rationals),
    st.builds(lambda im: QQi(0, im), rationals),
    st.builds(QQi, rationals, rationals),
)
operands = st.one_of(gaussians, st.integers(-20, 20), rationals)


@settings(max_examples=300, deadline=None)
@given(gaussians, operands)
def test_product_matches_four_product_formula(a, b):
    expected = four_products(a, QQi.of(b))
    assert a * b == expected and b * a == expected


class TestCyclotomic:
    def test_small_polynomials(self):
        assert brute_cyclotomic_polynomial(1) == (-1, 1)
        assert brute_cyclotomic_polynomial(2) == (1, 1)
        assert brute_cyclotomic_polynomial(3) == (1, 1, 1)
        assert brute_cyclotomic_polynomial(4) == (1, 0, 1)
        assert brute_cyclotomic_polynomial(6) == (1, -1, 1)
        assert brute_cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("n", [5, 7, 8, 9, 15, 24, 105])
    def test_root_annihilation(self, n):
        coeffs = brute_cyclotomic_polynomial(n)
        z = cmath.exp(2j * pi / n)
        value = sum(c * z**k for k, c in enumerate(coeffs))
        assert abs(value) < 1e-9


class TestPhaseCoefficient:
    def test_zero_detection_primitive_roots(self):
        z = pc_angle("1/3") + pc_angle("2/3") + 1
        assert z.is_zero()
        assert z == 0

    def test_zero_detection_fifth_roots(self):
        z = sum((pc_angle(F(k, 5)) for k in range(1, 5)),
                PhaseCoefficient.from_rational(1))
        assert z.is_zero()

    def test_nonzero(self):
        assert not (pc_angle("1/3") + pc_angle("2/3")).is_zero()
        assert pc_angle("1/3") + pc_angle("2/3") == -1

    def test_half_angle_normalization(self):
        assert str(pc_angle("1/2")) == "-1"
        assert str(pc_angle("5/6")) == "-1*e(1/3)"

    def test_canonical_string(self):
        assert str(PhaseCoefficient.from_rational(F(-3, 4))) == "-3/4"
        assert str(pc_angle("1/3", "1/2")) == "1/2*e(1/3)"
        assert str(PhaseCoefficient()) == "0"
        assert str(PhaseCoefficient.symbolic_unit(2)) == "E(2)"

    def test_equality_is_semantic(self):
        a = pc_angle("1/3") + pc_angle("2/3")
        b = PhaseCoefficient.from_rational(-1)
        assert a == b
        assert not (a == PhaseCoefficient.from_rational(1))

    def test_to_qqi(self):
        assert pc_angle("1/4").to_qqi() == QQi(F(0), F(1))
        assert pc_angle("1/3").to_qqi() is None
        z = pc_angle("1/3") + pc_angle("2/3")
        assert z.to_qqi() == QQi(F(-1), F(0))
        assert z.to_rational() == -1
        mixed = pc_angle("1/8") + pc_angle("5/8")
        assert mixed.to_qqi() == QQi()  # opposite eighth roots cancel

    def test_to_qqi_symbolic(self):
        z = PhaseCoefficient.symbolic_unit(1)
        assert z.to_qqi() is None
        w = z - z  # cancels
        assert w.to_qqi() == QQi()

    def test_symbolic_products(self):
        a = PhaseCoefficient.symbolic_unit(2)
        b = PhaseCoefficient.symbolic_unit(-2)
        assert a * b == 1
        assert a.conjugate() == b

    def test_conjugate(self):
        z = pc_angle("1/3", "1/2") + PhaseCoefficient.symbolic_unit(1)
        w = z.conjugate()
        assert w == pc_angle("2/3", "1/2") + PhaseCoefficient.symbolic_unit(-1)

    def test_to_complex(self):
        z = pc_angle("1/8", "2") + 1
        expected = 2 * cmath.exp(2j * pi / 8) + 1
        assert abs(z.to_complex() - expected) < 1e-12

    def test_to_complex_symbolic_needs_beta(self):
        z = PhaseCoefficient.symbolic_unit(1)
        with pytest.raises(ValueError):
            z.to_complex()

    def test_reduce_is_canonical_on_equal_values(self):
        # one half via thirds: (-1/2)(e(1/3) + e(2/3)) = 1/2
        a = pc_angle("1/3", "-1/2") + pc_angle("2/3", "-1/2")
        b = PhaseCoefficient.from_rational(F(1, 2))
        assert a.reduce()._terms == b.reduce()._terms


angles = st.fractions(min_value=0, max_value=1, max_denominator=12)
weights = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def phase_sums(draw):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        q = draw(angles) % 1
        r = draw(weights)
        terms[(q, 0)] = terms.get((q, 0), F(0)) + r
    return PhaseCoefficient(terms)


@given(phase_sums(), phase_sums())
@settings(max_examples=80)
def test_arithmetic_matches_numeric(a, b):
    for exact, numeric in [
        (a + b, a.to_complex() + b.to_complex()),
        (a * b, a.to_complex() * b.to_complex()),
        (a - b, a.to_complex() - b.to_complex()),
        (a.conjugate(), a.to_complex().conjugate()),
    ]:
        assert abs(exact.to_complex() - numeric) < 1e-9


@given(phase_sums())
@settings(max_examples=80)
def test_zero_test_matches_numeric(a):
    if a.is_zero():
        assert abs(a.to_complex()) < 1e-9
    else:
        assert abs(a.to_complex()) > 1e-12


@given(phase_sums())
@settings(max_examples=60)
def test_reduce_preserves_value(a):
    assert abs(a.reduce().to_complex() - a.to_complex()) < 1e-9
    assert a.reduce() == a


@given(phase_sums())
@settings(max_examples=60)
def test_to_qqi_round_trip(a):
    z = a.to_qqi()
    if z is not None:
        assert abs(complex(z) - a.to_complex()) < 1e-9
        assert PhaseCoefficient.from_qqi(z) == a


# Angles outside [0, 1) and repeated (q mod 1, m) keys, so that merging and
# cancellation both happen on construction and in arithmetic.
merge_keys = st.tuples(
    st.sampled_from([F(0), F(1), F(1, 2), F(-1, 2), F(1, 3), F(4, 3), F(2, 3), F(-3, 4)]),
    st.integers(-2, 2),
)


@st.composite
def term_lists(draw):
    pairs = []
    for key, r in draw(st.lists(st.tuples(merge_keys, weights), max_size=6)):
        pairs.append((key, r))
        if draw(st.booleans()):
            pairs.append((key, -r))  # cancels the weight just drawn
    return pairs


def naive_terms(pairs):
    acc = defaultdict(Fraction)
    for (q, m), r in pairs:
        acc[(q % 1, m)] += r
    return {key: r for key, r in acc.items() if r}


@given(term_lists(), term_lists())
@settings(max_examples=150)
def test_merge_matches_naive_reference(xs, ys):
    a, b = PhaseCoefficient(xs), PhaseCoefficient(ys)
    products = [((q1 + q2, m1 + m2), r1 * r2)
                for (q1, m1), r1 in a._terms.items() for (q2, m2), r2 in b._terms.items()]
    for got, want in [
        (a, naive_terms(xs)),
        (a + b, naive_terms(xs + ys)),
        (a - b, naive_terms(xs + [(key, -r) for key, r in ys])),
        (a * b, naive_terms(products)),
    ]:
        assert got._terms == want
        assert all(got._terms.values())


# sums of roots of unity that vanish without equal angles
RELATIONS = [
    PhaseCoefficient({(F(0), 0): 1, (F(1, 3), 0): 1, (F(2, 3), 0): 1}),
    PhaseCoefficient({(F(k, 5), 0): 1 for k in range(5)}),
    PhaseCoefficient({(F(1, 6), 0): 1, (F(5, 6), 0): 1, (F(0), 0): -1}),
]


@given(term_lists(), st.sampled_from(RELATIONS), weights.filter(bool))
@settings(max_examples=60)
def test_element_equality_sees_cyclotomic_relations(xs, relation, k):
    algebra = TorusAlgebra(IRRATIONAL)
    u0 = algebra.u(0)
    c = PhaseCoefficient(xs)
    a, b = algebra.scalar(c) * u0, algebra.scalar(c + relation * k) * u0
    assert a == b


def test_element_equality_of_thirds():
    algebra = TorusAlgebra(canonicalize(1, 2))
    u0 = algebra.u(0)
    thirds = PhaseCoefficient({(F(1, 3), 0): 1, (F(2, 3), 0): 1})
    assert algebra.scalar(thirds) * u0 == -u0
    assert algebra.scalar(thirds) * u0 != u0


def test_exact_scalars_take_only_exact_operands():
    # floats, complexes and strings never enter exact arithmetic
    from nctorus import MomentSequence
    from nctorus.scalars import PC_ONE

    algebra = TorusAlgebra(canonicalize(1, 2))
    for make in (lambda: QQi(0.1), lambda: QQi("1/3"), lambda: QQi(F(1, 3), 2.5),
                 lambda: QQi.of(0.5j), lambda: QQi.of(0.5), lambda: QQi.of("1/3"),
                 lambda: QQi(1) + 0.5j, lambda: MomentSequence({2: 0.1 + 0j}),
                 lambda: MomentSequence({2: 0.1}), lambda: algebra.scalar(0.5),
                 lambda: algebra.u(0) * 0.5j, lambda: PC_ONE + 0.5):
        with pytest.raises(TypeError):
            make()
    assert MomentSequence({2: 0.1 + 0j}, mode="float").moment(-2) == 0.1 + 0j
    # int, Fraction, QQi and PhaseCoefficient operands behave as before
    assert QQi(1, F(1, 2)) == QQi(F(1), F(1, 2)) and QQi.of(2) == QQi(F(2))
    assert QQi.of(QQi(F(1, 3))) == QQi(F(1, 3)) and QQi(1) + 1 == QQi(F(2))
    assert MomentSequence({2: F(1, 2)}).moment(-2) == QQi(F(1, 2))
    assert MomentSequence({2: QQi(F(1, 4), F(1, 4))}).moment(-2) == QQi(F(1, 4), F(-1, 4))
    half = algebra.scalar(F(1, 2))
    assert half == F(1, 2) and half == QQi(F(1, 2)) and half == pc_angle(0, F(1, 2))
    assert algebra.one() == 1 and algebra.scalar(QQi(F(0), F(1))) == pc_angle(F(1, 4))
    assert (algebra.one() == 1.0) is False and (algebra.one() == "1") is False
    assert algebra.u(0) * 2 == algebra.u(0) + algebra.u(0) == algebra.u(0) * QQi(F(2))
    assert PC_ONE + F(1, 2) == F(3, 2) and PC_ONE * QQi(F(0), F(1)) == pc_angle(F(1, 4))


def test_mixed_operand_arithmetic():
    # reflected subtraction, truth value, and float operands handed back to
    # Python, which then refuses them (or compares them unequal)
    third = pc_angle(F(1, 3))
    assert 3 - third == -third + 3 and 1 - QQi(F(1, 2), F(1)) == QQi(F(1, 2), F(-1))
    assert bool(third) and not bool(third + pc_angle(F(2, 3)) + 1)
    for op in (lambda: third - 0.5, lambda: 0.5 - third):
        with pytest.raises(TypeError):
            op()
    assert (third == 0.5) is False
    assert pc_angle(F(1, 4)).to_rational() is None and pc_angle(0, F(1, 2)).to_rational() == F(1, 2)
    # a zero rational scale gives the zero coefficient, not a zero-weighted term
    zero = PhaseCoefficient.unit_angle(F(1, 3)) * 0
    assert zero.is_zero() and zero._terms == {}


def test_gaussian_rational_prints_both_parts():
    # what a check report's state line shows for a complex exact moment
    from nctorus import MomentSequence, ProductState

    assert str(QQi(F(1, 2), F(1, 3))) == "1/2+1/3i"
    assert str(QQi(F(1, 2), F(-1, 3))) == "1/2-1/3i"
    state = ProductState(MomentSequence({2: QQi(F(1, 2), F(1, 3))}))
    assert state.describe() == "product(c_-2=1/2-1/3i, c_2=1/2+1/3i)"
