"""Normal form and element algebra tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nctorus import (
    IRRATIONAL,
    DeformationParameter,
    InputError,
    PhaseCoefficient,
    QQi,
    TorusAlgebra,
    apply_gauge,
    apply_index_map,
    brute_normal_form,
    canonicalize,
    normal_form,
    parse,
    translate,
    word_degree,
)

F = Fraction

BETA_QUARTER = canonicalize(1, 4)
BETA_HALF = canonicalize(1, 2)


factor_lists = st.lists(
    st.tuples(st.integers(-10, 10), st.integers(-5, 5)), max_size=10
)


@st.composite
def small_elements(draw, beta=BETA_QUARTER, max_terms=3):
    algebra = TorusAlgebra(beta)
    n = draw(st.integers(0, max_terms))
    x = algebra.zero()
    for _ in range(n):
        factors = draw(
            st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), max_size=3)
        )
        coeff = QQi(draw(st.fractions(min_value=-2, max_value=2, max_denominator=4)),
                    draw(st.fractions(min_value=-2, max_value=2, max_denominator=4)))
        x = x + algebra.word(factors, coeff)
    return x


class TestNormalForm:
    def test_basic_inversion(self):
        assert normal_form([(2, 1), (1, 1)]) == (-1, ((1, 1), (2, 1)))

    def test_already_ordered(self):
        assert normal_form([(1, 1), (2, 1)]) == (0, ((1, 1), (2, 1)))

    def test_cancellation(self):
        assert normal_form([(5, 1), (5, -1)]) == (0, ())

    def test_power_block(self):
        # u_3^2 u_0^-1 u_3^-2 = e^(2*pi*i*beta*2) u_0^-1
        assert normal_form([(3, 2), (0, -1), (3, -2)]) == (2, ((0, -1),))
        assert brute_normal_form([(3, 2), (0, -1), (3, -2)]) == (2, ((0, -1),))

    def test_zero_exponents_elided(self):
        assert normal_form([(1, 0), (2, 3), (1, 0)]) == (0, ((2, 3),))

    @given(factor_lists)
    @settings(max_examples=150)
    def test_matches_adjacent_transposition_oracle(self, factors):
        assert normal_form(factors) == brute_normal_form(factors)

    @given(factor_lists, factor_lists)
    @settings(max_examples=150)
    def test_appending_to_a_normal_form_word(self, prefix, factors):
        _, word = normal_form(prefix)
        assert normal_form(factors, word) == brute_normal_form(list(word) + factors)

    def test_long_random_words(self):
        rng = random.Random(8)
        for _ in range(5):
            factors = [(rng.randint(-20, 20), rng.choice((-3, -2, -1, 1, 2, 3)))
                       for _ in range(200)]
            assert normal_form(factors) == brute_normal_form(factors)

    def test_descending_parse(self):
        # every pair of the 300 generators is one inversion
        a = TorusAlgebra(IRRATIONAL)
        x = parse("*".join(f"u[{i}]" for i in range(300, 0, -1)), a)
        ascending = a.word([(i, 1) for i in range(1, 301)])
        assert x == ascending * a.twist_phase(-300 * 299 // 2)

    @given(factor_lists)
    @settings(max_examples=60)
    def test_idempotent(self, factors):
        _, word = normal_form(factors)
        assert normal_form(word) == (0, word)

    @given(factor_lists, st.integers(1, 4))
    @settings(max_examples=60)
    def test_admissible_words_have_trivial_phase(self, factors, n0):
        # every exponent a multiple of n0 and denominator n0^2: phase is 1
        scaled = [(i, e * n0) for i, e in factors]
        twist, _ = normal_form(scaled)
        beta = canonicalize(1, n0 * n0)
        assert (beta.numerator * twist) % beta.denominator == 0

    @given(factor_lists, st.integers(-3, 3))
    @settings(max_examples=60)
    def test_order_preserving_relabel_keeps_twist(self, factors, offset):
        twist, _ = normal_form(factors)
        relabeled = [(3 * i + offset, e) for i, e in factors]
        assert normal_form(relabeled)[0] == twist


class TestElement:
    def test_unit_multiplication(self):
        a = TorusAlgebra(BETA_QUARTER)
        x = a.word([(0, 1)], QQi(F(1, 2), F(0))) + a.u(3, -2)
        assert a.one() * x == x
        assert x * a.one() == x

    def test_commutation_coefficient(self):
        a = TorusAlgebra(BETA_QUARTER)
        forward = a.u(1) * a.u(2)
        backward = a.u(2) * a.u(1)
        word = ((1, 1), (2, 1))
        assert forward.coefficient(word) == 1
        assert backward.coefficient(word) == PhaseCoefficient.unit_angle(F(3, 4))

    def test_binomial_times_inverse(self):
        a = TorusAlgebra(BETA_QUARTER)
        x = (a.u(0) + a.u(1)) * a.u(0, -1)
        expected = a.one() + a.word([(1, 1), (0, -1)])
        assert x == expected
        assert x.coefficient(((0, -1), (1, 1))) == a.twist_phase(1)

    def test_adjoint_generator(self):
        a = TorusAlgebra(BETA_QUARTER)
        assert a.u(3).adjoint() == a.u(3, -1)

    def test_zero_exponent_is_the_unit(self):
        a = TorusAlgebra(BETA_QUARTER)
        assert a.u(3, 0).terms() == a.one().terms() == [((), 1)]
        assert parse("u[3]^0", a) == a.one()

    def test_scalar_operands(self):
        a = TorusAlgebra(BETA_QUARTER)
        u = a.u(1)
        assert (u + 2).terms() == (2 + u).terms() == [((), 2), (((1, 1),), 1)]
        assert (u - F(1, 2)).terms() == [((), F(-1, 2)), (((1, 1),), 1)]
        assert (1 - u).terms() == [((), 1), (((1, 1),), -1)]
        assert u + 2 - u == 2 and 2 + u - 2 == u

    def test_unequal_elements(self):
        a, b = TorusAlgebra(BETA_QUARTER), TorusAlgebra(BETA_HALF)
        assert a.one() != b.one()  # same terms over different parameters
        assert a.u(0) != a.u(0, 2) and a.u(0) != a.u(0) + a.u(1)  # other words
        assert a.u(0) != 2 * a.u(0)  # same word, other coefficient
        assert a.u(0) == a.u(0) and a.scalar(2) == 2 and a.u(0) != 2

    def test_text_forms(self):
        a = TorusAlgebra(BETA_QUARTER)
        x = a.u(0) + 2
        assert str(x) == "2 + u[0]" and repr(x) == "<Element 2 + u[0]>"
        assert str(a.zero()) == "0"
        assert repr(a) == "TorusAlgebra(beta=1/4)"
        assert repr(TorusAlgebra(IRRATIONAL)) == "TorusAlgebra(beta=irrational)"

    def test_adjoint_scalar(self):
        a = TorusAlgebra(BETA_QUARTER)
        x = a.scalar(PhaseCoefficient.unit_angle(F(1, 3)))
        assert x.adjoint() == a.scalar(PhaseCoefficient.unit_angle(F(2, 3)))

    def test_adjoint_product_word(self):
        a = TorusAlgebra(BETA_QUARTER)
        x = (a.u(1) * a.u(2)).adjoint()
        assert x == a.word([(2, -1), (1, -1)])
        assert x.coefficient(((1, -1), (2, -1))) == a.twist_phase(-1)

    def test_unitarity(self):
        a = TorusAlgebra(BETA_QUARTER)
        for x in (a.u(2), a.u(0) * a.u(1), a.word([(0, 3), (2, -1)])):
            assert x * x.adjoint() == a.one()
            assert x.adjoint() * x == a.one()

    def test_mixed_beta_rejected(self):
        a = TorusAlgebra(BETA_QUARTER)
        b = TorusAlgebra(BETA_HALF)
        with pytest.raises(InputError):
            a.u(0) * b.u(0)

    def test_one_algebra_skips_the_beta_comparison(self, monkeypatch):
        a = TorusAlgebra(BETA_QUARTER)
        x, y = a.u(0), a.u(1)

        def refuse(self, other):
            raise AssertionError("beta compared within one algebra")

        monkeypatch.setattr(DeformationParameter, "__eq__", refuse)
        assert x * y == a.word([(0, 1), (1, 1)]) and x + y == y + x
        assert x != y and x * y - y * x != a.zero() and x * 2 == x + x
        monkeypatch.undo()
        b = TorusAlgebra(canonicalize(1, 4))
        assert b.beta is not a.beta
        assert x * b.u(1) == b.u(0) * y and x + b.u(1) == b.u(1) + x
        c = TorusAlgebra(BETA_HALF)
        for op in (lambda: x + c.u(1), lambda: x * c.u(1)):
            with pytest.raises(InputError, match="different deformation parameters"):
                op()
        assert x != c.u(0)

    def test_scalar_products_count_coefficient_terms(self):
        from nctorus.algebra import MAX_PRODUCT_PAIRS

        a = TorusAlgebra(BETA_QUARTER)
        half = MAX_PRODUCT_PAIRS // 2
        binomial = PhaseCoefficient.unit_angle(F(1, 3)) + 1
        wide = a.scalar(PhaseCoefficient({(F(k, 65537), 0): 1 for k in range(half)}))
        assert len((wide * binomial).coefficient(())._terms) == 2 * half
        wider = wide + a.scalar(PhaseCoefficient.unit_angle(F(half, 65537)))
        assert len((3 * wider).coefficient(())._terms) == half + 1
        message = f"a product of {half + 1} by 2 coefficient terms exceeds {MAX_PRODUCT_PAIRS}"
        with pytest.raises(InputError, match=message):
            wider * binomial
        with pytest.raises(InputError, match=f"a product of 2 by {half + 1} coefficient"):
            binomial * wider


@given(small_elements(), small_elements(), small_elements())
@settings(max_examples=40, deadline=None)
def test_multiplication_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(small_elements(), small_elements())
@settings(max_examples=40, deadline=None)
def test_adjoint_antihomomorphism(x, y):
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()


@given(small_elements())
@settings(max_examples=40, deadline=None)
def test_adjoint_involution(x):
    assert x.adjoint().adjoint() == x


@given(small_elements(), small_elements())
@settings(max_examples=40, deadline=None)
def test_degree_additive_on_homogeneous(x, y):
    dx, dy = ({word_degree(w) for w in z.words()} for z in (x, y))
    if len(dx) == len(dy) == 1:
        assert {word_degree(w) for w in (x * y).words()} <= {dx.pop() + dy.pop()}


def test_word_degree_examples():
    a = TorusAlgebra(BETA_QUARTER)
    assert [word_degree(w) for w in a.word([(0, 2), (5, -1)]).words()] == [1]
    assert [word_degree(w) for w in a.one().words()] == [0]
    assert sorted(word_degree(w) for w in (a.u(0) + a.u(0, 2)).words()) == [1, 2]
    # reordering u1*u0 into normal form keeps the total exponent
    assert [word_degree(w) for w in (a.u(1) * a.u(0) * a.u(2, -3)).words()] == [-1]


class TestStructureMaps:
    def test_gauge_examples(self):
        a = TorusAlgebra(BETA_QUARTER)
        assert apply_gauge(a.u(0), F(1, 2)) == -a.u(0)
        x = a.word([(1, 1), (2, -1)])
        assert apply_gauge(x, F(5, 7)) == x
        assert apply_gauge(a.u(0, 2), F(1, 4)) == -a.u(0, 2)
        with pytest.raises(InputError, match="rational angle"):
            apply_gauge(a.u(0), 0.5)

    @given(small_elements(), small_elements(),
           st.fractions(0, 1, max_denominator=6), st.fractions(0, 1, max_denominator=6))
    @settings(max_examples=40, deadline=None)
    def test_gauge_is_a_star_automorphism_action(self, x, y, s, t):
        assert apply_gauge(x * y, s) == apply_gauge(x, s) * apply_gauge(y, s)
        assert apply_gauge(x.adjoint(), s) == apply_gauge(x, s).adjoint()
        assert apply_gauge(apply_gauge(x, s), t) == apply_gauge(x, s + t)

    def test_index_map_examples(self):
        a = TorusAlgebra(BETA_QUARTER)
        assert apply_index_map(a.u(0), lambda k: k + 1) == a.u(1)
        x = a.word([(-1, 1), (0, 1)])
        assert apply_index_map(x, lambda k: k) == x
        theta0 = lambda k: k if k < 0 else k + 1
        assert apply_index_map(x, theta0) == a.word([(-1, 1), (1, 1)])

    def test_index_map_rejects_collapse(self):
        a = TorusAlgebra(BETA_QUARTER)
        with pytest.raises(InputError):
            apply_index_map(a.word([(0, 1), (1, 1)]), lambda k: 0)

    @given(small_elements(), st.integers(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_translate_is_multiplicative(self, x, k):
        y = translate(x, k)
        assert translate(y, -k) == x

    @given(small_elements(), small_elements(), st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_index_maps_are_endomorphisms(self, x, y, offset):
        h = lambda k: 2 * k + offset
        lhs = apply_index_map(x * y, h)
        rhs = apply_index_map(x, h) * apply_index_map(y, h)
        assert lhs == rhs


class TestIrrationalMode:
    def test_symbolic_twist(self):
        a = TorusAlgebra(IRRATIONAL)
        x = a.u(2) * a.u(1)
        assert x.coefficient(((1, 1), (2, 1))) == PhaseCoefficient.symbolic_unit(-1)

    def test_unitarity_symbolic(self):
        a = TorusAlgebra(IRRATIONAL)
        x = a.word([(0, 2), (3, -1), (1, 1)])
        assert x * x.adjoint() == a.one()

    @given(factor_lists)
    @settings(max_examples=40)
    def test_associativity_symbolic(self, factors):
        a = TorusAlgebra(IRRATIONAL)
        x, y, z = a.word(factors[:3]), a.word(factors[3:6]), a.word(factors[6:])
        assert (x * y) * z == x * (y * z)
