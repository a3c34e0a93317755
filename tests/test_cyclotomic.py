"""Sparse cyclotomic kernel: differential tests against the dense reference,
cost in terms rather than in level, and the level limit."""

import cmath
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nctorus import (PhaseCoefficient, QQi, TorusAlgebra, canonicalize, cyclotomic_polynomial,
                     factorize, format_element, parse, scalars)
from nctorus.deformation import MAX_LEVEL, InputError
from nctorus.expr import format_word
from nctorus.oracle import brute_phase_is_zero, brute_phase_reduce, brute_phase_to_qqi

F = Fraction

# primes, powers of 2 and 3, twice an odd number, smooth numbers
LEVELS = [2, 3, 5, 7, 11, 13, 97, 101, 1009,
          4, 8, 16, 64, 1024,
          9, 27, 81, 729,
          6, 10, 14, 30, 202, 1154,
          12, 24, 60, 72, 210, 420]
weights = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def phase_sums(draw):
    """Phase sums at one level: loose terms, whole cosets of p-th roots
    (p <= 101) times a phase, which cancel, cosets with one term missing,
    Gaussian constants, and a few symbolic buckets at small levels."""
    pairs = []

    def bucket(level, m):
        primes = [p for p, _ in factorize(level) if p <= 101]  # cosets of <= 101 terms
        for _ in range(draw(st.integers(0, 4))):
            pairs.append(((F(draw(st.integers(0, level - 1)), level), m), draw(weights)))
        for _ in range(draw(st.integers(0, 2 if primes else 0))):
            p = draw(st.sampled_from(primes))
            c = F(draw(st.integers(0, level - 1)), level)
            r = draw(weights)
            skip = draw(st.sampled_from([None] * 3 + list(range(p))))
            pairs.extend(((c + F(j, p), m), r) for j in range(p) if j != skip)
        if draw(st.booleans()):
            pairs.append(((F(draw(st.integers(0, 3)), 4), m), draw(weights)))

    bucket(draw(st.sampled_from(LEVELS)), 0)
    for m in draw(st.lists(st.sampled_from([-2, -1, 1, 2]), max_size=2, unique=True)):
        bucket(draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12])), m)
    return PhaseCoefficient(pairs)


def assert_matches_reference(pc):
    ref = brute_phase_reduce(pc)
    assert pc.reduce()._terms == ref._terms
    assert pc.is_zero() == brute_phase_is_zero(pc)
    assert pc.to_qqi() == brute_phase_to_qqi(pc)
    assert str(pc) == str(ref)


@given(phase_sums())
@settings(max_examples=150, deadline=None)
def test_matches_dense_reference(pc):
    assert_matches_reference(pc)


def test_matches_dense_reference_at_smooth_1155():
    # level 3*5*7*11 costs the dense reference seconds, so one fixed sum
    c = F(2, 1155)
    pc = PhaseCoefficient(
        [((c + F(j, 7), 0), F(3, 2)) for j in range(7)]  # a whole coset
        + [((F(1154, 1155), 0), F(2)), ((F(7, 1155), 0), F(-1)),
           ((F(1, 3), 1), F(1)), ((F(2, 3), 1), F(1)), ((F(0), 1), F(1))]
    )
    assert_matches_reference(pc)


# zero relations sum_{j<p} r*e(c + j/p), times E(m)
zero_relations = st.lists(st.tuples(st.sampled_from([2, 3, 5, 7]),
                                    st.fractions(min_value=0, max_value=1, max_denominator=12),
                                    weights, st.sampled_from([0, 0, 0, 1])),
                          min_size=1, max_size=3)


@given(phase_sums(), zero_relations)
@example(PhaseCoefficient.unit_angle(F(4, 5)), [(3, F(0), F(1), 0)])
@settings(max_examples=300, deadline=None)
def test_equal_values_print_equal(x, relations):
    # the printed form is canonical: it is read at the conductor, the least
    # level whose cyclotomic field holds the value
    y = x + PhaseCoefficient([((c + F(j, p), m), r) for p, c, r, m in relations for j in range(p)])
    assert x == y
    assert str(x) == str(y)
    assert x.canonical_form() == y.canonical_form()


@pytest.mark.parametrize("level", [100003, 1000003])
def test_zero_and_gaussian_tests_cost_terms_not_level(level, monkeypatch):
    def refuse(n):
        raise AssertionError(f"the dense path built Phi_{n}")

    monkeypatch.setattr(scalars, "cyclotomic_polynomial", refuse)

    def pc(*terms):
        return PhaseCoefficient([((F(q), m), F(r)) for q, m, r in terms])

    a = F(1, level)
    half, third = F(1, 2), F(1, 3)
    assert not pc((a, 0, 1), (2 * a, 0, 1)).is_zero()
    assert pc((a, 0, 1), (a + half, 0, 1)).is_zero()
    assert pc((a, 0, 2), (a + third, 0, 2), (a + 2 * third, 0, 2)).is_zero()
    assert not pc((a, 0, 2), (a + third, 0, 2), (a + 2 * third, 0, 1)).is_zero()
    assert pc((a, 1, 1), (a + half, 1, 1)).is_zero()  # a symbolic bucket
    assert pc((a, 0, 1), (a + third, 0, 1)) == pc((a + 2 * third, 0, -1))
    assert not pc((a, 0, 1), (a + third, 0, 1)) == pc((a + 2 * third, 0, 1))
    assert pc((a, 0, 1), (a + half, 0, 1), (0, 0, 5)).to_qqi() == QQi(F(5), F(0))
    assert pc((a, 0, 3), (a + half, 0, 3), (F(1, 4), 0, -1)).to_qqi() == QQi(F(0), F(-1))
    assert pc((a, 0, 1), (0, 0, 2)).to_qqi() is None
    assert pc((a, 0, 1), (-a, 0, 1)).to_qqi() is None  # 2 cos(2 pi / level)
    assert pc((a, 0, 1), (a + half, 0, 1), (a, 2, 1)).to_qqi() is None


def test_cyclotomic_polynomial_level_limit():
    with pytest.raises(InputError, match="exceeds the limit"):
        cyclotomic_polynomial(MAX_LEVEL + 1)
    assert MAX_LEVEL >= 1000003


@pytest.mark.parametrize("sum_", [
    {F(1, 2): 1, F(3, 10): F(1, 3), F(9, 10): F(-2, 3), F(3, 4): F(-1, 2),
     F(1, 4): F(-1, 2), F(0): F(-2, 3)},
    {F(113, 180): F(1, 2), F(0): F(-3, 2), F(2, 3): F(-5, 3), F(1, 6): F(1, 3)},
])
def test_residue_whose_rewrite_leaves_the_power_basis(sum_):
    # a fixed-point loop reduces these twice: the rewrite after the first
    # residue moves exponents to phi(L) or above, and the second residue
    # only undoes it
    assert_matches_reference(PhaseCoefficient([((q, 0), r) for q, r in sum_.items()]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_near_top_exponent_reduces_upward(k):
    pc = PhaseCoefficient({(F(1155 - k, 1155), 0): 1, (F(0), 0): 2})
    ref = brute_phase_reduce(pc)  # reduce and print only: the other dense tests run at 4620
    assert pc.reduce()._terms == ref._terms
    assert str(pc) == str(ref)


def test_inverse_root_is_one_pass_over_phi():
    # x**-1 = -sum_{j>=1} c_j x**(j-1) for Phi_L = sum c_j x**j; the dense
    # reference is too slow at L = 15015
    level = 15015
    coeffs = cyclotomic_polynomial(level)
    inverse = {(F(j - 1, level), 0): F(-c) for j, c in enumerate(coeffs) if j and c}
    pc = PhaseCoefficient({(F(level - 1, level), 0): 1})
    assert pc.reduce()._terms == inverse
    assert str(pc) == str(PhaseCoefficient._make(inverse))


big_weights = st.one_of(weights, st.integers(-10 ** 40, 10 ** 40).filter(bool),
                        st.builds(F, st.integers(-10 ** 40, 10 ** 40).filter(bool),
                                  st.integers(1, 10 ** 6)))


@st.composite
def spread_sums(draw, levels):
    """Sums at one of the levels with exponents anywhere in [0, L): near
    phi(L), near L, half-way between them, and uniform, with big-integer
    weights."""
    level = draw(st.sampled_from(levels))
    deg = len(cyclotomic_polynomial(level)) - 1

    def near(c):
        return st.integers(max(0, c - 3), min(level - 1, c + 3))

    exponents = st.one_of(st.integers(0, level - 1), near(deg), near(level - 1),
                          near((deg + level) // 2))
    terms = draw(st.lists(st.tuples(exponents, big_weights), min_size=1, max_size=6))
    return PhaseCoefficient([((F(a, level), 0), r) for a, r in terms])


def assert_reduces_like_reference(pc):
    ref = brute_phase_reduce(pc)
    assert pc.reduce()._terms == ref._terms
    assert str(pc) == str(ref)


@given(spread_sums([105, 315, 420, 2 ** 7, 3 ** 5]))
@settings(max_examples=60, deadline=None)
def test_exponents_anywhere_match_dense_reference(pc):
    assert_reduces_like_reference(pc)


@pytest.mark.parametrize("level", [1155, 4620])
@given(data=st.data())
@settings(max_examples=2, deadline=None)
def test_exponents_anywhere_match_dense_reference_at_smooth_levels(level, data):
    # the dense reference takes one to three seconds a sum at these levels
    assert_reduces_like_reference(data.draw(spread_sums([level])))


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # x**n - 1 = prod over d | n of Phi_d determines every Phi_n
    for n in [*range(1, 61), 105, 128, 210, 243, 315, 420, 1155]:
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(product) + len(phi) - 1)
                for i, a in enumerate(product):
                    if a:
                        for j, b in enumerate(phi):
                            out[i + j] += a * b
                product = out
        assert product == [-1] + [0] * (n - 1) + [1], n


def printed_value(text):
    """Float value of printed phase-sum text, term by term."""
    parts = re.split(r" ([+-]) ", text)
    signs = ["-" if parts[0].startswith("-") else "+"] + parts[1::2]
    total = 0j
    term_text = re.compile(r"(?:(\d+(?:/\d+)?)\*?)?(?:e\((\d+)/(\d+)\))?")
    for sign, term in zip(signs, [parts[0].lstrip("-")] + parts[2::2]):
        weight, num, den = term_text.fullmatch(term).groups()
        value = float(F(weight or 1))
        if num:
            value *= cmath.exp(2j * cmath.pi * int(num) / int(den))
        total += -value if sign == "-" else value
    return total


@pytest.mark.parametrize("pc, level", [
    (PhaseCoefficient({(F(30029, 30030), 0): 1, (F(0), 0): 2}), 15015),  # exponent 7507
    (PhaseCoefficient({(F(170003, 255255), 0): 1}), 255255),
], ids=["30029/30030+2", "170003/255255"])
def test_middle_exponent_costs_passes_per_class(pc, level, monkeypatch):
    # a squarefree level has one residue class, which takes one quotient and
    # one product by Phi_level: a pass per divisor each, wherever the
    # exponents lie
    def refuse(n):
        raise AssertionError(f"the reduction built Phi_{n}")

    monkeypatch.setattr(scalars, "cyclotomic_polynomial", refuse)
    passes = []
    for name in ("_times_one_minus", "_over_one_minus"):
        def counted(c, d, helper=getattr(scalars, name)):
            passes.append(d)
            helper(c, d)
        monkeypatch.setattr(scalars, name, counted)
    assert [f[1] for f in pc.canonical_form()] == [level]
    passes.clear()
    text = str(pc)
    assert 0 < len(passes) <= 2 * 2 ** len(factorize(level))
    assert abs(printed_value(text) - pc.to_complex()) < 1e-8


def reference_format(x):
    """format_element rebuilt from the canonical_terms() Fractions."""
    parts = []
    for word, coeff in x.terms():
        for angle, power, weight in coeff.canonical_terms():
            bits = [f"e({angle})"] if angle else []
            bits += [f"E({power})"] if power else []
            bits += [format_word(word)] if word else []
            if weight != 1 or not bits:
                bits.insert(0, str(weight))
            parts.append("*".join(bits))
    text = parts[0] if parts else "0"
    for p in parts[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text


@pytest.mark.parametrize("level", [257, 263, 1009, 2 * 131, 2 * 577, 17 ** 2, 3 ** 6,
                                   2 ** 10, 1155])
def test_printer_matches_reference_on_cyclo_products(level):
    # x*y with x = 2*u[0]*u[1] - 3/4*u[1]*u[0] + u[3]^2: the twist e(-1/L)
    # is the top power, which the printer expands into the power basis
    algebra = TorusAlgebra(canonicalize(1, level))
    x = parse("2*u[0]*u[1] - 3/4*u[1]*u[0] + u[3]^2", algebra)
    for y in ("u[4]*u[5]^-1 + 5/3*u[5]^-1*u[4]", "-u[0]^-1*u[1]^-1 + 1/2*u[1]^-1*u[0]^-1"):
        p = x * parse(y, algebra)
        assert format_element(p) == reference_format(p)
