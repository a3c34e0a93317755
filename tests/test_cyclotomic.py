"""Sparse cyclotomic kernel: differential tests against the dense reference
and cost in terms rather than in level."""

import cmath
import hashlib
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from nctorus import (IRRATIONAL, PhaseCoefficient, QQi, TorusAlgebra, canonicalize,
                     factorize, format_element, parse, scalars)
from nctorus import oracle
from nctorus.expr import format_word
from nctorus.oracle import (brute_cyclotomic_polynomial, brute_phase_is_zero,
                            brute_phase_reduce, brute_phase_to_qqi)

F = Fraction

# primes, powers of 2 and 3, twice an odd number, smooth numbers
LEVELS = [2, 3, 5, 7, 11, 13, 97, 101, 1009,
          4, 8, 16, 64, 1024,
          9, 27, 81, 729,
          6, 10, 14, 30, 202, 1154,
          12, 24, 60, 72, 210, 420]


def fractions_between(lo, hi, max_denominator):
    """Every fraction in [lo, hi] with a denominator <= max_denominator, in order."""
    return sorted({F(n, d) for d in range(1, max_denominator + 1)
                   for n in range(lo * d, hi * d + 1)})


# strategies are built once here and per level in phase_sums, not in a draw
weights = st.sampled_from([w for w in fractions_between(-3, 3, 4) if w])
SYMBOLIC_LEVELS = [1, 2, 3, 4, 6, 8, 12]


def level_strategies(level):
    """(exponent mod level, number of cosets, {p: the term left out of a
    coset of p-th roots, or None}, prime p) over the primes p <= 101 of the
    level, so that a coset holds at most 101 terms."""
    primes = [p for p, _ in factorize(level) if p <= 101]
    skips = {p: st.sampled_from([None] * 3 + list(range(p))) for p in primes}
    return (st.integers(0, level - 1), st.integers(0, 2 if primes else 0), skips,
            st.sampled_from(primes) if primes else None)


def phase_sums(levels=LEVELS):
    """Phase sums at one of the levels: loose terms, whole cosets of p-th
    roots (p <= 101) times a phase, which cancel, cosets with one term
    missing, Gaussian constants, and a few symbolic buckets at small levels."""
    per_level = {level: level_strategies(level) for level in {*levels, *SYMBOLIC_LEVELS}}
    loose, quarter = st.integers(0, 4), st.integers(0, 3)
    level_of_bucket = st.sampled_from(levels)
    symbolic_powers = st.lists(st.sampled_from([-2, -1, 1, 2]), max_size=2, unique=True)
    symbolic_level = st.sampled_from(SYMBOLIC_LEVELS)

    @st.composite
    def sums(draw):
        pairs = []

        def bucket(level, m):
            exponent, cosets, skips, prime = per_level[level]
            for _ in range(draw(loose)):
                pairs.append(((F(draw(exponent), level), m), draw(weights)))
            for _ in range(draw(cosets)):
                p = draw(prime)
                c = F(draw(exponent), level)
                r = draw(weights)
                skip = draw(skips[p])
                pairs.extend(((c + F(j, p), m), r) for j in range(p) if j != skip)
            if draw(st.booleans()):
                pairs.append(((F(draw(quarter), 4), m), draw(weights)))

        bucket(draw(level_of_bucket), 0)
        for m in draw(symbolic_powers):
            bucket(draw(symbolic_level), m)
        return PhaseCoefficient(pairs)

    return sums()


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


@given(phase_sums())
@example(PhaseCoefficient([((F(1, 6), 0), F(1)), ((F(1, 3), 0), F(1)), ((F(1, 12), 1), F(2))]))
@settings(max_examples=150, deadline=None)
def test_dense_merge_keeps_one_term_per_pair(pc):
    # the premise of the oracle's half-turn rewrite: the pairs are a residue
    # modulo Phi_L, so no rewritten angle meets another term
    merge, sizes = oracle._dense_merge, []

    def counted(pairs):
        pairs = list(pairs)
        out = merge(pairs)
        sizes.append((len(out), len(pairs)))
        return out

    oracle._dense_merge = counted
    try:
        brute_phase_reduce(pc)
        brute_phase_to_qqi(pc)
    finally:
        oracle._dense_merge = merge
    assert all(kept == taken for kept, taken in sizes)


def test_matches_dense_reference_at_smooth_1155():
    # one fixed sum at level 3*5*7*11, the costliest kind for the dense reference
    c = F(2, 1155)
    pc = PhaseCoefficient(
        [((c + F(j, 7), 0), F(3, 2)) for j in range(7)]  # a whole coset
        + [((F(1154, 1155), 0), F(2)), ((F(7, 1155), 0), F(-1)),
           ((F(1, 3), 1), F(1)), ((F(2, 3), 1), F(1)), ((F(0), 1), F(1))]
    )
    assert_matches_reference(pc)


# zero relations sum_{j<p} r*e(c + j/p), times E(m)
zero_relations = st.lists(st.tuples(st.sampled_from([2, 3, 5, 7]),
                                    st.sampled_from(fractions_between(0, 1, 12)),
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
def test_zero_and_gaussian_tests_cost_terms_not_level(level):
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
    coeffs = brute_cyclotomic_polynomial(level)
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
    deg = len(brute_cyclotomic_polynomial(level)) - 1

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
@settings(max_examples=2, deadline=None, phases=set(Phase) - {Phase.shrink})
def test_exponents_anywhere_match_dense_reference_at_smooth_levels(level, data):
    # the dense reference costs the most per sum at these levels, so a failure
    # is reported as drawn: shrinking its big weights would take a minute
    assert_reduces_like_reference(data.draw(spread_sums([level])))


@pytest.mark.parametrize("level", [1155, 4620])
def test_sum_near_the_level_matches_dense_reference_at_smooth_levels(level):
    # drawn sums reach the exponents next to L only in some runs; this one
    # checks the side read as y**-k on every run
    assert_reduces_like_reference(
        PhaseCoefficient([((F(level - 1, level), 0), 2), ((F(1, level), 0), 5)]))


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # x**n - 1 = prod over d | n of Phi_d determines every Phi_n
    for n in [*range(1, 61), 105, 128, 210, 243, 315, 420, 1155]:
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = brute_cyclotomic_polynomial(d)
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
    """format_element rebuilt from the reduce() Fractions."""
    parts = []
    for word, coeff in x.terms():
        for (angle, power), weight in coeff.reduce()._terms.items():
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


def cyclo_product(level):
    """x*y of the cyclo workload's first pair at beta = 1/level."""
    algebra = TorusAlgebra(canonicalize(1, level))
    x = parse("2*u[0]*u[1] - 3/4*u[1]*u[0] + u[3]^2", algebra)
    return x * parse("u[4]*u[5]^-1 + 5/3*u[5]^-1*u[4]", algebra)


# format_element(cyclo_product(100003)): one coefficient of 100,002 terms
GOLDEN_100003 = (4489029, "23f91bc473f5954352aa9f21edc00ec2dd551b52")


def size_and_sha1(text):
    return len(text), hashlib.sha1(text.encode()).hexdigest()


def test_large_print_is_pinned():
    assert size_and_sha1(format_element(cyclo_product(100003))) == GOLDEN_100003


def reference_text(pc):
    return reference_format(TorusAlgebra(IRRATIONAL).scalar(pc))


@pytest.mark.parametrize("level", [5, 7, 101, 1009])
@pytest.mark.parametrize("start", [0, 1])
def test_equal_weight_runs_at_a_prime_level_print_as_reference(level, start):
    # at a prime level only a run that starts at exponent 0 holds a multiple
    # of the level; the printer tests that first exponent alone
    for weight in (1, F(-2, 3)):
        for width in (2, 3):
            pc = PhaseCoefficient({(F(a, level), 0): weight
                                   for a in range(start, start + width)})
            assert pc.canonical_form()[0][3][0] == start
            assert str(pc) == reference_text(pc)


# odd squarefree, prime powers and other levels whose residue classes have a
# stride above 1, and levels divisible by 4, where _half_turn rewrites
FORM_LEVELS = [3, 15, 21, 105, 231, 385,
               9, 25, 27, 49, 125, 243, 45, 175, 98,
               4, 8, 16, 12, 20, 28, 36, 60, 100]


@given(phase_sums(FORM_LEVELS))
@settings(max_examples=150, deadline=None)
def test_canonical_form_lists_are_ordered_and_in_lowest_terms(pc):
    for m, level, den, exps, ns in pc.canonical_form():
        # only _half_turn, at even levels, moves an exponent above phi(level)
        top = level if level % 2 == 0 else len(brute_cyclotomic_polynomial(level)) - 1
        assert exps == sorted(set(exps)) and 0 <= exps[0] and exps[-1] < top
        assert len(ns) == len(exps) and all(type(n) is int and n for n in ns)
        assert gcd(den, *ns) == 1
    assert pc.reduce()._terms == brute_phase_reduce(pc)._terms
    assert str(pc) == reference_text(pc)


def sorted_at_most_64(items, **kwargs):
    items = list(items)
    assert len(items) <= 64, f"sorted a list of {len(items)}"
    return sorted(items, **kwargs)


def test_odd_squarefree_print_sorts_no_long_list(monkeypatch):
    # a squarefree conductor has one residue class, whose remainder comes
    # out of the reduction in exponent order: nothing of its size is sorted
    pc = PhaseCoefficient({(F(30029, 30030), 0): 1, (F(0), 0): 2})  # conductor 15015
    expected = reference_text(pc)
    monkeypatch.setattr(scalars, "sorted", sorted_at_most_64, raising=False)
    assert [f[1] for f in pc.canonical_form()] == [15015]
    assert str(pc) == expected
    assert size_and_sha1(format_element(cyclo_product(100003))) == GOLDEN_100003
