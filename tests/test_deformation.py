"""Deformation parameter and isotropy subgroup tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nctorus import (
    IRRATIONAL,
    InputError,
    brute_n0,
    canonicalize,
    factorize,
    isotropy,
    isotropy_generator_table,
    parse_beta,
)
from nctorus.deformation import MAX_LEVEL


def test_canonicalize_reduces():
    b = canonicalize(2, 8)
    assert (b.numerator, b.denominator) == (1, 4)
    assert dict(b.denominator_factors) == {2: 2}


def test_canonicalize_integer():
    b = canonicalize(3, 1)
    assert (b.numerator, b.denominator) == (3, 1)
    assert b.denominator_factors == ()


def test_canonicalize_signs():
    b = canonicalize(-5, -10)
    assert (b.numerator, b.denominator) == (1, 2)
    assert dict(b.denominator_factors) == {2: 1}


def test_canonicalize_zero_numerator():
    b = canonicalize(0, 7)
    assert (b.numerator, b.denominator) == (0, 1)


def test_zero_denominator_rejected():
    with pytest.raises(InputError):
        canonicalize(1, 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
@settings(max_examples=60)
def test_canonicalize_invariants(n, d):
    b = canonicalize(n, d)
    assert b.denominator > 0
    assert Fraction(b.numerator, b.denominator) == Fraction(n, d)
    prod = 1
    for p, m in b.denominator_factors:
        prod *= p**m
    assert prod == b.denominator


def test_parse_beta():
    quarter, three = parse_beta("1/4"), parse_beta("3")
    assert (quarter.numerator, quarter.denominator) == (1, 4)
    assert (three.numerator, three.denominator) == (3, 1)
    assert parse_beta("irrational") is IRRATIONAL
    with pytest.raises(InputError):
        parse_beta("x/y")
    with pytest.raises(InputError):
        parse_beta("1/0")


def test_isotropy_quarter():
    assert isotropy(canonicalize(1, 4)).generator == 2


def test_isotropy_half():
    assert isotropy(canonicalize(1, 2)).generator == 2


def test_isotropy_integer_beta():
    iso = isotropy(canonicalize(3, 1))
    assert iso.generator == 1
    assert iso.contains(17)


def test_isotropy_irrational():
    iso = isotropy(IRRATIONAL)
    assert iso.generator is None
    assert iso.contains(0) and not iso.contains(2)


@pytest.mark.parametrize("den", list(range(1, 400)))
def test_generator_is_least_square_multiple(den):
    # the defining property, against the direct scan
    assert isotropy(canonicalize(1, den)).generator == brute_n0(den)


@given(st.integers(1, 3000), st.integers(-50, 50))
@settings(max_examples=60)
def test_generator_square_divisible(den, num):
    beta = canonicalize(num if num else 1, den)
    n0 = isotropy(beta).generator
    assert (n0 * n0 * beta.numerator) % beta.denominator == 0


@given(st.integers(1, 500), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=60)
def test_subgroup_closed_under_addition(den, a, b):
    beta = canonicalize(1, den)
    n0 = isotropy(beta).generator
    k, l = a * n0, b * n0
    assert (Fraction(beta.numerator, beta.denominator) * (k + l) ** 2).denominator == 1


def test_isotropy_pure_function():
    beta = canonicalize(5, 12)
    assert isotropy(beta) == isotropy(beta)


def test_generator_table_matches_pointwise():
    table = isotropy_generator_table(3000)
    for d in range(1, 3001):
        assert table[d] == isotropy(canonicalize(1, d)).generator


def test_generator_table_rejects_empty_range():
    with pytest.raises(InputError, match="limit must be >= 1"):
        isotropy_generator_table(0)


def test_factorize_rejects_nonpositive():
    with pytest.raises(InputError):
        factorize(0)


def test_parse_beta_level_limit():
    assert parse_beta("1/100003").denominator == 100003
    assert parse_beta("1/1000003").denominator == 1000003
    assert parse_beta(f"1/{MAX_LEVEL}").denominator == MAX_LEVEL
    assert parse_beta(f"{MAX_LEVEL + 1}/{2 * MAX_LEVEL + 2}").denominator == 2
    for text in ("1/1000000000000000003", f"3/{MAX_LEVEL + 1}"):
        with pytest.raises(InputError, match="above the limit"):
            parse_beta(text)
