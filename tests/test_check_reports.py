"""Golden FAIL reports of the three invariance checkers.

Each case pins every line of CheckReport.lines(): the case count at the
failure, the witness word, the action's label and both values, in exact and
float mode, for failures found by the exhaustive pass and by the random pass.
"""

import tracemalloc
from fractions import Fraction

import pytest

from nctorus import (
    BlockProductState,
    CesaroState,
    IRRATIONAL,
    MixtureState,
    MomentSequence,
    ProductState,
    TRACE,
    canonicalize,
    check_gauge_invariant,
    check_spreadable,
    check_stationary,
    symmetry,
)

F = Fraction
BETA_HALF = canonicalize(1, 2)
WORDS = dict(max_factors=2, max_index=1, max_exponent=2)

MIXTURE = ("mixture(1/2*product(c_-4=1/6, c_-2=2/3, c_2=2/3, c_4=1/6)"
           " + 1/2*product(lebesgue))")
BLOCK = f"block(n=1, base={MIXTURE})"
WORD_BUDGET = "words: <=2 factors, |index|<=1, |exponent|<=2"
MAPS = "maps: <=2 generators with |pivot|<=2"


def mixture_base():
    return MixtureState((
        (F(1, 2), ProductState(MomentSequence({0: 1, 2: F(2, 3), 4: F(1, 6)}))),
        (F(1, 2), ProductState(MomentSequence.lebesgue())),
    ))


def mixture_block():
    return BlockProductState(1, mixture_base())


def cesaro_mixture():
    return CesaroState(1, mixture_base())


def off_isotropy():
    # moments at +-1 are off the isotropy subgroup 2Z of beta = 1/2
    return ProductState(MomentSequence({0: 1, 1: 0.5}, mode="float"))


def fail_lines(prop, state, budget, cases, trials, word, action, before, after):
    return [
        f"property: {prop}",
        f"state: {state}",
        f"budget: {WORD_BUDGET}; {budget}",
        f"exhaustive cases: {cases}",
        f"random trials: {trials}",
        "result: FAIL",
        f"witness word: {word}",
        f"action: {action}",
        f"value before: {before}",
        f"value after: {after}",
    ]


GOLDEN = [
    (
        check_spreadable, mixture_block, BETA_HALF, dict(trials=20),
        fail_lines("spreadable", BLOCK, f"{MAPS}; trials: 20", 977, 0,
                   "u[-1]^-2*u[0]^-2", "tau^-1", "2/9", "1/9"),
    ),
    (
        check_spreadable, mixture_block, BETA_HALF,
        dict(trials=50, seed=3, exhaustive=False),
        fail_lines("spreadable", BLOCK, f"{MAPS}; trials: 50", 0, 6,
                   "u[0]^-2*u[-1]^-2", "table[-1..0]->(-2,1)", "2/9", "1/9"),
    ),
    (
        check_spreadable, mixture_block, BETA_HALF, dict(trials=20, mode="float"),
        fail_lines("spreadable", BLOCK, f"{MAPS}; trials: 20", 977, 0,
                   "u[-1]^-2*u[0]^-2", "tau^-1",
                   "(0.2222222222222222+0j)", "(0.1111111111111111+0j)"),
    ),
    (
        check_spreadable, cesaro_mixture, BETA_HALF,
        dict(trials=200, seed=2, exhaustive=False, mode="float"),
        fail_lines("spreadable", f"cesaro(n=1, base={MIXTURE})",
                   f"{MAPS}; trials: 200", 0, 5,
                   "u[0]^-2*u[-1]^-2", "table[-1..0]->(-2,1)",
                   "(0.1851851851851852+0j)", "(0.1111111111111111+0j)"),
    ),
    (
        check_stationary, mixture_block, BETA_HALF, dict(trials=20),
        fail_lines("stationary", BLOCK, "shift power: 1; trials: 20", 22, 0,
                   "u[-1]^-2*u[1]^-2", "tau^1", "2/9", "1/9"),
    ),
    (
        check_stationary, mixture_block, BETA_HALF,
        dict(trials=50, seed=5, exhaustive=False),
        fail_lines("stationary", BLOCK, "shift power: 1; trials: 50", 0, 25,
                   "u[0]^-2*u[1]^2", "tau^1", "2/9", "1/9"),
    ),
    (
        check_stationary, mixture_block, BETA_HALF,
        dict(trials=50, seed=5, exhaustive=False, mode="float"),
        fail_lines("stationary", BLOCK, "shift power: 1; trials: 50", 0, 25,
                   "u[0]^-2*u[1]^2", "tau^1",
                   "(0.2222222222222222+0j)", "(0.1111111111111111+0j)"),
    ),
    (
        check_stationary, mixture_block, BETA_HALF,
        dict(trials=20, mode="float", power=2),
        fail_lines("stationary", BLOCK, "shift power: 2; trials: 20", 18, 0,
                   "u[-1]^-2*u[0]^-2", "tau^2",
                   "(0.2222222222222222+0j)", "(0.1111111111111111+0j)"),
    ),
    (
        check_gauge_invariant, off_isotropy, BETA_HALF, dict(trials=20, mode="float"),
        fail_lines("gauge-invariant", "product(c_-1=(0.5-0j), c_1=(0.5+0j))",
                   "all 2 annihilator angles; trials: 20", 6, 0,
                   "u[-1]^-1", "gauge angle 1/2",
                   "(0.5+0j)", "(-0.5+6.123233995736766e-17j)"),
    ),
    (
        check_gauge_invariant, off_isotropy, IRRATIONAL,
        dict(trials=50, seed=7, exhaustive=False, mode="float"),
        fail_lines("gauge-invariant", "product(c_-1=(0.5-0j), c_1=(0.5+0j))",
                   "angles j/8 sampling the whole circle; trials: 50", 0, 8,
                   "u[-1]", "gauge angle 1/2",
                   "(0.5+0j)", "(-0.5+6.123233995736766e-17j)"),
    ),
    (
        # an exhaustive failure on a stationary state: pins the case count
        # at which the checker meets the first index map that moves a value
        check_spreadable, cesaro_mixture, BETA_HALF, dict(trials=20),
        fail_lines("spreadable", f"cesaro(n=1, base={MIXTURE})",
                   f"{MAPS}; trials: 20", 973, 0,
                   "u[-1]^-2*u[0]^-2", "theta_0", "5/27", "4/27"),
    ),
]


def case_id(case):
    """checker-state-beta-options, which stays put when rows are added."""
    checker, make_state, beta, options = case[:4]
    opts = ",".join(f"{k}={v}" for k, v in options.items())
    return f"{checker.__name__}-{make_state.__name__}-{beta}-{opts}"


@pytest.mark.filterwarnings("ignore:moments supported outside")
@pytest.mark.parametrize("checker, make_state, beta, options, expected", GOLDEN,
                         ids=[case_id(case) for case in GOLDEN])
def test_fail_report_lines(checker, make_state, beta, options, expected):
    report = checker(make_state(), beta, **WORDS, **options)
    assert report.lines() == expected


def soft_product():
    return ProductState(MomentSequence({0: 1, 2: F(1, 2)}))


def lebesgue():
    return ProductState(MomentSequence.lebesgue())


def quarter_product():
    # a moment at 4 only: invariant under the 4 annihilator angles of beta = 3/8
    return ProductState(MomentSequence({0: 1, 4: F(1, 2)}))


PASSES = [
    (check_spreadable, soft_product, BETA_HALF, dict(trials=20)),
    (check_spreadable, soft_product, BETA_HALF, dict(trials=20, mode="float")),
    (check_stationary, mixture_block, BETA_HALF, dict(trials=20, power=3)),
    (check_stationary, cesaro_mixture, BETA_HALF, dict(trials=20, mode="float")),
    (check_gauge_invariant, mixture_base, BETA_HALF, dict(trials=20)),
    (check_gauge_invariant, lebesgue, IRRATIONAL,
     dict(trials=20, mode="float")),
    (check_gauge_invariant, quarter_product, canonicalize(3, 8), dict(trials=20)),
]


@pytest.mark.filterwarnings("ignore:moments supported outside")
@pytest.mark.parametrize("cap", [0, 3])
@pytest.mark.parametrize("checker, make_state, beta, options",
                         [case[:4] for case in GOLDEN] + PASSES,
                         ids=[case_id(case) for case in GOLDEN + PASSES])
def test_value_cache_cap_keeps_reports(monkeypatch, cap, checker, make_state, beta, options):
    symmetry._first_forms.cache_clear()
    cold = checker(make_state(), beta, **WORDS, **options)
    expected = cold.lines()
    # the same check again walks the first-form table the cold one kept
    assert checker(make_state(), beta, **WORDS, **options) == cold
    tables = symmetry._first_forms.cache_info()
    assert tables.hits == tables.currsize == options.get("exhaustive", True)
    monkeypatch.setattr(symmetry, "MAX_CACHED_VALUES", cap)
    assert checker(make_state(), beta, **WORDS, **options).lines() == expected
    # WORDS has 157 words, above the cap: they are walked without a table
    assert symmetry._first_forms.cache_info() == tables


def test_large_family_stays_in_bounded_memory(monkeypatch):
    # 4099 gauge angles against 3 words: every per-check table stops at the cap
    monkeypatch.setattr(symmetry, "MAX_CACHED_VALUES", 64)
    tracemalloc.start()
    try:
        report = check_gauge_invariant(TRACE, canonicalize(1, 4099), max_factors=1,
                                       max_index=0, max_exponent=1, trials=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.exhaustive_cases == 3 * 4099
    assert peak < 2**20


def test_streamed_words_stay_in_bounded_memory(monkeypatch):
    # the default budget's 8,421 words above a cap of 64: no table is kept,
    # and the words are walked as iter_normal_words yields them
    expected = check_stationary(soft_product(), BETA_HALF, trials=0)
    monkeypatch.setattr(symmetry, "MAX_CACHED_VALUES", 64)
    tables = symmetry._first_forms.cache_info()
    tracemalloc.start()
    try:
        report = check_stationary(soft_product(), BETA_HALF, trials=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == expected and report.exhaustive_cases == 8421
    assert symmetry._first_forms.cache_info() == tables
    assert peak < 2**19
