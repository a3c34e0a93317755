"""Increasing maps and invariance checker tests."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from nctorus import (
    BlockProductState,
    CesaroState,
    Composite,
    InputError,
    IRRATIONAL,
    MixtureState,
    MomentSequence,
    PartialShift,
    ProductState,
    Shift,
    TableMap,
    TRACE,
    TorusAlgebra,
    apply_gauge,
    apply_index_map,
    canonicalize,
    check_gauge_invariant,
    check_spreadable,
    check_stationary,
    evaluate,
    isotropy,
    random_increasing_map,
)
from nctorus import states, symmetry
from nctorus.algebra import normal_form, word_degree
from nctorus.expr import format_word
from nctorus.oracle import brute_cesaro_word, brute_normal_form, gram_psd
from nctorus.scalars import PhaseCoefficient
from nctorus.symmetry import (
    Counterexample,
    MAX_EXHAUSTIVE_CASES,
    MAX_TRIALS,
    _check_budget,
    _index_map_images,
    _index_map_move,
    _series,
    iter_normal_words,
    random_factor_word,
    spreading_map_grammar,
)

F = Fraction
BETA_HALF = canonicalize(1, 2)

SMALL = dict(trials=50, max_factors=2, max_index=1, max_exponent=1)


def trace():
    return TRACE


def soft_product():
    return ProductState(MomentSequence({0: 1, 2: F(1, 2)}))


def mixture_base():
    return MixtureState((
        (F(1, 2), ProductState(MomentSequence({0: 1, 2: F(2, 3), 4: F(1, 6)}))),
        (F(1, 2), ProductState(MomentSequence.lebesgue())),
    ))


class TestMaps:
    def test_partial_shift_values(self):
        theta0 = PartialShift(0)
        assert theta0(-3) == -3
        assert theta0(0) == 1
        assert theta0(5) == 6

    def test_shift_inverse(self):
        h = Composite((Shift(1), Shift(-1)))
        for k in range(-5, 6):
            assert h(k) == k

    def test_composite_order(self):
        # rightmost applies first: theta_0 after tau
        h = Composite((PartialShift(0), Shift(1)))
        assert h(-2) == -1
        assert h(-1) == 1  # tau: 0, theta_0: 1

    def test_table_map(self):
        t = TableMap(0, (2, 5, 6))
        assert t(0) == 2 and t(1) == 5 and t(2) == 6
        assert t(-1) == 1  # identity shifted by values[0] - lo
        assert t(4) == 8  # identity shifted by values[-1] - hi

    def test_table_map_validation(self):
        with pytest.raises(InputError):
            TableMap(0, (3, 3))
        with pytest.raises(InputError):
            TableMap(0, ())

    def test_identity_table_possible(self):
        t = TableMap(0, (0, 1, 2))
        for k in range(-3, 6):
            assert t(k) == k

    def test_random_map_deterministic(self):
        a = random_increasing_map(-2, 3, random.Random(42))
        b = random_increasing_map(-2, 3, random.Random(42))
        assert a == b
        for k in range(-6, 8):
            assert a(k) < a(k + 1)

    def test_random_map_empty_window(self):
        with pytest.raises(InputError):
            random_increasing_map(2, 1, random.Random(0))

    def test_grammar_sizes(self):
        maps = spreading_map_grammar()
        assert len(maps) == 1 + 7 + 49
        words = list(iter_normal_words(3, 2, 2))
        assert len(words) == 1 + 20 + 400 + 8000

    def test_grammar_maps_strictly_increasing(self):
        for h in spreading_map_grammar():
            for k in range(-6, 6):
                assert h(k) < h(k + 1)

    def test_map_action_composes(self):
        a = TorusAlgebra(BETA_HALF)
        g = PartialShift(1)
        h = Shift(2)
        x = a.word([(-1, 2), (0, 1), (3, -2)])
        lhs = apply_index_map(x, Composite((h, g)))
        rhs = apply_index_map(apply_index_map(x, g), h)
        assert lhs == rhs


class TestSpreadable:
    def test_trace_passes(self):
        report = check_spreadable(TRACE, BETA_HALF, **SMALL)
        assert report.passed
        assert report.exhaustive_cases > 0
        assert "trials" in report.budget

    def test_product_passes(self):
        report = check_spreadable(soft_product(), BETA_HALF, **SMALL)
        assert report.passed

    def test_block_product_fails_with_witness(self):
        state = BlockProductState(1, mixture_base())
        report = check_spreadable(state, BETA_HALF, trials=0)
        assert not report.passed
        assert report.counterexample is not None
        assert report.counterexample.before != report.counterexample.after

    def test_inadmissible_rejected(self):
        state = ProductState(MomentSequence({0: 1, 1: F(1, 2)}))
        with pytest.raises(InputError):
            check_spreadable(state, BETA_HALF, **SMALL)

    def test_deterministic_reports(self):
        r1 = check_spreadable(soft_product(), BETA_HALF, seed=9, **SMALL)
        r2 = check_spreadable(soft_product(), BETA_HALF, seed=9, **SMALL)
        assert r1 == r2


class TestStationary:
    def test_trace_passes(self):
        assert check_stationary(TRACE, BETA_HALF, **SMALL).passed

    def test_product_passes(self):
        assert check_stationary(soft_product(), BETA_HALF, **SMALL).passed

    def test_block_period(self):
        state = BlockProductState(1, mixture_base())
        bad = check_stationary(state, BETA_HALF, power=1, trials=0)
        assert not bad.passed
        good = check_stationary(state, BETA_HALF, power=3, trials=50)
        assert good.passed

    def test_power_zero_is_refused_before_any_work(self, monkeypatch):
        # tau^0 is the identity, so even the non-stationary block state would pass
        def refuse(*args, **kwargs):
            raise AssertionError("the check started")

        monkeypatch.setattr(symmetry, "_check", refuse)
        with pytest.raises(InputError, match="shift power must be nonzero"):
            check_stationary(BlockProductState(1, mixture_base()), BETA_HALF, power=0)

    def test_spreadable_budget_implies_stationary(self):
        # tau is itself an increasing map, so a state passing the exhaustive
        # spreadability grammar passes the stationarity grammar
        for state in (TRACE, soft_product()):
            s = check_spreadable(state, BETA_HALF, **SMALL)
            t = check_stationary(state, BETA_HALF, **SMALL)
            assert s.passed and t.passed


class TestGauge:
    def test_trace_passes(self):
        assert check_gauge_invariant(TRACE, BETA_HALF, **SMALL).passed

    def test_product_passes(self):
        assert check_gauge_invariant(soft_product(), BETA_HALF, **SMALL).passed

    def test_irrational_lebesgue_passes(self):
        from nctorus import IRRATIONAL

        state = ProductState(MomentSequence.lebesgue())
        report = check_gauge_invariant(state, IRRATIONAL, **SMALL)
        assert report.passed
        assert "whole circle" in report.budget

    def test_inadmissible_float_fails(self):
        state = ProductState(MomentSequence({0: 1, 1: 1.0}, mode="float"))
        with pytest.warns(UserWarning):
            report = check_gauge_invariant(
                state, BETA_HALF, mode="float", trials=20,
                max_factors=2, max_index=1, max_exponent=1,
            )
        assert not report.passed
        assert report.counterexample is not None

    def test_report_lines(self):
        report = check_gauge_invariant(TRACE, BETA_HALF, **SMALL)
        lines = report.lines()
        assert lines[0].startswith("property: gauge-invariant")
        assert lines[-1] == "result: PASS"

    def test_checker_shortcut_matches_element_gauge(self):
        # the checker scales phi(x) by the degree phase; that must agree
        # with evaluating the gauged element through the full machinery
        from nctorus import apply_gauge, evaluate
        from nctorus.scalars import PhaseCoefficient

        a = TorusAlgebra(BETA_HALF)
        state = soft_product()
        for factors in [(), ((0, 2),), ((0, 1), (1, 1)), ((-1, 2), (2, -2))]:
            x = a.word(factors)
            for angle in (F(1, 2), F(1, 3)):
                via_element = evaluate(state, apply_gauge(x, angle))
                deg = sum(e for _, e in factors)
                shortcut = evaluate(state, x) * PhaseCoefficient.unit_angle(
                    (angle * deg) % 1
                )
                assert via_element == shortcut


@pytest.mark.parametrize(
    "checker", [check_spreadable, check_stationary, check_gauge_invariant]
)
@pytest.mark.parametrize(
    "field", ["trials", "max_factors", "max_index", "max_exponent"]
)
def test_negative_budget_rejected(checker, field):
    budget = dict(SMALL, **{field: -5})
    with pytest.raises(InputError, match=f"{field} must be >= 0"):
        checker(TRACE, BETA_HALF, **budget)


def test_zero_budget_accepted():
    report = check_spreadable(
        TRACE, BETA_HALF, trials=0, max_factors=0, max_index=0, max_exponent=0,
    )
    assert report.passed
    assert report.random_trials == 0


def test_max_exponent_zero_draws_the_empty_word():
    assert random_factor_word(random.Random(3), 3, 2, 0) == ()
    report = check_spreadable(TRACE, BETA_HALF, trials=5, max_exponent=0)
    assert report.passed
    assert (report.exhaustive_cases, report.random_trials) == (57, 5)


def test_random_words_unchanged_for_nonzero_exponents():
    # the draws of the checkers' random pass, pinned
    assert random_factor_word(random.Random(0), 3, 2, 2) == ((-2, 1), (1, 2), (0, 1))
    assert random_factor_word(random.Random(7), 3, 2, 2) == ((1, -1), (-2, -2))
    assert random_factor_word(random.Random(12345), 4, 3, 1) == ((-3, 1), (-1, -1), (0, 1))


@lru_cache(maxsize=None)
def budget_words(max_factors, max_index, max_exponent):
    return {factors: (twist, nf)
            for factors, twist, nf in iter_normal_words(max_factors, max_index, max_exponent)}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
@example(0, 0, 2, 2)
@example(0, 3, 2, 0)
def test_random_words_are_exhaustive_words(seed, max_factors, max_index, max_exponent):
    # the premise of counting the gauge and shift trials after a passing
    # exhaustive pass: each drawn word is one of the pass's words, with the
    # normal form and twist the pass gave it
    words = budget_words(max_factors, max_index, max_exponent)
    factors = random_factor_word(random.Random(seed), max_factors, max_index, max_exponent)
    assert factors in words
    assert normal_form(factors) == words[factors]


def counted_draws(monkeypatch):
    """The words symmetry.random_factor_word draws, from now on."""
    drawn = []
    draw = symmetry.random_factor_word

    def counted(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(symmetry, "random_factor_word", counted)
    return drawn


@pytest.mark.parametrize("checker, make_state, exhaustive, drawn", [
    (check_gauge_invariant, trace, True, 0),
    (check_gauge_invariant, soft_product, True, 0),
    (check_stationary, soft_product, True, 0),
    (check_gauge_invariant, soft_product, False, 1000),
    (check_stationary, soft_product, False, 1000),
    (check_spreadable, soft_product, True, 1000),
    (check_spreadable, soft_product, False, 1000),
], ids=lambda v: getattr(v, "__name__", v))
def test_trials_drawn_only_outside_a_passing_exhaustive_pass(monkeypatch, checker, make_state,
                                                             exhaustive, drawn):
    # a gauge or shift trial draws a budget word and one of the family's
    # actions, a case a passing exhaustive pass has decided; spreadability
    # draws tables outside its 57 maps
    words = counted_draws(monkeypatch)
    report = checker(make_state(), BETA_HALF, exhaustive=exhaustive)
    assert report.passed and report.random_trials == 1000
    assert len(words) == drawn


def counted_comparisons(monkeypatch):
    """The (image, value) pairs of state values the exact field compares,
    from now on; validating a state compares QQi moments, left out here."""
    pairs = []

    def counted(a, b):
        if isinstance(a, PhaseCoefficient):
            pairs.append((a, b))
        return a == b

    monkeypatch.setattr(states.ExactField, "equal", staticmethod(counted))
    return pairs


def test_gauge_check_compares_no_image_of_a_zero_value(monkeypatch):
    # every rotation of zero is zero: the trace's u[0] and u[0]^-1 pass all
    # 1,048,573 angles with no image compared, the empty word through its
    # one class
    pairs = counted_comparisons(monkeypatch)
    report = check_gauge_invariant(TRACE, canonicalize(1, 1048573), max_factors=1,
                                   max_index=0, max_exponent=1, trials=0)
    assert report.lines() == [
        "property: gauge-invariant",
        "state: trace",
        "budget: words: <=1 factors, |index|<=0, |exponent|<=1; "
        "all 1048573 annihilator angles; trials: 0",
        "exhaustive cases: 3145719",
        "random trials: 0",
        "result: PASS",
    ]
    assert len(pairs) == 1
    # a nonzero value is still rotated: u[0]^2 under the angle 1/2
    pairs.clear()
    squares = ProductState(MomentSequence({0: 1, 2: F(1, 2)}))
    report = check_gauge_invariant(squares, BETA_HALF, max_factors=1, max_index=0,
                                   max_exponent=2, trials=0)
    assert report.passed and report.exhaustive_cases == 5 * 2
    # the empty word and u[0]^+-2 in their one class; u[0]^+-1 compare none
    assert len(pairs) == 3


@pytest.mark.parametrize("checker", [check_spreadable, check_stationary, check_gauge_invariant])
@pytest.mark.parametrize("budget", [
    dict(max_factors=2, max_index=1, max_exponent=1),
    dict(max_factors=3, max_index=0, max_exponent=2),
    dict(max_factors=0, max_index=5, max_exponent=5),
])
def test_exhaustive_count_closed_form(checker, budget):
    report = checker(TRACE, BETA_HALF, trials=0, **budget)
    singles = (2 * budget["max_index"] + 1) * 2 * budget["max_exponent"]
    words = sum(singles**j for j in range(budget["max_factors"] + 1))
    actions = {check_spreadable: 57, check_stationary: 1,
               check_gauge_invariant: isotropy(BETA_HALF).generator}[checker]
    assert report.exhaustive_cases == words * actions
    assert _series(singles, budget["max_factors"]) == words


@pytest.mark.parametrize("checker", [check_spreadable, check_stationary, check_gauge_invariant])
def test_oversized_exhaustive_budget_rejected(checker):
    with pytest.raises(InputError, match=f"more than {MAX_EXHAUSTIVE_CASES} cases"):
        checker(TRACE, BETA_HALF, trials=0, max_factors=9)
    with pytest.raises(InputError, match="exhaustive pass"):
        checker(TRACE, BETA_HALF, trials=0, max_factors=10**12, max_index=10**6)
    # the random pass alone has no such bound
    report = checker(TRACE, BETA_HALF, trials=3, max_factors=9, exhaustive=False)
    assert report.passed and report.exhaustive_cases == 0


def test_exhaustive_limit_between_budgets():
    # the CLI default is 8421 words times 57 maps; 6 factors of 20 singles pass the limit
    assert 8421 * 57 <= MAX_EXHAUSTIVE_CASES
    assert _series(20, 5) <= MAX_EXHAUSTIVE_CASES < _series(20, 6)
    assert _series(2, 10**9) > MAX_EXHAUSTIVE_CASES
    assert _series(0, 10**9) == 1


def test_normal_form_commutes_with_increasing_maps():
    # the checkers normal-order a word once and then move its normal form
    rng = random.Random(11)
    maps = spreading_map_grammar()
    maps += [Shift(k) for k in (-3, -2, 2, 3)]
    maps += [random_increasing_map(-2, 2, rng) for _ in range(20)]
    for factors, _, _ in iter_normal_words(2, 2, 2):
        twist, nf = normal_form(factors)
        assert word_degree(nf) == sum(e for _, e in factors)
        for h in maps:
            mapped = normal_form([(h(i), e) for i, e in factors])
            assert mapped == (twist, tuple((h(i), e) for i, e in nf)), (factors, h)


def test_index_map_move_evaluates_only_used_indices():
    calls = []

    def h(k):
        calls.append(k)
        return 2 * k

    def value(word):  # a moved word stands for its value
        return word

    assert _index_map_move(h, ((-10**9, 1), (3, -2)), "base", value) == ((-2 * 10**9, 1), (6, -2))
    assert _index_map_move(h, ((3, 1), (10**9, 2)), "base", value) == ((6, 1), (2 * 10**9, 2))
    assert calls == [-10**9, 3, 3, 10**9]
    # a word the map leaves in place keeps its base, with no evaluation
    assert _index_map_move(h, ((0, 1),), "base", None) == "base"


@pytest.mark.parametrize("maps", [spreading_map_grammar(), [Shift(-3)], [Shift(1)], [Shift(3)]],
                         ids=["grammar", "tau^-3", "tau", "tau^3"])
def test_index_map_images_match_every_move(maps):
    # slow-path reference: move by every map, keep the first of each image;
    # a word stands for its own value, so the moves are the images
    images = _index_map_images(maps)
    evaluated = []

    def value(word):
        evaluated.append(word)
        return word

    for nf in {nf for _, _, nf in iter_normal_words(3, 2, 2)}:
        first = {}
        for k, h in enumerate(maps):
            first.setdefault(_index_map_move(h, nf, nf, value), k)
        assert list(images(nf, nf, value)) == [(k, mapped) for mapped, k in first.items()], nf
        # images come lazily: the first evaluates at most one word
        evaluated.clear()
        next(images(nf, nf, value))
        assert len(evaluated) <= 1


def gauge_family(beta):
    """(actions, images, move) that an exact check_gauge_invariant at beta
    hands to the driver."""
    family = {}

    def capture(name, state, beta, note, actions, images, draw, move, label, **budget):
        family.update(actions=actions, images=images, move=move)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symmetry, "_check", capture)
        check_gauge_invariant(TRACE, beta)
    return family["actions"], family["images"], family["move"]


@pytest.mark.parametrize("beta", [BETA_HALF, canonicalize(3, 8), IRRATIONAL],
                         ids=["1/2", "3/8", "irrational"])
def test_gauge_images_match_every_move(beta):
    # slow-path reference: rotate the word's element by every angle j/n
    # (apply_gauge) and keep the first numerator of each distinct value
    actions, images, move = gauge_family(beta)
    n = isotropy(beta).generator or 8
    assert actions == range(n)
    algebra = TorusAlgebra(beta)

    def value(word):
        raise AssertionError("a gauge action evaluates no other word")

    zero, one = states.EXACT.zero, states.EXACT.one
    bases = [zero, one, PhaseCoefficient.from_rational(F(-3, 5)), PhaseCoefficient.unit_angle(F(1, 3))]
    for nf in {nf for _, _, nf in iter_normal_words(2, 1, 3)}:
        x = algebra.word(nf)
        for base in bases:
            moved = [base * apply_gauge(x, F(j, n)).coefficient(nf) for j in actions]
            assert [move(j, nf, base, value) for j in actions] == moved, (nf, base)
            expected = []
            for j, after in enumerate(moved):
                if all(after != a for _, a in expected):
                    expected.append((j, after))
            # every turn of zero is zero: a zero base lists no image
            assert list(images(nf, base, value)) == ([] if base == zero else expected), (nf, base)


def counted_values(monkeypatch, kind):
    """The words on which kind.value runs, from now on."""
    words = []
    value = kind.value

    def counted(self, word, values):
        words.append(word)
        return value(self, word, values)

    monkeypatch.setattr(kind, "value", counted)
    return words


def test_state_evaluated_once_per_normal_form(monkeypatch):
    words = counted_values(monkeypatch, ProductState)
    report = check_spreadable(soft_product(), BETA_HALF, trials=0)
    assert report.passed and report.exhaustive_cases == 8421 * 57
    # the exhaustive pass meets 4,813 normal forms, each evaluated once
    assert len(words) == len(set(words)) == 4813
    words.clear()
    report = check_spreadable(soft_product(), BETA_HALF)
    assert (report.exhaustive_cases, report.random_trials) == (8421 * 57, 1000)
    # a trial adds at most one
    assert len(words) == len(set(words)) <= 4813 + 1000


def test_block_base_evaluated_once_per_block(monkeypatch):
    # the check shares one memo across its words: the 1,181 normal forms
    # and their images split into 86 distinct blocks for the mixture base
    words = counted_values(monkeypatch, MixtureState)
    report = check_stationary(block_mixture(), BETA_HALF, power=3)
    assert report.passed
    assert (report.exhaustive_cases, report.random_trials) == (8421, 1000)
    assert len(words) == len(set(words)) == 86


def test_trials_limit():
    budget = dict(max_factors=3, max_index=2, max_exponent=2)
    _check_budget(1, True, trials=MAX_TRIALS, **budget)
    with pytest.raises(InputError, match=f"trials must be <= {MAX_TRIALS}"):
        _check_budget(1, True, trials=MAX_TRIALS + 1, **budget)
    with pytest.raises(InputError, match="trials must be <="):
        check_stationary(TRACE, BETA_HALF, trials=10**12, exhaustive=False)


def reference_words(max_factors, max_index, max_exponent):
    # shorter words first, each length in lexicographic order of its factors
    singles = [(i, e) for i in range(-max_index, max_index + 1)
               for e in range(-max_exponent, max_exponent + 1) if e != 0]
    words = [()]
    for length in range(1, max_factors + 1):
        words += itertools.product(singles, repeat=length)
    return words


@pytest.mark.parametrize("budget", [(3, 2, 2), (4, 1, 2), (2, 3, 3), (1, 2, 0), (0, 2, 2)])
def test_prefix_normal_forms_match_normal_form(budget):
    entries = list(iter_normal_words(*budget))
    assert [factors for factors, _, _ in entries] == reference_words(*budget)
    cancelled = 0
    for factors, twist, nf in entries:
        assert (twist, nf) == normal_form(factors) == brute_normal_form(factors), factors
        cancelled += len(nf) < len({i for i, _ in factors})
    if budget[0] >= 2 and budget[2]:
        assert cancelled  # words such as u_0 u_0^-1 lose an index


def counted_index_map_images(monkeypatch):
    """The word of each image an index-map family yields, from now on."""
    calls = []
    index_map_images = symmetry._index_map_images

    def counted(maps):
        images = index_map_images(maps)

        def counted_images(word, base, value):
            for found in images(word, base, value):
                calls.append(word)
                yield found
        return counted_images

    monkeypatch.setattr(symmetry, "_index_map_images", counted)
    return calls


def test_exhaustive_pass_applies_each_map_once_per_normal_form(monkeypatch):
    calls = counted_index_map_images(monkeypatch)
    report = check_spreadable(soft_product(), BETA_HALF, trials=0)
    assert report.passed
    assert report.exhaustive_cases == 8421 * 57
    # 1,181 distinct normal forms among the 8,421 words, each moved once per
    # class of maps with one restriction to its support: 13,581 of 1,181 x 57
    assert len(set(calls)) == 1181
    assert len(calls) == 13581


def naive_first_forms(budget, exact, keep="first"):
    """(position, (factors, twist, nf)) of one word per verdict key, in the
    order the keys first occur, through reference_words and normal_form."""
    kept = {}
    for position, factors in enumerate(reference_words(*budget)):
        twist, nf = normal_form(factors)
        key = nf if exact else (twist, nf)
        if keep == "last" or key not in kept:
            kept[key] = (position, (factors, twist, nf))
    return tuple(kept.values())


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("budget", [(3, 2, 2), (2, 1, 2), (4, 1, 1), (2, 3, 3), (3, 1, 2),
                                    (1, 2, 0), (0, 2, 2)])
def test_first_form_table_matches_naive_first_occurrences(budget, exact):
    table = symmetry._first_forms(*budget, exact)
    assert table == naive_first_forms(budget, exact)
    if len(table) < symmetry._word_count(*budget):
        # some key repeats, so a table that kept its last word would differ
        assert table != naive_first_forms(budget, exact, keep="last")


def test_second_check_walks_the_kept_table(monkeypatch):
    calls, walks = counted_index_map_images(monkeypatch), []
    iter_words = symmetry.iter_normal_words

    def counted_walk(*budget):
        walks.append(budget)
        return iter_words(*budget)

    monkeypatch.setattr(symmetry, "iter_normal_words", counted_walk)
    symmetry._first_forms.cache_clear()
    first = check_spreadable(soft_product(), BETA_HALF, trials=0)
    assert walks == [(3, 2, 2)]
    calls.clear()
    second = check_spreadable(soft_product(), BETA_HALF, trials=0)
    assert walks == [(3, 2, 2)]  # no second enumeration
    assert second == first and second.exhaustive_cases == 8421 * 57
    # still one move per class of maps for each of the 1,181 normal forms
    assert len(set(calls)) == 1181
    assert len(calls) == 13581
    info = symmetry._first_forms.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 1)


@pytest.mark.filterwarnings("ignore:moments supported outside")
def test_gauge_check_builds_one_rotation_per_angle(monkeypatch):
    angles = []
    unit_angle = PhaseCoefficient.unit_angle.__func__

    def counted(cls, q):
        angles.append(q)
        return unit_angle(cls, q)

    monkeypatch.setattr(PhaseCoefficient, "unit_angle", classmethod(counted))
    # irrational beta: the twists are symbolic units and not angles; the
    # trace is zero off degree 0, and a zero value is not rotated
    report = check_gauge_invariant(TRACE, IRRATIONAL, trials=1000)
    assert report.passed
    assert report.exhaustive_cases == 8421 * 8
    assert angles == []
    # float moments at +-2 within the tolerance of zero: the words u[i]^+-2
    # are rotated, through one rotation per angle.  One-factor words carry
    # no twist, which float mode could not evaluate at irrational beta
    tiny = ProductState(MomentSequence({0: 1, 2: 1e-12}, mode="float"))
    report = check_gauge_invariant(tiny, IRRATIONAL, mode="float", max_factors=1)
    assert report.passed
    assert report.exhaustive_cases == 21 * 8
    assert sorted(angles) == [F(1, 4), F(1, 2), F(3, 4)]


def reference_report(checker, state, beta, budget, *, mode="exact", power=1,
                     trials=0, seed=0, exhaustive=True):
    """(passed, cases, trials, counterexample) of a naive case-by-case pass.

    Every word of reference_words(*budget) against every action, then every
    random trial, drawn as the checkers draw it (a word, then one of the
    actions, from seed xor t), on elements, evaluated through
    states.evaluate: no verdict tables, no classes of actions, no shared
    values and no trial left out.  Spreadability's trials draw tables, so
    its rows run none.
    """
    if checker == "spreadable":
        actions, act_on, label = spreading_map_grammar(), apply_index_map, lambda h: h.describe()
        assert not trials
    elif checker == "stationary":
        actions, act_on, label = [Shift(power)], apply_index_map, lambda h: f"tau^{power}"
    else:
        n = isotropy(beta).generator or 8
        actions, act_on, label = [F(j, n) for j in range(n)], apply_gauge, "gauge angle {}".format
    moved = ((lambda a, b: a != b) if mode == "exact"
             else (lambda a, b: abs(a - b) > states.FLOAT_TOLERANCE))
    algebra = TorusAlgebra(beta)

    def witness(factors, action):
        x = algebra.word(factors)
        before = evaluate(state, x, mode=mode)
        after = evaluate(state, act_on(x, action), mode=mode)
        if moved(after, before):
            return Counterexample(format_word(factors) or "1", label(action),
                                  str(before), str(after))
        return None

    cases = 0
    for factors in reference_words(*budget) if exhaustive else ():
        for action in actions:
            cases += 1
            cx = witness(factors, action)
            if cx:
                return False, cases, 0, cx
    for t in range(trials):
        rng = random.Random(seed ^ t)
        factors = random_factor_word(rng, *budget)
        cx = witness(factors, actions[rng.randrange(len(actions))])
        if cx:
            return False, cases, t + 1, cx
    return True, cases, trials, None


CHECKERS = {"spreadable": check_spreadable, "stationary": check_stationary,
            "gauge": check_gauge_invariant}


def checker_report(checker, state, beta, budget, *, mode="exact", power=1, trials=0,
                   **random_pass):
    max_factors, max_index, max_exponent = budget
    options = dict(power=power) if checker == "stationary" else {}
    report = CHECKERS[checker](state, beta, max_factors=max_factors, max_index=max_index,
                               max_exponent=max_exponent, trials=trials, mode=mode,
                               **random_pass, **options)
    return report.passed, report.exhaustive_cases, report.random_trials, report.counterexample


def block_mixture():
    return BlockProductState(1, mixture_base())


def cesaro_mixture():
    return CesaroState(1, mixture_base())


def off_isotropy():
    # float moments at +-1, off the isotropy subgroup 2Z of beta = 1/2
    return ProductState(MomentSequence({0: 1, 1: 0.5}, mode="float"))


def block_off_isotropy():
    # u[-2]^-1*u[-1]^-1 straddles two blocks and has value 0; its shift
    # lies in one block, of value 1/4
    return BlockProductState(1, off_isotropy())


@pytest.mark.parametrize("make_state, beta", [
    (soft_product, BETA_HALF), (block_mixture, BETA_HALF), (mixture_base, BETA_HALF),
    (lambda: ProductState(MomentSequence({0: 1, 4: F(1, 2)})), canonicalize(3, 8)),
    (lambda: TRACE, IRRATIONAL),
])
@pytest.mark.parametrize("checker", ["spreadable", "stationary", "gauge"])
def test_verdicts_match_case_by_case_reference(make_state, beta, checker):
    state, budget = make_state(), (2, 1, 2)
    assert (checker_report(checker, state, beta, budget)
            == reference_report(checker, state, beta, budget))


def quarter_product():
    return ProductState(MomentSequence({0: 1, 4: F(1, 2)}))


# (checker, state, beta, budget, mode, shift power, passes[, random pass])
REFERENCE_CASES = [
    ("spreadable", soft_product, BETA_HALF, (2, 1, 2), "float", 1, True),
    ("spreadable", soft_product, BETA_HALF, (3, 1, 1), "exact", 1, True),
    ("spreadable", mixture_base, BETA_HALF, (1, 2, 2), "float", 1, True),
    ("spreadable", trace, IRRATIONAL, (2, 2, 1), "float", 1, True),
    ("spreadable", cesaro_mixture, BETA_HALF, (3, 1, 1), "exact", 1, True),
    ("stationary", cesaro_mixture, BETA_HALF, (2, 2, 2), "float", 1, True),
    ("stationary", block_mixture, BETA_HALF, (2, 2, 2), "exact", 3, True),
    ("stationary", block_mixture, BETA_HALF, (3, 1, 1), "exact", 1, True),
    ("gauge", mixture_base, BETA_HALF, (3, 1, 1), "float", 1, True),
    ("gauge", quarter_product, canonicalize(3, 8), (2, 1, 3), "exact", 1, True),
    ("gauge", block_mixture, BETA_HALF, (2, 1, 2), "float", 1, True),
    ("gauge", trace, IRRATIONAL, (1, 1, 3), "exact", 1, True),
    # block states under shift power 1 (and 2)
    ("stationary", block_mixture, BETA_HALF, (2, 1, 2), "float", 1, False),
    ("stationary", block_mixture, BETA_HALF, (2, 2, 2), "exact", 1, False),
    ("stationary", block_mixture, BETA_HALF, (2, 2, 2), "float", 2, False),
    # states that are not spreadable
    ("spreadable", block_mixture, BETA_HALF, (2, 1, 2), "float", 1, False),
    ("spreadable", block_mixture, BETA_HALF, (2, 2, 2), "exact", 1, False),
    ("spreadable", cesaro_mixture, BETA_HALF, (2, 1, 2), "exact", 1, False),
    ("spreadable", cesaro_mixture, BETA_HALF, (2, 1, 2), "float", 1, False),
    # an inadmissible float product under the gauge action
    ("gauge", off_isotropy, BETA_HALF, (2, 1, 2), "float", 1, False),
    ("gauge", off_isotropy, BETA_HALF, (2, 2, 1), "float", 1, False),
    ("gauge", off_isotropy, IRRATIONAL, (1, 1, 2), "float", 1, False),
    # the first failing word has value 0: index maps move a zero value
    ("stationary", block_off_isotropy, BETA_HALF, (2, 2, 1), "float", 1, False),
    ("spreadable", block_off_isotropy, BETA_HALF, (2, 2, 1), "float", 1, False),
    # a passing exhaustive pass, then trials the reference draws one by one
    # (twisted words in float mode at 1/2 and 3/8)
    ("gauge", mixture_base, BETA_HALF, (2, 1, 2), "float", 1, True, dict(trials=300, seed=4)),
    ("gauge", quarter_product, canonicalize(3, 8), (2, 1, 3), "float", 1, True,
     dict(trials=300, seed=5)),
    ("gauge", quarter_product, canonicalize(3, 8), (2, 1, 3), "exact", 1, True,
     dict(trials=200, seed=6)),
    ("gauge", block_mixture, BETA_HALF, (3, 1, 1), "exact", 1, True, dict(trials=200)),
    ("gauge", trace, IRRATIONAL, (1, 1, 3), "exact", 1, True, dict(trials=100, seed=8)),
    ("stationary", cesaro_mixture, BETA_HALF, (2, 1, 2), "float", 1, True,
     dict(trials=300, seed=9)),
    ("stationary", quarter_product, canonicalize(3, 8), (2, 1, 3), "float", 1, True,
     dict(trials=300, seed=10)),
    ("stationary", block_mixture, BETA_HALF, (2, 2, 2), "exact", 3, True, dict(trials=300)),
    ("stationary", block_mixture, BETA_HALF, (3, 1, 1), "float", 3, True,
     dict(trials=200, seed=11)),
    # no exhaustive pass: every trial is drawn, and some fail
    ("gauge", quarter_product, canonicalize(3, 8), (2, 1, 3), "float", 1, True,
     dict(trials=200, seed=12, exhaustive=False)),
    ("stationary", soft_product, BETA_HALF, (2, 1, 2), "exact", 2, True,
     dict(trials=200, seed=13, exhaustive=False)),
    ("gauge", off_isotropy, BETA_HALF, (2, 1, 2), "float", 1, False,
     dict(trials=50, seed=7, exhaustive=False)),
    ("gauge", off_isotropy, IRRATIONAL, (1, 1, 2), "float", 1, False,
     dict(trials=50, seed=7, exhaustive=False)),
    ("stationary", block_mixture, BETA_HALF, (2, 1, 2), "exact", 1, False,
     dict(trials=50, seed=5, exhaustive=False)),
    ("stationary", block_mixture, BETA_HALF, (2, 1, 2), "float", 1, False,
     dict(trials=50, seed=5, exhaustive=False)),
    ("stationary", block_mixture, BETA_HALF, (2, 2, 2), "float", 2, False,
     dict(trials=50, seed=3, exhaustive=False)),
]
REFERENCE_CASES = [case if len(case) == 8 else (*case, {}) for case in REFERENCE_CASES]


def reference_case_id(case):
    checker, make_state, beta, budget, mode, power, _, random_pass = case
    opts = "".join(f"-{k}={v}" for k, v in random_pass.items())
    return f"{checker}^{power}-{make_state.__name__}-{beta}-{budget}-{mode}{opts}"


@pytest.mark.filterwarnings("ignore:moments supported outside")
@pytest.mark.parametrize("checker, make_state, beta, budget, mode, power, passes, random_pass",
                         REFERENCE_CASES, ids=map(reference_case_id, REFERENCE_CASES))
def test_reports_match_case_by_case_reference(checker, make_state, beta, budget, mode,
                                              power, passes, random_pass):
    state = make_state()
    expected = reference_report(checker, state, beta, budget, mode=mode, power=power,
                                **random_pass)
    assert expected[0] is passes
    if not passes and random_pass.get("exhaustive") is False:
        assert expected[2] > 0  # the failure is found in the random pass
    assert checker_report(checker, state, beta, budget, mode=mode, power=power,
                          **random_pass) == expected


@pytest.mark.filterwarnings("ignore:moments supported outside")
@pytest.mark.parametrize("checker, make_state, beta, budget, mode, power, passes, random_pass",
                         REFERENCE_CASES, ids=map(reference_case_id, REFERENCE_CASES))
def test_cold_and_warm_tables_give_one_report(checker, make_state, beta, budget, mode,
                                              power, passes, random_pass):
    # whole CheckReports, from a cleared module table and then from the kept one
    max_factors, max_index, max_exponent = budget
    options = {"trials": 0, **random_pass}
    if checker == "stationary":
        options["power"] = power

    def report():
        return CHECKERS[checker](make_state(), beta, max_factors=max_factors,
                                 max_index=max_index, max_exponent=max_exponent,
                                 mode=mode, **options)

    symmetry._first_forms.cache_clear()
    cold = report()
    kept = symmetry._first_forms.cache_info().currsize
    assert kept == random_pass.get("exhaustive", True)
    assert report() == cold
    info = symmetry._first_forms.cache_info()
    assert (info.hits, info.misses, info.currsize) == (kept, kept, kept)


def test_random_pass_window_limit():
    window = dict(trials=1, max_factors=2, max_exponent=1, exhaustive=False)
    with pytest.raises(InputError, match="the random pass would draw tables"):
        check_spreadable(TRACE, BETA_HALF, max_index=MAX_EXHAUSTIVE_CASES // 2, **window)
    # one factor, no trial or no nonzero exponent: no window is drawn
    for change in (dict(max_factors=1), dict(trials=0), dict(max_exponent=0)):
        report = check_spreadable(TRACE, BETA_HALF, max_index=MAX_EXHAUSTIVE_CASES,
                                  **dict(window, **change))
        assert report.passed


@pytest.mark.parametrize("mode", ["Exact", "exakt", "FLOAT", ""])
def test_unknown_mode_is_rejected(mode, tmp_path):
    # a mode other than "exact" or "float" is an input error, not float arithmetic
    beta = canonicalize(1, 2)
    algebra = TorusAlgebra(beta)
    product = ProductState(MomentSequence({2: Fraction(1, 2)}))
    cesaro = CesaroState(1, product)
    path = tmp_path / "trace.json"
    path.write_text('{"kind": "trace"}')
    calls = [
        lambda: evaluate(cesaro, algebra.u(0), mode=mode),
        lambda: states.evaluate_word(cesaro, ((0, 2),), algebra, mode=mode),
        lambda: states.clustering_gap(cesaro, algebra.u(0), algebra.u(0), 1, mode=mode),
        lambda: states.validate_state(cesaro, beta, mode=mode),
        lambda: states.state_from_json({"kind": "trace"}, mode=mode),
        lambda: states.load_state(path, mode=mode),
        lambda: MomentSequence({2: Fraction(1, 2)}, mode=mode),
        lambda: check_spreadable(cesaro, beta, trials=1, exhaustive=False, mode=mode),
        lambda: check_stationary(BlockProductState(1, product), beta, power=1, trials=0,
                                 mode=mode),
        lambda: check_gauge_invariant(cesaro, beta, trials=1, exhaustive=False, mode=mode),
        lambda: gram_psd(cesaro, [algebra.u(0), algebra.one()], mode=mode),
        lambda: brute_cesaro_word(cesaro, ((0, 2),), algebra, mode=mode),
    ]
    for call in calls:
        with pytest.raises(InputError, match="unknown mode"):
            call()


def test_random_pass_steps_limit(monkeypatch):
    # the limit is checked before a single factor is drawn
    from nctorus.symmetry import MAX_RANDOM_STEPS

    def refuse(*args):
        raise AssertionError("the random pass started")

    monkeypatch.setattr(symmetry, "random_factor_word", refuse)
    budget = dict(max_index=2, max_exponent=2)
    _check_budget(1, False, trials=MAX_TRIALS, max_factors=3, **budget)  # the CLI words
    _check_budget(1, False, trials=1, max_factors=10**4, **budget)
    with pytest.raises(InputError, match=f"more than {MAX_RANDOM_STEPS}; lower trials"):
        _check_budget(1, False, trials=1, max_factors=10**4 + 1, **budget)
    with pytest.raises(InputError, match="the random pass would take"):
        _check_budget(1, True, trials=2, max_factors=7072, **budget)
    for checker in (check_spreadable, check_stationary, check_gauge_invariant):
        with pytest.raises(InputError, match="the random pass would take"):
            checker(TRACE, BETA_HALF, trials=50, max_factors=10**8, exhaustive=False)
    # no nonzero exponent or no trial: nothing is drawn
    _check_budget(1, False, trials=50, max_factors=10**8, max_index=2, max_exponent=0)
    _check_budget(1, False, trials=0, max_factors=10**8, **budget)


def test_witness_action_labels():
    # the spreadable witness's action line
    assert Composite((PartialShift(0), Shift(1))).describe() == "theta_0 o tau"
    assert Composite(()).describe() == "id"
    assert Shift(1).describe() == "tau"
