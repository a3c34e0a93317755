"""Strictly increasing index maps and budgeted invariance checkers.

Invariance of a state under every index spreading is universally quantified,
so a checker can only sample.  The checkers here verify the property exactly
on a declared finite grammar (all short factor words against all short
compositions of partial shifts and the shift) plus randomized trials, and a
pass is always reported together with its budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .algebra import TorusAlgebra, normal_form
from .deformation import DeformationParameter, InputError, isotropy
from .expr import format_word
from .scalars import PhaseCoefficient
from .states import EXACT, FloatField, StateSpec, describe_state, validate_state


class IncreasingMap:
    """A strictly increasing map from the integers to the integers."""

    __slots__ = ()

    def __call__(self, k: int) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Shift(IncreasingMap):
    """k -> k + amount."""

    amount: int = 1

    def __call__(self, k: int) -> int:
        return k + self.amount

    def describe(self) -> str:
        if self.amount == 0:
            return "id"
        if self.amount == 1:
            return "tau"
        return f"tau^{self.amount}"


@dataclass(frozen=True)
class PartialShift(IncreasingMap):
    """Right-hand-side partial shift: k below the pivot stays, the rest bumps."""

    pivot: int = 0

    def __call__(self, k: int) -> int:
        return k if k < self.pivot else k + 1

    def describe(self) -> str:
        return f"theta_{self.pivot}"


@dataclass(frozen=True)
class Composite(IncreasingMap):
    """Composition, rightmost map applied first."""

    parts: tuple[IncreasingMap, ...]

    def __call__(self, k: int) -> int:
        for part in reversed(self.parts):
            k = part(k)
        return k

    def describe(self) -> str:
        if not self.parts:
            return "id"
        return " o ".join(p.describe() for p in self.parts)


IDENTITY = Shift(0)


@dataclass(frozen=True)
class TableMap(IncreasingMap):
    """Explicit strictly increasing values on a window, shifted identity outside."""

    lo: int
    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise InputError("a table map needs a nonempty window")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise InputError("table values must increase strictly")

    def __call__(self, k: int) -> int:
        hi = self.lo + len(self.values) - 1
        if k < self.lo:
            return k + (self.values[0] - self.lo)
        if k > hi:
            return k + (self.values[-1] - hi)
        return self.values[k - self.lo]

    def describe(self) -> str:
        hi = self.lo + len(self.values) - 1
        vals = ",".join(str(v) for v in self.values)
        return f"table[{self.lo}..{hi}]->({vals})"


def compose(*maps: IncreasingMap) -> IncreasingMap:
    if not maps:
        return IDENTITY
    if len(maps) == 1:
        return maps[0]
    return Composite(tuple(maps))


def random_increasing_map(lo: int, hi: int, rng: random.Random) -> TableMap:
    """A random strictly increasing table on [lo, hi]; gaps are allowed.

    Deterministic under a fixed generator state; the identity is among the
    possible outputs.
    """
    if lo > hi:
        raise InputError("window is empty")
    cur = lo + rng.randint(-2, 2)
    values = []
    for _ in range(lo, hi + 1):
        values.append(cur)
        cur += rng.randint(1, 3)
    return TableMap(lo, tuple(values))


def spreading_map_grammar(max_pivot: int = 2, max_compose: int = 2) -> list[IncreasingMap]:
    """Identity plus all compositions of <= max_compose generator maps.

    The generators are the partial shifts with |pivot| <= max_pivot together
    with the shift and its inverse.
    """
    gens: list[IncreasingMap] = [
        PartialShift(l) for l in range(-max_pivot, max_pivot + 1)
    ]
    gens += [Shift(1), Shift(-1)]
    out: list[IncreasingMap] = [IDENTITY]
    layer: list[tuple[IncreasingMap, ...]] = [()]
    for _ in range(max_compose):
        nxt = []
        for prefix in layer:
            for g in gens:
                chain = prefix + (g,)
                out.append(compose(*chain))
                nxt.append(chain)
        layer = nxt
    return out


def iter_factor_words(max_factors: int, max_index: int,
                      max_exponent: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All factor sequences within the budget, the empty word included."""
    singles = [
        (i, e)
        for i in range(-max_index, max_index + 1)
        for e in range(-max_exponent, max_exponent + 1)
        if e != 0
    ]
    yield ()
    layer: list[tuple[tuple[int, int], ...]] = [()]
    for _ in range(max_factors):
        nxt = []
        for w in layer:
            for f in singles:
                w2 = w + (f,)
                yield w2
                nxt.append(w2)
        layer = nxt


def random_factor_word(rng: random.Random, max_factors: int, max_index: int,
                       max_exponent: int) -> tuple[tuple[int, int], ...]:
    if max_exponent == 0:  # no nonzero exponent: the empty word is the only word
        return ()
    length = rng.randint(0, max_factors)
    word = []
    for _ in range(length):
        e = 0
        while e == 0:
            e = rng.randint(-max_exponent, max_exponent)
        word.append((rng.randint(-max_index, max_index), e))
    return tuple(word)


@dataclass(frozen=True)
class Counterexample:
    word: str
    action: str
    before: str
    after: str


@dataclass(frozen=True)
class CheckReport:
    property_name: str
    state: str
    passed: bool
    exhaustive_cases: int
    random_trials: int
    counterexample: Counterexample | None
    budget: str

    def lines(self) -> list[str]:
        out = [
            f"property: {self.property_name}",
            f"state: {self.state}",
            f"budget: {self.budget}",
            f"exhaustive cases: {self.exhaustive_cases}",
            f"random trials: {self.random_trials}",
        ]
        if self.passed:
            out.append("result: PASS")
        else:
            out.append("result: FAIL")
            cx = self.counterexample
            out += [
                f"witness word: {cx.word}",
                f"action: {cx.action}",
                f"value before: {cx.before}",
                f"value after: {cx.after}",
            ]
        return out


# Largest exhaustive pass, in (word, action) cases; the CLI default budget
# is 8421 words times 57 maps.
MAX_EXHAUSTIVE_CASES = 10**7


def _series(base: int, top: int) -> int:
    """1 + base + ... + base**top, exact while it stays near MAX_EXHAUSTIVE_CASES.

    For base >= 2 the terms past base**64 are left out: the sum is then far
    above the limit anyway.
    """
    if top < 0:
        return 0
    if base < 2:
        return 1 + base * top
    top = min(top, 64)
    return (base ** (top + 1) - 1) // (base - 1)


def _check_budget(actions: int, exhaustive: bool, **fields: int) -> None:
    """Reject negative budgets and an exhaustive pass above MAX_EXHAUSTIVE_CASES.

    The pass runs every word of <= max_factors factors, each from the
    (2*max_index + 1) * 2*max_exponent singles, against each of the actions.
    """
    for name, value in fields.items():
        if value < 0:
            raise InputError(f"{name} must be >= 0, got {value}")
    if fields.get("angle_samples") == 0:  # the random pass draws from the samples
        raise InputError("angle_samples must be >= 1, got 0")
    singles = (2 * fields["max_index"] + 1) * 2 * fields["max_exponent"]
    if exhaustive and _series(singles, fields["max_factors"]) * actions > MAX_EXHAUSTIVE_CASES:
        raise InputError(
            f"the exhaustive pass would run more than {MAX_EXHAUSTIVE_CASES} cases; "
            "lower max_factors, max_index or max_exponent, or skip it"
        )


def _word_value(state, factors, algebra, field):
    twist, nf = normal_form(factors)
    v = field.word_value(state, nf, algebra)
    if twist and not field.is_zero(v):
        v = v * field.coefficient(algebra.twist_phase(twist))
    return v


def _check(name, state, beta, actions_note, action_count, actions, draw, act, label, *,
           trials, seed, max_factors, max_index, max_exponent, exhaustive,
           mode, beta_value, **limits) -> CheckReport:
    """Compare phi(alpha(x)) with phi(x) over one family of actions alpha.

    act(action, factors) gives (angle, mapped factors): alpha sends the word
    to e(angle) times the mapped word.  Exhaustive pass: every factor word
    within the word budget against every action of actions(), a list of
    action_count actions.  Randomized pass: trial t draws a word and then
    draw(rng, word) from seed xor t.  Pairs that an action leaves unchanged
    count as cases but are not evaluated again.
    """
    _check_budget(action_count, exhaustive, trials=trials, max_factors=max_factors,
                  max_index=max_index, max_exponent=max_exponent, **limits)
    validate_state(state, beta, float_mode=(mode == "float"))
    algebra = TorusAlgebra(beta)
    field = EXACT if mode == "exact" else FloatField(beta_value)
    budget = (
        f"words: <={max_factors} factors, |index|<={max_index}, "
        f"|exponent|<={max_exponent}; {actions_note}; trials: {trials}"
    )

    def image(factors, base, action):
        angle, mapped = act(action, factors)
        after = base if mapped == factors else _word_value(state, mapped, algebra, field)
        if angle:
            after = after * field.coefficient(PhaseCoefficient.unit_angle(angle))
        return after

    def failed(cases, done, factors, action, before, after):
        cx = Counterexample(format_word(factors) or "1", label(action),
                            str(before), str(after))
        return CheckReport(name, describe_state(state), False, cases, done, cx, budget)

    cases = 0
    if exhaustive:
        family = actions()
        for factors in iter_factor_words(max_factors, max_index, max_exponent):
            base = _word_value(state, factors, algebra, field)
            for action in family:
                cases += 1
                after = image(factors, base, action)
                if not field.equal(after, base):
                    return failed(cases, 0, factors, action, base, after)
    for t in range(trials):
        rng = random.Random(seed ^ t)
        factors = random_factor_word(rng, max_factors, max_index, max_exponent)
        action = draw(rng, factors)
        base = _word_value(state, factors, algebra, field)
        after = image(factors, base, action)
        if not field.equal(after, base):
            return failed(cases, t + 1, factors, action, base, after)
    return CheckReport(name, describe_state(state), True, cases, trials, None, budget)


def _index_map_image(h, factors):
    return 0, tuple((h(i), e) for i, e in factors)


def check_spreadable(state: StateSpec, beta: DeformationParameter, *,
                     trials: int = 1000, seed: int = 0, max_factors: int = 3,
                     max_index: int = 2, max_exponent: int = 2,
                     max_pivot: int = 2, max_compose: int = 2,
                     exhaustive: bool = True, mode: str = "exact",
                     beta_value=None) -> CheckReport:
    """Compare phi(alpha_h(x)) with phi(x) over the declared budget.

    Exhaustive part: every factor word within the word budget against every
    composition of at most max_compose generator maps.  Randomized part:
    trials pairs of a random word and a random increasing table over its
    support window; trial i draws from seed xor i.
    """
    def draw(rng, factors):
        support = [i for i, _ in factors]
        lo, hi = min(support, default=0), max(support, default=0)
        return random_increasing_map(lo, hi, rng)

    return _check(
        "spreadable", state, beta,
        f"maps: <={max_compose} generators with |pivot|<={max_pivot}",
        _series(2 * max_pivot + 3, max_compose),
        lambda: spreading_map_grammar(max_pivot, max_compose), draw,
        _index_map_image, lambda h: h.describe(),
        trials=trials, seed=seed, max_factors=max_factors, max_index=max_index,
        max_exponent=max_exponent, exhaustive=exhaustive, mode=mode,
        beta_value=beta_value, max_pivot=max_pivot, max_compose=max_compose,
    )


def check_stationary(state: StateSpec, beta: DeformationParameter, *,
                     power: int = 1, trials: int = 1000, seed: int = 0,
                     max_factors: int = 3, max_index: int = 2,
                     max_exponent: int = 2, exhaustive: bool = True,
                     mode: str = "exact", beta_value=None) -> CheckReport:
    """Compare phi(tau^power(x)) with phi(x) over the declared budget."""
    shift = Shift(power)
    return _check(
        "stationary", state, beta, f"shift power: {power}", 1,
        lambda: [shift], lambda rng, factors: shift,
        _index_map_image, lambda h: f"tau^{power}",
        trials=trials, seed=seed, max_factors=max_factors, max_index=max_index,
        max_exponent=max_exponent, exhaustive=exhaustive, mode=mode,
        beta_value=beta_value,
    )


def check_gauge_invariant(state: StateSpec, beta: DeformationParameter, *,
                          trials: int = 1000, seed: int = 0,
                          max_factors: int = 3, max_index: int = 2,
                          max_exponent: int = 2, angle_samples: int = 8,
                          exhaustive: bool = True, mode: str = "exact",
                          beta_value=None) -> CheckReport:
    """Compare phi(gauge_z(x)) with phi(x) for annihilator angles z.

    Rational beta: all angles j/n of the finite annihilator.  Irrational
    beta: the annihilator is the whole circle, so rational angles
    j/angle_samples stand in for it.
    """
    iso = isotropy(beta)
    if iso.generator is not None:
        count = iso.generator
        angle_note = f"all {count} annihilator angles"
    else:
        count = angle_samples
        angle_note = f"angles j/{count} sampling the whole circle"
    return _check(
        "gauge-invariant", state, beta, angle_note, count,
        lambda: [Fraction(j, count) for j in range(count)],
        lambda rng, factors: Fraction(rng.randrange(count), count),
        lambda z, factors: ((z * sum(e for _, e in factors)) % 1, factors),
        lambda z: f"gauge angle {z}",
        trials=trials, seed=seed, max_factors=max_factors, max_index=max_index,
        max_exponent=max_exponent, exhaustive=exhaustive, mode=mode,
        beta_value=beta_value, angle_samples=angle_samples,
    )
