"""Strictly increasing index maps and budgeted invariance checkers.

Invariance of a state under every index spreading is universally quantified,
so a checker can only sample.  The checkers here verify the property exactly
on a declared finite grammar (all short factor words against all short
compositions of partial shifts and the shift) plus randomized trials, and a
pass is always reported together with its budget.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd

from . import states
from .algebra import TorusAlgebra, Word, normal_form, split_at, word_degree
from .deformation import DeformationParameter, InputError, _Record, isotropy
from .expr import format_word
from .scalars import PhaseCoefficient
from .states import EXACT, StateSpec, scalar_field, validate_state


class Shift(_Record):
    """k -> k + amount."""

    __slots__ = _fields = ("amount",)
    _defaults = (1,)

    def __call__(self, k: int) -> int:
        return k + self.amount

    def describe(self) -> str:
        if self.amount == 1:
            return "tau"
        return f"tau^{self.amount}"


class PartialShift(_Record):
    """Right-hand-side partial shift: k below the pivot stays, the rest bumps."""

    __slots__ = _fields = ("pivot",)
    _defaults = (0,)

    def __call__(self, k: int) -> int:
        return k if k < self.pivot else k + 1

    def describe(self) -> str:
        return f"theta_{self.pivot}"


class Composite(_Record):
    """Composition, rightmost map applied first; no parts is the identity."""

    __slots__ = _fields = ("parts",)

    def __call__(self, k: int) -> int:
        for part in reversed(self.parts):
            k = part(k)
        return k

    def describe(self) -> str:
        if not self.parts:
            return "id"
        return " o ".join(p.describe() for p in self.parts)


IDENTITY = Composite(())


class TableMap(_Record):
    """Explicit strictly increasing values on a window, shifted identity outside."""

    __slots__ = _fields = ("lo", "values")

    def __init__(self, lo: int, values: tuple[int, ...]):
        if not values:
            raise InputError("a table map needs a nonempty window")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise InputError("table values must increase strictly")
        super().__init__(lo, values)

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


def spreading_map_grammar() -> list:
    """Identity plus all compositions of <= 2 generator maps: 57 maps.

    The generators are the partial shifts with |pivot| <= 2 together with
    the shift and its inverse.
    """
    gens = [PartialShift(l) for l in range(-2, 3)] + [Shift(1), Shift(-1)]
    return [IDENTITY, *gens, *(Composite((g, h)) for g in gens for h in gens)]


def iter_normal_words(max_factors: int, max_index: int,
                      max_exponent: int) -> Iterator[tuple[Word, int, Word]]:
    """All factor sequences within the budget, the empty word included, each
    as (factors, twist, nf) with normal_form(factors) == (twist, nf).

    Words come layer by layer, each a shorter word followed by one factor
    u_i^e, and each normal form is the shorter word's with u_i^e appended as
    in normal_form; the split at index i is made once and shared by all of
    that index's exponents.  The longest layer is yielded without being
    stored.
    """
    yield (), 0, ()
    if max_factors == 0 or max_exponent == 0:  # no single factor is needed
        return
    exponents = [e for e in range(-max_exponent, max_exponent + 1) if e != 0]
    singles = [(i, [((i, e), e) for e in exponents])
               for i in range(-max_index, max_index + 1)]
    layer = [((), 0, ())]
    for depth in range(1, max_factors + 1):
        nxt = []
        for word, twist, nf in layer:
            for i, factors in singles:
                head, old, tail, above = split_at(nf, i)
                for f, e in factors:
                    total = old + e
                    entry = (word + (f,), twist - e * above,
                             head + ((i, total),) + tail if total else head + tail)
                    yield entry
                    if depth < max_factors:
                        nxt.append(entry)
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


class Counterexample(_Record):
    __slots__ = _fields = ("word", "action", "before", "after")


class CheckReport(_Record):
    __slots__ = _fields = ("property_name", "state", "passed", "exhaustive_cases",
                           "random_trials", "counterexample", "budget")

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
# Largest randomized pass, in trials.
MAX_TRIALS = 10**7
# Largest randomized pass, in factor steps: a trial appends each of up to
# max_factors drawn factors to a normal form of at most max_factors factors.
MAX_RANDOM_STEPS = 10**8


def _series(base: int, top: int) -> int:
    """1 + base + ... + base**top, exact while it stays near MAX_EXHAUSTIVE_CASES.

    For base >= 2 the terms past base**64 are left out: the sum is then far
    above the limit anyway.
    """
    if base < 2:
        return 1 + base * top
    top = min(top, 64)
    return (base ** (top + 1) - 1) // (base - 1)


def _word_count(max_factors: int, max_index: int, max_exponent: int) -> int:
    """How many words iter_normal_words yields, exact for every budget whose
    exhaustive pass _check_budget accepts."""
    return _series((2 * max_index + 1) * 2 * max_exponent, max_factors)


def _check_budget(actions: int, exhaustive: bool, **fields: int) -> None:
    """Reject negative budgets, more than MAX_TRIALS trials, a random pass
    above MAX_RANDOM_STEPS and an exhaustive pass above MAX_EXHAUSTIVE_CASES.

    The pass runs every word of <= max_factors factors, each from the
    (2*max_index + 1) * 2*max_exponent singles, against each of the actions.
    """
    for name, value in fields.items():
        if value < 0:
            raise InputError(f"{name} must be >= 0, got {value}")
    if fields["trials"] > MAX_TRIALS:
        raise InputError(f"trials must be <= {MAX_TRIALS}, got {fields['trials']}")
    steps = fields["trials"] * fields["max_factors"] ** 2 if fields["max_exponent"] else 0
    if steps > MAX_RANDOM_STEPS:
        raise InputError(f"the random pass would take up to {steps} factor steps, more "
                         f"than {MAX_RANDOM_STEPS}; lower trials or max_factors")
    words = _word_count(fields["max_factors"], fields["max_index"], fields["max_exponent"])
    if exhaustive and words * actions > MAX_EXHAUSTIVE_CASES:
        raise InputError(
            f"the exhaustive pass would run more than {MAX_EXHAUSTIVE_CASES} cases; "
            "lower max_factors, max_index or max_exponent, or skip it"
        )


# Entries each per-check table (an lru_cache made inside the check) keeps, so
# a check's memory stays bounded however many actions or angles its family
# has; the check's states.Values starts afresh between two top-level words
# once it holds this many.  The CLI default budget meets about 4,800 distinct
# normal forms among the words and their images.  It also gates the
# per-process table: only a budget of at most this many words has a
# _first_forms table built and kept (the CLI default budget has 8,421 words).
MAX_CACHED_VALUES = 2**16
# Index-map families whose image tables a first-form table keeps; the one
# kept longest is dropped to make room for another.
MAX_KEPT_FAMILIES = 8


class _FormTable(tuple):
    """A budget's first forms, as _first_forms lists them, with the image
    tables of the index-map families checked on them (images, by the
    family's tuple of maps; see _image_table)."""

    def __new__(cls, entries):
        table = super().__new__(cls, entries)
        table.images = {}
        return table


@lru_cache(maxsize=1)
def _first_forms(max_factors: int, max_index: int, max_exponent: int,
                 exact: bool) -> tuple[tuple[int, tuple[Word, int, Word]], ...]:
    """The pairs (position, (factors, twist, nf)) of
    enumerate(iter_normal_words(...)) that hold the first word of each
    verdict key, in word order.  The key is nf in exact mode and (twist, nf)
    in float mode.

    The words do not depend on the state, so a budget's table is built
    once and shared by the checks that follow on that budget and mode.
    One table is kept, that of the budget and mode used last: every
    measured caller (a CLI child, the benchmark's checker workload) checks
    one budget per process.  The images of the forms do not depend on the
    state either, so the table also keeps the image table of each
    index-map family checked on it (at most MAX_KEPT_FAMILIES), and drops
    them with itself.  cache_info() reports the table kept and its hits.
    """
    first = {}
    for position, entry in enumerate(iter_normal_words(max_factors, max_index, max_exponent)):
        _, twist, nf = entry
        first.setdefault(nf if exact else (twist, nf), (position, entry))
    return _FormTable(first.values())


def _image_table(forms, images):
    """The moved images of each first form under an index-map family, as
    (offsets, ks, slots, words).

    Row r, the r-th form, holds the entries offsets[r] to offsets[r + 1] - 1
    of the array columns ks and slots: the first action k of each class of
    maps, in increasing k, and the slot of the class's image in words, the
    tuple of distinct image words.  A class that leaves the form in place
    has no entry, as its image's value is the form's.  images is the
    family's images(nf, base, value), run with each image word standing for
    its own value; the words share their (index, exponent) pairs.
    """
    pairs, slot_of = {}, {}
    offsets, ks, slots = array("i", [0]), array("i"), array("i")
    for _, (_, _, nf) in forms:
        for k, mapped in images(nf, None, lambda word: word):
            if mapped is not None:
                slot = slot_of.get(mapped)
                if slot is None:
                    slot = slot_of[tuple(pairs.setdefault(f, f) for f in mapped)] = len(slot_of)
                ks.append(k)
                slots.append(slot)
        offsets.append(len(ks))
    return offsets, ks, slots, tuple(slot_of)


def _kept_image_table(forms, maps, images):
    """The image table of forms for the index maps maps (a tuple), built
    on the first check that asks for it."""
    tables = forms.images
    if maps not in tables:
        if len(tables) == MAX_KEPT_FAMILIES:
            del tables[next(iter(tables))]  # the table kept longest
        tables[maps] = _image_table(forms, images)
    return tables[maps]


def _check(name, state, beta, actions_note, actions, images, draw, move, label, *,
           trials, seed, max_factors, max_index, max_exponent, exhaustive,
           mode, index_maps=False) -> CheckReport:
    """Compare phi(alpha(x)) with phi(x) over one family of actions alpha.

    actions is a sized sequence.  The families compute image values and
    the driver compares them: for a normal form nf of value base, with
    value(word) the value of a word at nf's twist, move(action, nf, base,
    value) is the value of alpha(nf), and images(nf, base, value) yields
    (k, after) for the first index k of each class of actions that give nf
    one image, in increasing k.  Each word is normal-ordered once and the
    actions move its normal form, which is sound because index maps
    increase strictly (no new inversions) and gauge actions keep the degree.
    Exhaustive pass: every factor word within the word budget against every
    action.  A word w is e(twist) times its normal form nf, so the pass
    computes one verdict per normal form (the index of the first failing
    action, or None).  Every member of a class has its class's image, so
    the verdict compares one image per class, and the first failing class
    member listed is the first failing action.  In exact mode e(twist) is a
    unit, so phi(alpha(w)) = phi(w) exactly when phi(alpha(nf)) = phi(nf)
    and the verdict is keyed by (0, nf); in float mode it is keyed by
    (twist, nf), so rounding sees the same products as a case-by-case pass.
    A budget of at most MAX_CACHED_VALUES words walks its _first_forms
    table, one verdict per key: the first failing word is the first word of
    the first failing key, so it fails at case position * len(actions) +
    k + 1, and a pass counts every word against every action.  When the
    actions are index maps (index_maps), the table's image table for them
    (_image_table, built by the first such check) stands in for images:
    the check reads each image word's state value once, into a list by
    slot, and compares it with base by identity before equality, so equal
    values that are one object cost no arithmetic.  A larger budget walks
    the words themselves through a verdict lru_cache, so its memory stays
    bounded.  Randomized pass: trial t draws a word and then its action
    from seed xor t, through draw(rng, word) or, when draw is
    None, as a member of actions.  The trials after a passing exhaustive
    pass count but are not drawn when draw is None: the drawn word is one
    of the budget's words, the action one of actions, and the pass compared
    the image of that very case (through its (0, nf) or (twist, nf)
    verdict), so no such trial can fail.
    State values come from one states.Values for the whole check, which
    starts afresh between two top-level words once it holds
    MAX_CACHED_VALUES entries, never inside one word's evaluation; every
    other memo, here and in the families, is an lru_cache of that many
    entries (verdicts on a walk of the words, value functions by twist,
    restrictions by support and gauge turns by residue) or, for the values
    by slot, one entry per word of the kept image table.
    """
    _check_budget(len(actions), exhaustive, trials=trials, max_factors=max_factors,
                  max_index=max_index, max_exponent=max_exponent)
    field = scalar_field(mode)
    exact = field is EXACT
    validate_state(state, beta, mode=mode)
    algebra = TorusAlgebra(beta)
    budget = (
        f"words: <={max_factors} factors, |index|<={max_index}, "
        f"|exponent|<={max_exponent}; {actions_note}; trials: {trials}"
    )
    memo = states.Values(algebra, field)

    def state_value(word):
        nonlocal memo
        if len(memo) >= MAX_CACHED_VALUES:
            memo = states.Values(algebra, field)
        return memo.of(state, word)

    def twisted(twist, v):
        if twist and not field.is_zero(v):
            v = v * field.coefficient(algebra.twist_phase(twist))
        return v

    def word_value(twist, word):
        return twisted(twist, state_value(word))

    # value_at(twist)(word) == word_value(twist, word); one function per
    # twist, as a fresh one per normal form costs more than the lookup
    value_at = lru_cache(MAX_CACHED_VALUES)(lambda twist: partial(word_value, twist))

    def first_failure(twist, nf):
        base = word_value(twist, nf)
        for k, after in images(nf, base, value_at(twist)):
            if not field.equal(after, base):
                return k
        return None

    def verdicts(forms, verdict):
        # (position, entry, first failing k or None) per form
        for position, entry in forms:
            yield position, entry, verdict(0 if exact else entry[1], entry[2])

    def table_failures(forms, table):
        # verdicts(forms, first_failure), read from the forms' image table
        offsets, ks, slots, image_words = table
        slot_values = [None] * len(image_words)
        for row, (position, entry) in enumerate(forms):
            twist = 0 if exact else entry[1]
            base, k = word_value(twist, entry[2]), None
            for j in range(offsets[row], offsets[row + 1]):
                v = slot_values[slots[j]]
                if v is None:
                    v = slot_values[slots[j]] = state_value(image_words[slots[j]])
                if twist:
                    v = twisted(twist, v)
                if v is not base and not field.equal(v, base):
                    k = ks[j]
                    break
            yield position, entry, k

    def moved(action, twist, nf):
        base = word_value(twist, nf)
        return base, move(action, nf, base, value_at(twist))

    def failed(cases, done, factors, action, before, after):
        cx = Counterexample(format_word(factors) or "1", label(action),
                            str(before), str(after))
        return CheckReport(name, state.describe(), False, cases, done, cx, budget)

    cases = 0
    if exhaustive:
        words = _word_count(max_factors, max_index, max_exponent)
        if words > MAX_CACHED_VALUES:
            found = verdicts(enumerate(iter_normal_words(max_factors, max_index, max_exponent)),
                             lru_cache(MAX_CACHED_VALUES)(first_failure))
        elif index_maps:
            forms = _first_forms(max_factors, max_index, max_exponent, exact)
            found = table_failures(forms, _kept_image_table(forms, tuple(actions), images))
        else:
            found = verdicts(_first_forms(max_factors, max_index, max_exponent, exact),
                             first_failure)
        for position, (factors, twist, nf), k in found:
            if k is not None:
                return failed(position * len(actions) + k + 1, 0, factors, actions[k],
                              *moved(actions[k], twist, nf))
        cases = words * len(actions)
    for t in range(0 if exhaustive and draw is None else trials):
        rng = random.Random(seed ^ t)
        factors = random_factor_word(rng, max_factors, max_index, max_exponent)
        action = actions[rng.randrange(len(actions))] if draw is None else draw(rng, factors)
        base, after = moved(action, *normal_form(factors))
        if not field.equal(after, base):
            return failed(cases, t + 1, factors, action, base, after)
    return CheckReport(name, state.describe(), True, cases, trials, None, budget)


def _index_map_move(h, word, base, value):
    """The value of the word with h applied to each of its indices; a word
    that h leaves in place keeps base, with no second evaluation."""
    mapped = tuple((h(i), e) for i, e in word)
    return base if mapped == word else value(mapped)


def _index_map_images(maps):
    """images(word, base, value) for index maps: the first index of each
    distinct restriction of the maps to the word's support (found once per
    support) with its image's value.  A map can send a word of value zero
    to one of another value, so a zero base is moved too."""
    @lru_cache(MAX_CACHED_VALUES)
    def firsts(support):
        first = {}
        for k, h in enumerate(maps):
            first.setdefault(tuple(map(h, support)), k)
        return first

    def images(word, base, value):
        exponents = [e for _, e in word]
        for values, k in firsts(tuple(i for i, _ in word)).items():
            mapped = tuple(zip(values, exponents))
            yield k, base if mapped == word else value(mapped)
    return images


_SPREADING_MAPS = tuple(spreading_map_grammar())


def check_spreadable(state: StateSpec, beta: DeformationParameter, *,
                     trials: int = 1000, seed: int = 0, max_factors: int = 3,
                     max_index: int = 2, max_exponent: int = 2,
                     exhaustive: bool = True, mode: str = "exact") -> CheckReport:
    """Compare phi(alpha_h(x)) with phi(x) over the declared budget.

    Exhaustive part: every factor word within the word budget against each
    of the 57 maps of spreading_map_grammar().  Randomized part: trials
    pairs of a random word and a random increasing table over its support
    window; trial i draws from seed xor i.  A table costs one entry per
    index of the window, so a random pass whose words can span more than
    MAX_EXHAUSTIVE_CASES indices is refused.
    """
    if (trials >= 1 and max_factors >= 2 and max_exponent >= 1
            and 2 * max_index + 1 > MAX_EXHAUSTIVE_CASES):
        raise InputError(
            f"the random pass would draw tables over up to {2 * max_index + 1} "
            f"indices, more than {MAX_EXHAUSTIVE_CASES}; lower max_index or "
            "max_factors, or run no trials"
        )

    def draw(rng, factors):
        support = [i for i, _ in factors]
        lo, hi = min(support, default=0), max(support, default=0)
        return random_increasing_map(lo, hi, rng)

    return _check(
        "spreadable", state, beta, "maps: <=2 generators with |pivot|<=2",
        _SPREADING_MAPS, _index_map_images(_SPREADING_MAPS), draw, _index_map_move,
        lambda h: h.describe(),
        trials=trials, seed=seed, max_factors=max_factors, max_index=max_index,
        max_exponent=max_exponent, exhaustive=exhaustive, mode=mode, index_maps=True,
    )


def check_stationary(state: StateSpec, beta: DeformationParameter, *,
                     power: int = 1, trials: int = 1000, seed: int = 0,
                     max_factors: int = 3, max_index: int = 2,
                     max_exponent: int = 2, exhaustive: bool = True,
                     mode: str = "exact") -> CheckReport:
    """Compare phi(tau^power(x)) with phi(x) over the declared budget.

    tau^0 is the identity, which every state passes, so power 0 is refused.
    """
    if power == 0:
        raise InputError("shift power must be nonzero: tau^0 is the identity")
    shifts = [Shift(power)]
    return _check(
        "stationary", state, beta, f"shift power: {power}", shifts,
        _index_map_images(shifts), None, _index_map_move,
        lambda h: f"tau^{power}",
        trials=trials, seed=seed, max_factors=max_factors, max_index=max_index,
        max_exponent=max_exponent, exhaustive=exhaustive, mode=mode, index_maps=True,
    )


def check_gauge_invariant(state: StateSpec, beta: DeformationParameter, *,
                          trials: int = 1000, seed: int = 0,
                          max_factors: int = 3, max_index: int = 2,
                          max_exponent: int = 2, exhaustive: bool = True,
                          mode: str = "exact") -> CheckReport:
    """Compare phi(gauge_z(x)) with phi(x) for annihilator angles z.

    Rational beta: all angles j/n of the finite annihilator.  Irrational
    beta: the annihilator is the whole circle, so the angles j/8 stand in
    for it.  The actions are the numerators j in range(n) (or range(8)); a
    word of degree d turns by e(r/n), r = j*d mod n, from one table of turns
    by residue (r = 0 is no turn).  r depends on j mod n/gcd(d, n) only, so
    the classes of a word of degree d are the first n/gcd(d, n) numerators;
    a word of value zero has none to compare, as every turn of zero is zero.
    Trial t draws its numerator with randrange(n) (or randrange(8)).
    """
    iso = isotropy(beta)
    if iso.generator is not None:
        count = iso.generator
        angle_note = f"all {count} annihilator angles"
    else:
        count = 8
        angle_note = f"angles j/{count} sampling the whole circle"
    field = scalar_field(mode)
    turns = lru_cache(MAX_CACHED_VALUES)(
        lambda r: field.coefficient(PhaseCoefficient.unit_angle(Fraction(r, count))))

    def move(j, word, base, value):
        r = j * word_degree(word) % count
        return base * turns(r) if r and not field.is_zero(base) else base

    def images(word, base, value):
        if field.is_zero(base):
            return ()
        classes = count // gcd(word_degree(word), count)
        return ((j, move(j, word, base, value)) for j in range(classes))

    return _check(
        "gauge-invariant", state, beta, angle_note, range(count), images, None, move,
        lambda j: f"gauge angle {Fraction(j, count)}",
        trials=trials, seed=seed, max_factors=max_factors, max_index=max_index,
        max_exponent=max_exponent, exhaustive=exhaustive, mode=mode,
    )
