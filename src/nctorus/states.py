"""Distinguished states and their exact evaluation.

States are specified structurally: the canonical trace, a product over sites
of one circle-state given by its moments, a product over blocks of a base
state, a Cesaro average of that block product over shifts, or a finite
convex mixture.  Every state kind has one interpreter, its value method,
run over a scalar field: EXACT, whose values are PhaseCoefficients, or
FLOAT, whose values are machine complexes compared within FLOAT_TOLERANCE
(for arbitrary complex moments and for negative tests with inadmissible
moments).  Every entry point takes mode="exact" or "float", which becomes a
field in one place, scalar_field; the mode is the only numeric option, and
irrational beta stays symbolic in both.  Moments take their arithmetic from
a field too.  One evaluation shares one Values table down the state tree,
and blocks start at index 0, so a state meets each contiguous run of the
word's factors once.
"""

from __future__ import annotations

import json
import operator
import warnings
from collections.abc import Mapping
from fractions import Fraction
from itertools import groupby

from .algebra import Element, TorusAlgebra, Word, translate, word_degree, word_translate
from .deformation import DeformationParameter, InputError, _Record, isotropy
from .scalars import PC_ONE, PC_ZERO, QQI_ONE, PhaseCoefficient, QQi

FLOAT_TOLERANCE = 1e-9
# Bounds the recursion.  Nested work is linear in the tree: a state meets at
# most 1 + s(s+1)/2 words for a word of s factors (Values, block_product).
MAX_STATE_DEPTH = 16


class InadmissibleMomentsError(InputError):
    """Moments that cannot give a state at the ambient deformation."""


class MomentSequence:
    """Finitely supported moments c_l of a state on the circle algebra.

    c_0 = 1 is mandatory and Hermitian symmetry c_{-l} = conj(c_l) is filled
    in or checked; the contractivity bound |c_l| <= 1 is enforced.  Exact
    moments are Gaussian rationals and compare exactly; float moments are
    machine complexes and compare within FLOAT_TOLERANCE.  Both take their
    arithmetic from their scalar field.  Positive-definiteness is not an
    invariant here; the oracle module checks it on demand.
    """

    __slots__ = ("_moments", "_field")

    def __init__(self, moments: Mapping[int, object], mode: str = "exact"):
        field = self._field = scalar_field(mode)
        zero = field.moment(0)
        cleaned: dict[int, object] = {}
        for l, v in moments.items():
            value = field.moment(v)
            if value != value:  # NaN, which no modulus bound catches
                raise InputError(f"moment at {l} is not a number")
            if value != zero:
                cleaned[int(l)] = value
        if 0 not in cleaned:
            cleaned[0] = field.moment_one
        elif not field.equal(cleaned[0], field.moment_one):
            raise InputError("the zeroth moment of a state must be 1")
        for l in sorted(cleaned):
            if -l not in cleaned:
                cleaned[-l] = cleaned[l].conjugate()
            elif l > 0 and not field.equal(cleaned[-l], cleaned[l].conjugate()):
                raise InputError(f"moments at {l} and {-l} are not conjugate")
        for l, v in cleaned.items():
            if field.exceeds_one(v):
                raise InputError(f"moment at {l} exceeds modulus 1")
        self._moments = cleaned

    @property
    def exact(self) -> bool:
        return self._field is EXACT

    @classmethod
    def lebesgue(cls) -> MomentSequence:
        """Uniform measure on the circle: every nonzero moment vanishes."""
        return cls({0: 1})

    def moment(self, l: int):
        return self._moments.get(l, self._field.moment(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._moments))

    def is_admissible(self, iso) -> bool:
        """Whether every nonzero moment sits on the isotropy subgroup."""
        return all(iso.contains(l) for l in self._moments)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MomentSequence):
            return NotImplemented
        return self._field == other._field and self._moments == other._moments

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}: {v}" for l, v in sorted(self._moments.items()))
        return f"MomentSequence({{{inner}}}, mode={'exact' if self.exact else 'float'!r})"


class ExactField:
    """Exact scalars: PhaseCoefficient values, zero when no term is stored.

    A field supplies zero and one; moment_one, moment (which coerces a
    moment), exceeds_one and lift for circle moments and their products;
    coefficient for phases and element coefficients; is_zero, mean and
    equal.
    """

    zero, one, moment_one = PC_ZERO, PC_ONE, QQI_ONE
    lift = staticmethod(PhaseCoefficient.from_qqi)
    moment = staticmethod(QQi.of)
    coefficient = staticmethod(lambda c: c)
    equal = staticmethod(operator.eq)

    @staticmethod
    def is_zero(v) -> bool:
        return not v._terms

    exceeds_one = staticmethod(lambda v: v.abs2() > 1)

    @staticmethod
    def mean(total, count: int):
        return total * Fraction(1, count)


class FloatField:
    """Machine complex scalars, equal within FLOAT_TOLERANCE.

    Phases convert with to_complex, which refuses a symbolic twist power.
    """

    zero, one, moment_one = 0j, 1 + 0j, 1 + 0j
    moment = lift = staticmethod(complex)
    coefficient = staticmethod(PhaseCoefficient.to_complex)
    is_zero = staticmethod(operator.not_)
    mean = staticmethod(operator.truediv)

    @staticmethod
    def equal(a, b) -> bool:
        return abs(a - b) <= FLOAT_TOLERANCE

    exceeds_one = staticmethod(lambda v: abs(v) > 1 + FLOAT_TOLERANCE)


EXACT, FLOAT = ExactField(), FloatField()


def scalar_field(mode: str):
    """The field of a mode: EXACT for "exact", FLOAT for "float"."""
    if mode == "exact":
        return EXACT
    if mode == "float":
        return FLOAT
    raise InputError(f"unknown mode {mode!r}; use 'exact' or 'float'")


class Values(dict):
    """Values by (id(state), word), kept for one evaluation or for a run of
    them (a check, a Gram matrix); the state trees outlive it.
    """

    __slots__ = ("algebra", "field")

    def __init__(self, algebra: TorusAlgebra, field):  # no dict.__init__: starts empty
        self.algebra, self.field = algebra, field

    def of(self, state: StateSpec, word: Word):
        key = id(state), word
        v = self.get(key)  # a value is never None
        if v is None:
            v = self[key] = state.value(word, self)
        return v


class StateSpec(_Record):
    """Base of the structural state descriptions, each an immutable record.

    Each kind evaluates a normal-form word within one evaluation's Values
    (value(word, values)), describes and serializes itself
    (describe, to_json), and lists the states it is built from (children).
    """

    __slots__ = ()

    def children(self) -> tuple[StateSpec, ...]:
        return ()

    def is_shift_invariant(self) -> bool:
        return all(c.is_shift_invariant() for c in self.children())

    def check_admissible(self, iso, exact: bool) -> None:
        """Reject the state, or one it is built from, at the isotropy subgroup iso."""
        for c in self.children():
            c.check_admissible(iso, exact)


class Trace(StateSpec):
    """The canonical trace: kills every nonempty normal-form word."""

    __slots__ = ()

    def value(self, word: Word, values: Values):
        return values.field.zero if word else values.field.one

    def describe(self) -> str:
        return "trace"

    def to_json(self) -> dict:
        return {"kind": "trace"}


TRACE = Trace()


class ProductState(StateSpec):
    """Site-wise product of one circle-state given by its moments."""

    __slots__ = _fields = ("moments",)

    def value(self, word: Word, values: Values):
        if word and (word[0][0] or word[-1][0] != len(word) - 1):
            # the value depends on the exponents only: a word whose indices
            # (increasing) are not 0..k-1 reads its packed word's value, so
            # that equal values are one object within one Values
            return values.of(self, tuple(enumerate(e for _, e in word)))
        field = values.field
        acc = field.moment_one
        for _, e in word:
            c = self.moments._moments.get(e)  # zero moments are not stored
            if c is None:
                return field.zero
            acc = acc * field.moment(c)
        return field.lift(acc)

    def check_admissible(self, iso, exact: bool) -> None:
        if exact and not self.moments.exact:
            raise InputError("float moments need float mode")
        if not self.moments.is_admissible(iso):
            msg = (
                f"moments supported outside the isotropy subgroup {iso} "
                "are inadmissible; the product functional is not a state"
            )
            if exact:
                raise InadmissibleMomentsError(msg)
            warnings.warn(msg)

    def describe(self) -> str:
        inner = ", ".join(
            f"c_{l}={self.moments.moment(l)}"
            for l in self.moments.support()
            if l != 0
        )
        return f"product({inner or 'lebesgue'})"

    def to_json(self) -> dict:
        if not self.moments.exact:
            raise InputError("only exact moments serialize")
        rows = []
        for l in self.moments.support():
            c = self.moments.moment(l)
            rows.append([l, _rational_to_json(c.re), _rational_to_json(c.im)])
        return {"kind": "product", "moments": rows}


def cesaro_runs(word: Word, half_width: int) -> list[tuple[int, int]]:
    """(shift, count) pairs whose counts partition the Cesaro shifts.

    Under the shift k, with t = k + half_width in [0, 2*half_width + 1), the
    factor at index i sits in block (i + t) // (2*half_width + 1).  That
    block changes only where t crosses (-i) mod (2*half_width + 1), so the
    split of the word into blocks is constant between consecutive cut
    points.  Each run is given by its first shift and its length.
    """
    span = 2 * half_width + 1
    cuts = sorted({0} | {-i % span for i, _ in word})
    ends = cuts[1:] + [span]
    return [(t - half_width, end - t) for t, end in zip(cuts, ends)]


class _BlockFamily(StateSpec):
    """A shift-invariant base spread over blocks of width 2*half_width + 1."""

    __slots__ = _fields = ("half_width", "base")

    def __init__(self, half_width: int, base: StateSpec):
        if half_width < 0:
            raise InputError(f"{self.kind} half width must be >= 0")
        if not base.is_shift_invariant():
            raise InputError(
                f"{self.base_noun} base must be shift invariant "
                "(trace, product, mixture, or cesaro)"
            )
        super().__init__(half_width, base)

    def children(self) -> tuple[StateSpec, ...]:
        return (self.base,)

    def describe(self) -> str:
        return f"{self.kind}(n={self.half_width}, base={self.base.describe()})"

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.half_width, "base": self.base.to_json()}

    def block_product(self, word: Word, values: Values):
        """The block product of the base on word.

        A block whose degree is outside the isotropy subgroup gives zero
        (blockwise annihilator average); any other is translated to start at
        index 0, which the shift-invariant base allows, and read from values.
        """
        n, iso, field = self.half_width, values.algebra.isotropy, values.field
        span = 2 * n + 1
        acc = field.one
        for _, factors in groupby(word, lambda f: (f[0] + n) // span):
            factors = tuple(factors)
            block = word_translate(factors, -factors[0][0])
            if not iso.contains(word_degree(block)):
                return field.zero
            v = values.of(self.base, block)
            if field.is_zero(v):
                return field.zero
            acc = acc * v
        return acc


class BlockProductState(_BlockFamily):
    """Product over consecutive blocks of width 2*half_width + 1 of a base.

    Block r covers the indices [-half_width + r*(2*half_width+1),
    r*(2*half_width+1) + half_width].  A word whose block degrees are not all
    in the isotropy subgroup evaluates to zero (blockwise annihilator
    average); otherwise each block is fed to the base (block_product).
    Block products are only periodically shift invariant.
    """

    __slots__ = ()
    kind, base_noun = "block", "block product"

    def is_shift_invariant(self) -> bool:
        return False

    def value(self, word: Word, values: Values):
        return self.block_product(word, values)


class CesaroState(_BlockFamily):
    """Average of the block product over the 2*half_width + 1 shifts.

    phi_n(w) = (1/(2n+1)) * sum over k in [-n, n] of B_n(tau^k w), with B_n
    the block product.  The base is shift invariant, so B_n(tau^k w) only
    depends on how the shift splits the support of w into blocks, and that
    split changes at one cut point per distinct support index.  Evaluation
    therefore sums one block product per run of equal splits, weighted by
    the run length (cesaro_runs): at most (distinct support indices + 1)
    block products, however large n is.
    """

    __slots__ = ()
    kind, base_noun = "cesaro", "cesaro"

    def value(self, word: Word, values: Values):
        n, field = self.half_width, values.field
        acc = field.zero
        for k, count in cesaro_runs(word, n):
            v = self.block_product(word_translate(word, k), values)
            if not field.is_zero(v):
                acc = acc + v * count
        return field.mean(acc, 2 * n + 1)


def cesaro_defect(base: StateSpec, word: Word, algebra: TorusAlgebra, *,
                  mode: str = "exact"):
    """(D, A) with phi_n(w) - phi(w) = A/(2n+1) for every n with 2n+1 > D.

    phi is the shift-invariant base, phi_n = CesaroState(n, base) and w a
    normal-form word with support i_1 < ... < i_k.  D = i_k - i_1 (0 for
    k <= 1) and A = sum over j < k of g_j * (B(w_<=j, w_>j) - phi(w)), with
    gap g_j = i_{j+1} - i_j and B the product of the two blocks as
    block_product reads them: zero when a block's degree is outside the
    isotropy subgroup, else the base on each block translated to index 0.
    When 2n+1 > D a shift puts at most one block boundary inside the
    support: in gap j on g_j of the shifts, and on none of the other
    2n+1-D, which leave w in one block and give phi(w) for an admissible
    base.  |phi| <= 1 on unitaries, so |A| <= 2D: one word's A bounds the
    Cesaro gap for all those n at once.  A is summed here gap by gap,
    independently of CesaroState.value.
    """
    field = scalar_field(mode)
    if not base.is_shift_invariant():
        raise InputError("cesaro base must be shift invariant "
                         "(trace, product, mixture, or cesaro)")
    if len(word) < 2:
        return 0, field.zero
    values, iso = Values(algebra, field), algebra.isotropy

    def block(factors):
        if not iso.contains(word_degree(factors)):
            return field.zero
        return values.of(base, word_translate(factors, -factors[0][0]))

    whole = values.of(base, word)
    acc = field.zero
    for j in range(1, len(word)):
        acc = acc + (block(word[:j]) * block(word[j:]) - whole) * (word[j][0] - word[j - 1][0])
    return word[-1][0] - word[0][0], acc


class MixtureState(StateSpec):
    """Finite convex mixture; weights are positive rationals summing to 1."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[tuple[Fraction, StateSpec], ...]):
        parts = tuple((Fraction(w), p) for w, p in parts)
        if not parts:
            raise InputError("a mixture needs at least one part")
        if any(w <= 0 for w, _ in parts):
            raise InputError("mixture weights must be positive")
        if sum(w for w, _ in parts) != 1:
            raise InputError("mixture weights must sum to 1")
        super().__init__(parts)

    def children(self) -> tuple[StateSpec, ...]:
        return tuple(p for _, p in self.parts)

    def value(self, word: Word, values: Values):
        field = values.field
        acc = field.zero
        for w, part in self.parts:
            v = values.of(part, word)
            if not field.is_zero(v):
                acc = acc + v * w
        return acc

    def describe(self) -> str:
        inner = " + ".join(f"{w}*{p.describe()}" for w, p in self.parts)
        return f"mixture({inner})"

    def to_json(self) -> dict:
        parts = [[_rational_to_json(w), p.to_json()] for w, p in self.parts]
        return {"kind": "mixture", "parts": parts}


def validate_state(state: StateSpec, beta: DeformationParameter,
                   *, mode: str = "exact") -> None:
    """Reject states that cannot be evaluated at the given deformation.

    Exact mode insists on exact admissible moments; float mode downgrades
    inadmissibility to a warning so that non-states can be negative-tested.
    """
    state.check_admissible(isotropy(beta), scalar_field(mode) is EXACT)


def evaluate_word(state: StateSpec, word: Word, algebra: TorusAlgebra, *,
                  mode: str = "exact"):
    """Value of the state on one normal-form word (a complex in float mode).

    evaluate and the Cesaro oracle call this module-level name for each
    top-level word, so that a wrapper on it sees their evaluations.  The
    checkers do not call it: they share one Values per check, as gram_psd
    and clustering_gap share one per call (evaluator).
    """
    return state.value(word, Values(algebra, scalar_field(mode)))


def _sum_over_terms(x: Element, field, value):
    """Sum of coefficient times value(word) over the terms of x.

    Terms are visited in sorted word order, so the (exact) result is
    reproducible independently of dict history.
    """
    total = field.zero
    for word, coeff in x.terms():
        v = value(word)
        if not field.is_zero(v):
            total = total + field.coefficient(coeff) * v
    return total


def evaluate(state: StateSpec, x: Element, *, mode: str = "exact"):
    """Value of the state on an element (a complex in float mode)."""
    field = scalar_field(mode)
    validate_state(state, x.algebra.beta, mode=mode)
    return _sum_over_terms(x, field,
                           lambda word: evaluate_word(state, word, x.algebra, mode=mode))


def evaluator(state: StateSpec, algebra: TorusAlgebra, *, mode: str = "exact"):
    """The state as a function on elements of the algebra, for many elements.

    The state is validated once, and every element is evaluated through one
    shared Values, so words common to several elements are evaluated once.
    """
    field = scalar_field(mode)
    validate_state(state, algebra.beta, mode=mode)
    values = Values(algebra, field)
    return lambda x: _sum_over_terms(x, field, lambda word: values.of(state, word))


def clustering_gap(state: StateSpec, x: Element, y: Element, distance: int, *,
                   mode: str = "exact"):
    """phi(x * tau^distance(y)) - phi(x) * phi(y), in the given mode."""
    xy = x * translate(y, distance)
    value = evaluator(state, x.algebra, mode=mode)
    return value(xy) - value(x) * value(y)


# --- structured text format -------------------------------------------------

def _rational_to_json(value: Fraction) -> str | int:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _rational_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {value!r}: {exc}") from None
    raise InputError(f"bad rational {value!r}: expected int or 'p/q' string")


def _scalar_from_json(value, exact: bool):
    if exact:
        return _rational_from_json(value)
    if isinstance(value, (str, bool)):
        value = _rational_from_json(value)
    elif not isinstance(value, (int, float)):
        raise InputError(f"bad numeric value {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError("numeric value too large for a float") from None


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what}, got {value!r}")
    return value


def _json_rows(obj: dict, key: str, width: int, shape: str) -> list:
    if key not in obj:
        raise InputError(f"{obj['kind']} state needs a list '{key}'")
    rows = obj[key]
    if not isinstance(rows, (list, tuple)):
        raise InputError(f"{obj['kind']} state needs a list '{key}', got {rows!r}")
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise InputError(f"each {shape}")
    return rows


# The keys each state kind takes; any other key is refused.
_STATE_KEYS = {"trace": {"kind"}, "product": {"kind", "moments"}, "block": {"kind", "n", "base"},
               "cesaro": {"kind", "n", "base"}, "mixture": {"kind", "parts"}}


def state_from_json(obj, *, mode: str = "exact") -> StateSpec:
    """Build a state from its structured description."""
    return _state_from_json(obj, mode, scalar_field(mode) is EXACT, 0)


def _state_from_json(obj, mode: str, exact: bool, depth: int) -> StateSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("a state description is an object with a 'kind'")
    if depth == MAX_STATE_DEPTH:
        raise InputError(f"state descriptions nest at most {MAX_STATE_DEPTH} deep")
    kind = obj["kind"]
    keys = _STATE_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise InputError(f"unknown state kind {kind!r}")
    for key in obj:
        if key not in keys:
            raise InputError(f"a {kind} state has no key {key!r}")
    if kind == "trace":
        return TRACE
    if kind == "product":
        moments = {}
        for l, re, im in _json_rows(obj, "moments", 3, "moment row is [l, re, im]"):
            l = _json_int(l, "a moment row needs an integer l")
            if l in moments:
                raise InputError(f"moment index {l} appears twice")
            re, im = _scalar_from_json(re, exact), _scalar_from_json(im, exact)
            moments[l] = QQi(re, im) if exact else complex(re, im)
        return ProductState(MomentSequence(moments, mode))
    if kind in ("block", "cesaro"):
        cls = BlockProductState if kind == "block" else CesaroState
        n = _json_int(obj.get("n"), f"{kind} state needs an integer 'n'")
        return cls(n, _state_from_json(obj.get("base"), mode, exact, depth + 1))
    return MixtureState(tuple(
        (_rational_from_json(w), _state_from_json(p, mode, exact, depth + 1))
        for w, p in _json_rows(obj, "parts", 2, "mixture part is [weight, state]")
    ))


def load_state(path, *, mode: str = "exact") -> StateSpec:
    """Read a state description file (JSON per the structured schema)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
            raise InputError(f"bad state file {path}: {exc}") from None
    return state_from_json(obj, mode=mode)
