"""Distinguished states and their exact evaluation.

States are specified structurally: the canonical trace, a product over sites
of one circle-state given by its moments, a product over blocks of a base
state, a Cesaro average of that block product over shifts, or a finite
convex mixture.  Exact evaluation returns a PhaseCoefficient; the float path
(for arbitrary complex moments and for negative tests with inadmissible
moments) returns a machine complex and comparisons against it carry a 1e-9
tolerance.  Both run the same interpreter, each state kind's value method,
over a scalar field: ExactField or FloatField.
"""

from __future__ import annotations

import json
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .algebra import Element, TorusAlgebra, Word, translate, word_translate
from .deformation import DeformationParameter, InputError, isotropy
from .scalars import PC_ONE, PC_ZERO, QQI_ONE, PhaseCoefficient, QQi

FLOAT_TOLERANCE = 1e-9
MAX_STATE_DEPTH = 16  # bounds the recursion; nested Cesaro work grows geometrically


class InadmissibleMomentsError(InputError):
    """Moments that cannot give a state at the ambient deformation."""


class MomentSequence:
    """Finitely supported moments c_l of a state on the circle algebra.

    c_0 = 1 is mandatory and Hermitian symmetry c_{-l} = conj(c_l) is filled
    in or checked; the contractivity bound |c_l| <= 1 is enforced where it is
    exactly representable.  Positive-definiteness is not an invariant here;
    the oracle module checks it on demand.
    """

    __slots__ = ("_moments", "exact")

    def __init__(self, moments: Mapping[int, object], exact: bool = True):
        self.exact = exact
        cleaned: dict[int, object] = {}
        for l, v in moments.items():
            value = QQi.of(v) if exact else complex(v)
            if exact:
                if value.is_zero():
                    continue
            elif value == 0:
                continue
            cleaned[int(l)] = value
        zero = cleaned.get(0)
        one = QQI_ONE if exact else 1 + 0j
        if zero is None:
            cleaned[0] = one
        elif not self._values_equal(zero, one):
            raise InputError("the zeroth moment of a state must be 1")
        for l in sorted(cleaned):
            if l <= 0:
                continue
            mirror = self._conj(cleaned[l])
            if -l in cleaned:
                if not self._values_equal(cleaned[-l], mirror):
                    raise InputError(
                        f"moments at {l} and {-l} are not conjugate"
                    )
            else:
                cleaned[-l] = mirror
        for l in sorted(cleaned):
            if l < 0 and -l not in cleaned:
                cleaned[-l] = self._conj(cleaned[l])
        for l, v in cleaned.items():
            if exact:
                if v.abs2() > 1:
                    raise InputError(f"moment at {l} exceeds modulus 1")
            elif abs(v) > 1 + FLOAT_TOLERANCE:
                raise InputError(f"moment at {l} exceeds modulus 1")
        self._moments = cleaned

    def _conj(self, v):
        return v.conjugate()

    def _values_equal(self, a, b) -> bool:
        if self.exact:
            return (a - b).is_zero()
        return abs(a - b) <= 1e-12

    @classmethod
    def lebesgue(cls) -> MomentSequence:
        """Uniform measure on the circle: every nonzero moment vanishes."""
        return cls({0: 1})

    def moment(self, l: int):
        default = QQi() if self.exact else 0j
        return self._moments.get(l, default)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._moments))

    def is_admissible(self, iso) -> bool:
        """Whether every nonzero moment sits on the isotropy subgroup."""
        return all(iso.contains(l) for l in self._moments)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MomentSequence):
            return NotImplemented
        return self.exact == other.exact and self._moments == other._moments

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}: {v}" for l, v in sorted(self._moments.items()))
        return f"MomentSequence({{{inner}}}, exact={self.exact})"


class ExactField:
    """Exact scalars: PhaseCoefficient values, zero when no term is stored.

    A field supplies zero and one; moment_one, moment and lift for products
    of circle moments; coefficient for phases and element coefficients;
    is_zero, mean and equal.  Nested evaluations re-enter through the
    module-level evaluate_word, so a wrapper installed on that name sees
    every exact evaluation.
    """

    zero, one, moment_one = PC_ZERO, PC_ONE, QQI_ONE
    lift = staticmethod(PhaseCoefficient.from_qqi)
    moment = coefficient = staticmethod(lambda c: c)
    equal = staticmethod(operator.eq)

    @staticmethod
    def word_value(state, word, algebra):
        return evaluate_word(state, word, algebra)

    @staticmethod
    def is_zero(v) -> bool:
        return not v._terms

    @staticmethod
    def mean(total, count: int):
        return total * Fraction(1, count)


@dataclass(frozen=True)
class FloatField:
    """Machine complex scalars, equal within FLOAT_TOLERANCE.

    Phases convert with to_complex(beta_value), which a symbolic twist needs.
    """

    beta_value: object = None
    zero, one, moment_one = 0j, 1 + 0j, 1 + 0j
    moment = lift = staticmethod(complex)
    is_zero = staticmethod(operator.not_)
    mean = staticmethod(operator.truediv)

    def word_value(self, state, word, algebra):
        return state.value(word, algebra, self)

    def coefficient(self, c) -> complex:
        return c.to_complex(self.beta_value)

    @staticmethod
    def equal(a, b) -> bool:
        return abs(a - b) <= FLOAT_TOLERANCE


EXACT = ExactField()


class StateSpec:
    """Base of the structural state descriptions.

    Each kind evaluates a normal-form word over a scalar field
    (value(word, algebra, field)), describes and serializes itself
    (describe, to_json), and lists the states it is built from (children).
    """

    __slots__ = ()

    def children(self) -> tuple[StateSpec, ...]:
        return ()

    def is_shift_invariant(self) -> bool:
        return all(c.is_shift_invariant() for c in self.children())

    def check_admissible(self, iso, float_mode: bool) -> None:
        """Reject the state, or one it is built from, at the isotropy subgroup iso."""
        for c in self.children():
            c.check_admissible(iso, float_mode)


@dataclass(frozen=True)
class Trace(StateSpec):
    """The canonical trace: kills every nonempty normal-form word."""

    def value(self, word: Word, algebra: TorusAlgebra, field):
        return field.zero if word else field.one

    def describe(self) -> str:
        return "trace"

    def to_json(self) -> dict:
        return {"kind": "trace"}


TRACE = Trace()


@dataclass(frozen=True)
class ProductState(StateSpec):
    """Site-wise product of one circle-state given by its moments."""

    moments: MomentSequence

    def value(self, word: Word, algebra: TorusAlgebra, field):
        acc = field.moment_one
        for _, e in word:
            c = self.moments._moments.get(e)  # zero moments are not stored
            if c is None:
                return field.zero
            acc = acc * field.moment(c)
        return field.lift(acc)

    def check_admissible(self, iso, float_mode: bool) -> None:
        if not float_mode and not self.moments.exact:
            raise InputError("float moments need float mode")
        if not self.moments.is_admissible(iso):
            msg = (
                f"moments supported outside the isotropy subgroup {iso} "
                "are inadmissible; the product functional is not a state"
            )
            if not float_mode:
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


def _block_split(word: Word, half_width: int):
    span = 2 * half_width + 1
    i = 0
    n = len(word)
    while i < n:
        r = (word[i][0] + half_width) // span
        j = i
        deg = 0
        while j < n and (word[j][0] + half_width) // span == r:
            deg += word[j][1]
            j += 1
        yield r, deg, word[i:j]
        i = j


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


@dataclass(frozen=True)
class _BlockFamily(StateSpec):
    """A shift-invariant base spread over blocks of width 2*half_width + 1."""

    half_width: int
    base: StateSpec

    def __post_init__(self):
        if self.half_width < 0:
            raise InputError(f"{self.kind} half width must be >= 0")
        if not self.base.is_shift_invariant():
            raise InputError(
                f"{self.base_noun} base must be shift invariant "
                "(trace, product, mixture, or cesaro)"
            )

    def children(self) -> tuple[StateSpec, ...]:
        return (self.base,)

    def describe(self) -> str:
        return f"{self.kind}(n={self.half_width}, base={self.base.describe()})"

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.half_width, "base": self.base.to_json()}


class BlockProductState(_BlockFamily):
    """Product over consecutive blocks of width 2*half_width + 1 of a base.

    Block r covers the indices [-half_width + r*(2*half_width+1),
    r*(2*half_width+1) + half_width].  A word whose block degrees are not all
    in the isotropy subgroup evaluates to zero (blockwise annihilator
    average); otherwise each block is translated back to block 0 and fed to
    the base.  Block products are only periodically shift invariant.
    """

    kind, base_noun = "block", "block product"

    def is_shift_invariant(self) -> bool:
        return False

    def value(self, word: Word, algebra: TorusAlgebra, field):
        iso = algebra.isotropy
        span = 2 * self.half_width + 1
        acc = field.one
        for r, deg, block in _block_split(word, self.half_width):
            if not iso.contains(deg):
                return field.zero
            v = field.word_value(self.base, word_translate(block, -r * span), algebra)
            if field.is_zero(v):
                return field.zero
            acc = acc * v
        return acc


class CesaroState(_BlockFamily):
    """Average of the block product over the 2*half_width + 1 shifts.

    phi_n(w) = (1/(2n+1)) * sum over k in [-n, n] of B_n(tau^k w), with B_n
    the block product.  The base is shift invariant, so B_n(tau^k w) only
    depends on how the shift splits the support of w into blocks, and that
    split changes at one cut point per distinct support index.  Evaluation
    therefore sums one block value per run of equal splits, weighted by the
    run length (cesaro_runs): at most (distinct support indices + 1) block
    evaluations, however large n is.
    """

    kind, base_noun = "cesaro", "cesaro"

    def value(self, word: Word, algebra: TorusAlgebra, field):
        n = self.half_width
        inner = BlockProductState(n, self.base)
        acc = field.zero
        for k, count in cesaro_runs(word, n):
            v = field.word_value(inner, word_translate(word, k), algebra)
            if not field.is_zero(v):
                acc = acc + v * count
        return field.mean(acc, 2 * n + 1)


@dataclass(frozen=True)
class MixtureState(StateSpec):
    """Finite convex mixture; weights are positive rationals summing to 1."""

    parts: tuple[tuple[Fraction, StateSpec], ...]

    def __post_init__(self):
        parts = tuple((Fraction(w), p) for w, p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise InputError("a mixture needs at least one part")
        if any(w <= 0 for w, _ in parts):
            raise InputError("mixture weights must be positive")
        if sum(w for w, _ in parts) != 1:
            raise InputError("mixture weights must sum to 1")

    def children(self) -> tuple[StateSpec, ...]:
        return tuple(p for _, p in self.parts)

    def value(self, word: Word, algebra: TorusAlgebra, field):
        acc = field.zero
        for w, part in self.parts:
            v = field.word_value(part, word, algebra)
            if not field.is_zero(v):
                acc = acc + v * w
        return acc

    def describe(self) -> str:
        inner = " + ".join(f"{w}*{p.describe()}" for w, p in self.parts)
        return f"mixture({inner})"

    def to_json(self) -> dict:
        parts = [[_rational_to_json(w), p.to_json()] for w, p in self.parts]
        return {"kind": "mixture", "parts": parts}


def is_stationary_evaluable(state: StateSpec) -> bool:
    """Whether a state may serve as the base of a block product.

    Shift invariance of the base is what makes the blockwise restriction
    well defined; block products themselves are only periodically shift
    invariant and are therefore excluded.
    """
    return state.is_shift_invariant()


def describe_state(state: StateSpec) -> str:
    return state.describe()


def validate_state(state: StateSpec, beta: DeformationParameter,
                   *, float_mode: bool = False) -> None:
    """Reject states that cannot be evaluated at the given deformation.

    Exact mode insists on exact admissible moments; float mode downgrades
    inadmissibility to a warning so that non-states can be negative-tested.
    """
    state.check_admissible(isotropy(beta), float_mode)


def evaluate_word(state: StateSpec, word: Word, algebra: TorusAlgebra) -> PhaseCoefficient:
    """Exact value of the state on one normal-form word."""
    return state.value(word, algebra, EXACT)


def evaluate_word_float(state: StateSpec, word: Word, algebra: TorusAlgebra,
                        beta_value=None) -> complex:
    """Floating value of the state on one normal-form word."""
    return state.value(word, algebra, FloatField(beta_value))


def _evaluate(state: StateSpec, x: Element, field):
    validate_state(state, x.algebra.beta, float_mode=field is not EXACT)
    total = field.zero
    for word, coeff in sorted(x._terms.items()):
        v = field.word_value(state, word, x.algebra)
        if not field.is_zero(v):
            total = total + field.coefficient(coeff) * v
    return total


def evaluate(state: StateSpec, x: Element) -> PhaseCoefficient:
    """Exact value of the state on an element.

    Terms are visited in sorted word order, so the (exact) result is
    reproducible independently of dict history.
    """
    return _evaluate(state, x, EXACT)


def evaluate_float(state: StateSpec, x: Element, beta_value=None) -> complex:
    """Floating value of the state on an element (1e-9 comparison tolerance)."""
    return _evaluate(state, x, FloatField(beta_value))


def _clustering_gap(value, x: Element, y: Element, distance: int):
    return value(x * translate(y, distance)) - value(x) * value(y)


def clustering_gap(state: StateSpec, x: Element, y: Element,
                   distance: int) -> PhaseCoefficient:
    """phi(x * tau^distance(y)) - phi(x) * phi(y), exactly."""
    return _clustering_gap(lambda z: evaluate(state, z), x, y, distance)


def clustering_gap_float(state: StateSpec, x: Element, y: Element,
                         distance: int, beta_value=None) -> complex:
    return _clustering_gap(lambda z: evaluate_float(state, z, beta_value), x, y, distance)


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
    if isinstance(value, str):
        value = _rational_from_json(value)
    elif not isinstance(value, (int, float)):
        raise InputError(f"bad numeric value {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError("numeric value too large for a float") from None


def state_to_json(state: StateSpec) -> dict:
    """Structured description; inverse of state_from_json for exact states."""
    return state.to_json()


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what}, got {value!r}")
    return value


def _json_rows(obj: dict, key: str, width: int, shape: str) -> list:
    rows = obj.get(key, [])
    if not isinstance(rows, (list, tuple)):
        raise InputError(f"{obj['kind']} state needs a list '{key}', got {rows!r}")
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise InputError(f"each {shape}")
    return rows


def _check_depth(obj: dict) -> None:
    """Bound how deeply a description nests states, one level at a time."""
    level = [obj]
    for _ in range(MAX_STATE_DEPTH):
        children = []
        for o in level:
            kind = o.get("kind")
            if kind in ("block", "cesaro") and isinstance(o.get("base"), dict):
                children.append(o["base"])
            elif kind == "mixture":
                rows = _json_rows(o, "parts", 2, "mixture part is [weight, state]")
                children += [p for _, p in rows if isinstance(p, dict)]
        level = children
    if level:
        raise InputError(f"state descriptions nest at most {MAX_STATE_DEPTH} deep")


def state_from_json(obj, *, exact: bool = True) -> StateSpec:
    """Build a state from its structured description."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("a state description is an object with a 'kind'")
    _check_depth(obj)
    kind = obj["kind"]
    if kind == "trace":
        return TRACE
    if kind == "product":
        moments = {}
        for l, re, im in _json_rows(obj, "moments", 3, "moment row is [l, re, im]"):
            l = _json_int(l, "a moment row needs an integer l")
            re, im = _scalar_from_json(re, exact), _scalar_from_json(im, exact)
            moments[l] = QQi(re, im) if exact else complex(re, im)
        return ProductState(MomentSequence(moments, exact=exact))
    if kind in ("block", "cesaro"):
        cls = BlockProductState if kind == "block" else CesaroState
        n = _json_int(obj.get("n"), f"{kind} state needs an integer 'n'")
        return cls(n, state_from_json(obj.get("base"), exact=exact))
    if kind == "mixture":
        return MixtureState(tuple(
            (_rational_from_json(w), state_from_json(p, exact=exact))
            for w, p in _json_rows(obj, "parts", 2, "mixture part is [weight, state]")
        ))
    raise InputError(f"unknown state kind {kind!r}")


def load_state(path, *, exact: bool = True) -> StateSpec:
    """Read a state description file (JSON per the structured schema)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
            raise InputError(f"bad state file {path}: {exc}") from None
    return state_from_json(obj, exact=exact)
