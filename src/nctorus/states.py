"""Distinguished states and their exact evaluation.

States are specified structurally: the canonical trace, a product over sites
of one circle-state given by its moments, a product over blocks of a base
state, a Cesaro average of that block product over shifts, or a finite
convex mixture.  Exact evaluation returns a PhaseCoefficient; the float path
(for arbitrary complex moments and for negative tests with inadmissible
moments) returns a machine complex and comparisons against it carry a 1e-9
tolerance.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .algebra import Element, TorusAlgebra, Word, translate, word_translate
from .deformation import DeformationParameter, InputError, isotropy
from .scalars import PC_ONE, PC_ZERO, QQI_ONE, PhaseCoefficient, QQi


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
            elif abs(v) > 1 + 1e-9:
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


class StateSpec:
    """Marker base for structural state descriptions."""

    __slots__ = ()


@dataclass(frozen=True)
class Trace(StateSpec):
    """The canonical trace: kills every nonempty normal-form word."""


TRACE = Trace()


@dataclass(frozen=True)
class ProductState(StateSpec):
    """Site-wise product of one circle-state given by its moments."""

    moments: MomentSequence


def is_stationary_evaluable(state: StateSpec) -> bool:
    """Whether a state may serve as the base of a block product.

    Shift invariance of the base is what makes the blockwise restriction
    well defined; block products themselves are only periodically shift
    invariant and are therefore excluded.
    """
    if isinstance(state, (Trace, ProductState)):
        return True
    if isinstance(state, MixtureState):
        return all(is_stationary_evaluable(p) for _, p in state.parts)
    if isinstance(state, CesaroState):
        return is_stationary_evaluable(state.base)
    return False


@dataclass(frozen=True)
class BlockProductState(StateSpec):
    """Product over consecutive blocks of width 2*half_width + 1 of a base.

    Block r covers the indices [-half_width + r*(2*half_width+1),
    r*(2*half_width+1) + half_width].  A word whose block degrees are not all
    in the isotropy subgroup evaluates to zero (blockwise annihilator
    average); otherwise each block is translated back to block 0 and fed to
    the base.
    """

    half_width: int
    base: StateSpec

    def __post_init__(self):
        if self.half_width < 0:
            raise InputError("block half width must be >= 0")
        if not is_stationary_evaluable(self.base):
            raise InputError(
                "block product base must be shift invariant "
                "(trace, product, mixture, or cesaro)"
            )


@dataclass(frozen=True)
class CesaroState(StateSpec):
    """Average of the block product over the 2*half_width + 1 shifts.

    phi_n(w) = (1/(2n+1)) * sum over k in [-n, n] of B_n(tau^k w), with B_n
    the block product.  The base is shift invariant, so B_n(tau^k w) only
    depends on how the shift splits the support of w into blocks, and that
    split changes at one cut point per distinct support index.  Evaluation
    therefore sums one block value per run of equal splits, weighted by the
    run length (cesaro_runs): at most (distinct support indices + 1) block
    evaluations, however large n is.
    """

    half_width: int
    base: StateSpec

    def __post_init__(self):
        if self.half_width < 0:
            raise InputError("cesaro half width must be >= 0")
        if not is_stationary_evaluable(self.base):
            raise InputError(
                "cesaro base must be shift invariant "
                "(trace, product, mixture, or cesaro)"
            )


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


def describe_state(state: StateSpec) -> str:
    if isinstance(state, Trace):
        return "trace"
    if isinstance(state, ProductState):
        inner = ", ".join(
            f"c_{l}={state.moments.moment(l)}"
            for l in state.moments.support()
            if l != 0
        )
        return f"product({inner or 'lebesgue'})"
    if isinstance(state, BlockProductState):
        return f"block(n={state.half_width}, base={describe_state(state.base)})"
    if isinstance(state, CesaroState):
        return f"cesaro(n={state.half_width}, base={describe_state(state.base)})"
    if isinstance(state, MixtureState):
        inner = " + ".join(f"{w}*{describe_state(p)}" for w, p in state.parts)
        return f"mixture({inner})"
    raise InputError(f"unknown state kind {type(state).__name__}")


def validate_state(state: StateSpec, beta: DeformationParameter,
                   *, float_mode: bool = False) -> None:
    """Reject states that cannot be evaluated at the given deformation.

    Exact mode insists on exact admissible moments; float mode downgrades
    inadmissibility to a warning so that non-states can be negative-tested.
    """
    iso = isotropy(beta)

    def visit(s: StateSpec):
        if isinstance(s, Trace):
            return
        if isinstance(s, ProductState):
            if not float_mode and not s.moments.exact:
                raise InputError("float moments need float mode")
            if not s.moments.is_admissible(iso):
                msg = (
                    f"moments supported outside the isotropy subgroup {iso} "
                    "are inadmissible; the product functional is not a state"
                )
                if float_mode:
                    warnings.warn(msg)
                else:
                    raise InadmissibleMomentsError(msg)
            return
        if isinstance(s, (BlockProductState, CesaroState)):
            visit(s.base)
            return
        if isinstance(s, MixtureState):
            for _, p in s.parts:
                visit(p)
            return
        raise InputError(f"unknown state kind {type(s).__name__}")

    visit(state)


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


def evaluate_word(state: StateSpec, word: Word, algebra: TorusAlgebra) -> PhaseCoefficient:
    """Exact value of the state on one normal-form word."""
    if isinstance(state, Trace):
        return PC_ONE if not word else PC_ZERO
    if isinstance(state, ProductState):
        moments = state.moments
        acc = QQI_ONE
        for _, e in word:
            c = moments.moment(e)
            if c.is_zero():
                return PC_ZERO
            acc = acc * c
        return PhaseCoefficient.from_qqi(acc)
    if isinstance(state, BlockProductState):
        iso = algebra.isotropy
        span = 2 * state.half_width + 1
        acc = PC_ONE
        for r, deg, block in _block_split(word, state.half_width):
            if not iso.contains(deg):
                return PC_ZERO
            v = evaluate_word(state.base, word_translate(block, -r * span), algebra)
            if not v._terms:
                return PC_ZERO
            acc = acc * v
        return acc
    if isinstance(state, CesaroState):
        n = state.half_width
        inner = BlockProductState(n, state.base)
        acc = PC_ZERO
        for k, count in cesaro_runs(word, n):
            v = evaluate_word(inner, word_translate(word, k), algebra)
            if v._terms:
                acc = acc + v * count
        return acc * Fraction(1, 2 * n + 1)
    if isinstance(state, MixtureState):
        acc = PC_ZERO
        for w, part in state.parts:
            v = evaluate_word(part, word, algebra)
            if v._terms:
                acc = acc + v * w
        return acc
    raise InputError(f"unknown state kind {type(state).__name__}")


def evaluate(state: StateSpec, x: Element) -> PhaseCoefficient:
    """Exact value of the state on an element.

    Terms are visited in sorted word order, so the (exact) result is
    reproducible independently of dict history.
    """
    validate_state(state, x.algebra.beta)
    total = PC_ZERO
    for word, coeff in sorted(x._terms.items()):
        v = evaluate_word(state, word, x.algebra)
        if v._terms:
            total = total + coeff * v
    return total


def evaluate_word_float(state: StateSpec, word: Word, algebra: TorusAlgebra,
                        beta_value=None) -> complex:
    """Floating value of the state on one normal-form word."""
    if isinstance(state, Trace):
        return 1 + 0j if not word else 0j
    if isinstance(state, ProductState):
        moments = state.moments
        acc = 1 + 0j
        for _, e in word:
            c = moments.moment(e)
            c = complex(c) if isinstance(c, QQi) else c
            if c == 0:
                return 0j
            acc *= c
        return acc
    if isinstance(state, BlockProductState):
        iso = algebra.isotropy
        span = 2 * state.half_width + 1
        acc = 1 + 0j
        for r, deg, block in _block_split(word, state.half_width):
            if not iso.contains(deg):
                return 0j
            acc *= evaluate_word_float(
                state.base, word_translate(block, -r * span), algebra, beta_value
            )
        return acc
    if isinstance(state, CesaroState):
        n = state.half_width
        inner = BlockProductState(n, state.base)
        acc = 0j
        for k, count in cesaro_runs(word, n):
            acc += count * evaluate_word_float(
                inner, word_translate(word, k), algebra, beta_value
            )
        return acc / (2 * n + 1)
    if isinstance(state, MixtureState):
        return sum(
            float(w) * evaluate_word_float(part, word, algebra, beta_value)
            for w, part in state.parts
        )
    raise InputError(f"unknown state kind {type(state).__name__}")


def evaluate_float(state: StateSpec, x: Element, beta_value=None) -> complex:
    """Floating value of the state on an element (1e-9 comparison tolerance)."""
    validate_state(state, x.algebra.beta, float_mode=True)
    total = 0j
    for word, coeff in sorted(x._terms.items()):
        v = evaluate_word_float(state, word, x.algebra, beta_value)
        if v != 0:
            total += coeff.to_complex(beta_value) * v
    return total


def clustering_gap(state: StateSpec, x: Element, y: Element,
                   distance: int) -> PhaseCoefficient:
    """phi(x * tau^distance(y)) - phi(x) * phi(y), exactly."""
    shifted = translate(y, distance)
    return evaluate(state, x * shifted) - evaluate(state, x) * evaluate(state, y)


def clustering_gap_float(state: StateSpec, x: Element, y: Element,
                         distance: int, beta_value=None) -> complex:
    shifted = translate(y, distance)
    return evaluate_float(state, x * shifted, beta_value) - evaluate_float(
        state, x, beta_value
    ) * evaluate_float(state, y, beta_value)


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
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return float(Fraction(value))
    raise InputError(f"bad numeric value {value!r}")


def state_to_json(state: StateSpec) -> dict:
    """Structured description; inverse of state_from_json for exact states."""
    if isinstance(state, Trace):
        return {"kind": "trace"}
    if isinstance(state, ProductState):
        if not state.moments.exact:
            raise InputError("only exact moments serialize")
        rows = []
        for l in state.moments.support():
            c = state.moments.moment(l)
            rows.append([l, _rational_to_json(c.re), _rational_to_json(c.im)])
        return {"kind": "product", "moments": rows}
    if isinstance(state, BlockProductState):
        return {
            "kind": "block",
            "n": state.half_width,
            "base": state_to_json(state.base),
        }
    if isinstance(state, CesaroState):
        return {
            "kind": "cesaro",
            "n": state.half_width,
            "base": state_to_json(state.base),
        }
    if isinstance(state, MixtureState):
        return {
            "kind": "mixture",
            "parts": [
                [_rational_to_json(w), state_to_json(p)] for w, p in state.parts
            ],
        }
    raise InputError(f"unknown state kind {type(state).__name__}")


def _half_width_from_json(obj: dict) -> int:
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError(f"{obj['kind']} state needs an integer 'n', got {n!r}")
    return n


def state_from_json(obj, *, exact: bool = True) -> StateSpec:
    """Build a state from its structured description."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("a state description is an object with a 'kind'")
    kind = obj["kind"]
    if kind == "trace":
        return TRACE
    if kind == "product":
        rows = obj.get("moments", [])
        moments = {}
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != 3:
                raise InputError("each moment row is [l, re, im]")
            l = int(row[0])
            re = _scalar_from_json(row[1], exact)
            im = _scalar_from_json(row[2], exact)
            moments[l] = QQi(re, im) if exact else complex(re, im)
        return ProductState(MomentSequence(moments, exact=exact))
    if kind == "block":
        return BlockProductState(
            _half_width_from_json(obj), state_from_json(obj.get("base"), exact=exact)
        )
    if kind == "cesaro":
        return CesaroState(
            _half_width_from_json(obj), state_from_json(obj.get("base"), exact=exact)
        )
    if kind == "mixture":
        parts = []
        for row in obj.get("parts", []):
            if not isinstance(row, (list, tuple)) or len(row) != 2:
                raise InputError("each mixture part is [weight, state]")
            parts.append(
                (_rational_from_json(row[0]), state_from_json(row[1], exact=exact))
            )
        return MixtureState(tuple(parts))
    raise InputError(f"unknown state kind {kind!r}")


def load_state(path, *, exact: bool = True) -> StateSpec:
    """Read a state description file (JSON per the structured schema)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad state file {path}: {exc}") from None
    return state_from_json(obj, exact=exact)
