"""Words and exact linear combinations in the twisted generators.

A word is a tuple of (index, exponent) factors.  Normal form sorts indices
ascending and merges repeats, collecting the commutation twist as an integer
exponent: swapping adjacent factors u_k^a u_l^b with k > l costs the phase
e^(-2*pi*i*beta*a*b).  Elements are finite sums of normal-form words with
PhaseCoefficient coefficients; zero coefficients are dropped on construction,
so equality is per-word coefficient equality.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Iterable

from .deformation import DeformationParameter, InputError, isotropy
from .scalars import PC_ONE, PC_ZERO, PhaseCoefficient

Word = tuple[tuple[int, int], ...]
EMPTY_WORD: Word = ()
# Largest product of two elements, in pairs of coefficient terms: each factor
# counts the terms of all its coefficients, so a product of phase sums counts
# like one of words.  The tests, demos and benchmark workloads form at most
# 50; 14 binomials on distinct generators, 2**14 pairs in the last product,
# expand and print in about 0.8 s.
MAX_PRODUCT_PAIRS = 2**14


def split_at(word: Word, index: int) -> tuple[Word, int, Word, int]:
    """Where u_index goes in a normal-form word.

    Returns (head, exponent at index, tail, exponent sum of tail): head holds
    the lower indices and tail the higher ones, so a factor u_index^e
    appended to the word moves left past tail, costing -e times its exponent
    sum on the twist, and merges into index.
    """
    k = bisect_left(word, (index,))
    if k < len(word) and word[k][0] == index:
        head, old, tail = word[:k], word[k][1], word[k + 1:]
    else:
        head, old, tail = word[:k], 0, word[k:]
    return head, old, tail, word_degree(tail)


def normal_form(factors: Iterable[tuple[int, int]],
                word: Word = ()) -> tuple[int, Word]:
    """Normal-order a factor sequence appended to a normal-form word.

    Returns (twist, nf) such that word times the input product equals
    e^(2*pi*i*beta*twist) times the ascending-index product nf, for every
    deformation parameter.  Each factor is appended in turn (split_at):
    merging equal indices costs nothing and indices whose exponents cancel
    to zero are elided.  Appending is linear in the word, so a sequence of n
    factors costs O(n^2) in the worst case.
    """
    twist = 0
    for i, e in factors:
        if e:
            head, old, tail, above = split_at(word, i)
            twist -= e * above
            total = old + e
            word = head + ((i, total),) + tail if total else head + tail
    return twist, word


def word_degree(word: Word) -> int:
    return sum(e for _, e in word)


def word_translate(word: Word, offset: int) -> Word:
    return tuple((i + offset, e) for i, e in word)


def _check_pairs(left: int, right: int) -> None:
    """Refuse a product whose factors hold left and right coefficient terms."""
    if left * right > MAX_PRODUCT_PAIRS:
        raise InputError(f"a product of {left} by {right} coefficient terms "
                         f"exceeds {MAX_PRODUCT_PAIRS} term pairs")


def _as_phase(x) -> PhaseCoefficient:
    pc = PhaseCoefficient._coerce(x)
    if pc is None:
        raise TypeError(f"cannot use {type(x).__name__} as a coefficient")
    return pc


class TorusAlgebra:
    """Fixes the deformation parameter; factory and context for elements."""

    __slots__ = ("beta", "isotropy", "_twist_cache")

    def __init__(self, beta: DeformationParameter):
        self.beta = beta
        self.isotropy = isotropy(beta)
        self._twist_cache: dict[int, PhaseCoefficient] = {0: PC_ONE}

    def twist_phase(self, exponent: int) -> PhaseCoefficient:
        """e^(2*pi*i*beta*exponent) as an exact scalar."""
        pc = self._twist_cache.get(exponent)
        if pc is None:
            beta = self.beta
            if beta.is_rational:
                pc = PhaseCoefficient.unit_angle(
                    Fraction(beta.numerator * exponent, beta.denominator))
            else:
                pc = PhaseCoefficient.symbolic_unit(exponent)
            self._twist_cache[exponent] = pc
        return pc

    def zero(self) -> Element:
        return Element(self, {}, canonical=True)

    def one(self) -> Element:
        return Element(self, {EMPTY_WORD: PC_ONE}, canonical=True)

    def scalar(self, value) -> Element:
        return Element(self, {EMPTY_WORD: _as_phase(value)})

    def u(self, index: int, exponent: int = 1) -> Element:
        if exponent == 0:
            return self.one()
        return Element(self, {((index, exponent),): PC_ONE}, canonical=True)

    def word(self, factors: Iterable[tuple[int, int]], coefficient=1) -> Element:
        """Element for one monomial, normal-ordered with its twist folded in."""
        acc: dict[Word, PhaseCoefficient] = {}
        self._accumulate(acc, _as_phase(coefficient), factors)
        return Element(self, acc)

    def _accumulate(self, acc: dict[Word, PhaseCoefficient], coeff: PhaseCoefficient,
                    factors: Iterable[tuple[int, int]], word: Word = ()) -> None:
        """Add coeff * word * factors to acc, normal-ordered, twist folded in."""
        twist, nf = normal_form(factors, word)
        if twist:
            coeff = coeff * self.twist_phase(twist)
        prev = acc.get(nf)
        acc[nf] = coeff if prev is None else prev + coeff

    def __repr__(self) -> str:
        return f"TorusAlgebra(beta={self.beta})"


class Element:
    """Finite sum of normal-form words with exact coefficients."""

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: TorusAlgebra, terms: dict[Word, PhaseCoefficient],
                 *, canonical: bool = False):
        if not canonical:
            terms = {w: c for w, c in terms.items() if not c.is_zero()}
        self.algebra = algebra
        self._terms = terms

    def terms(self) -> list[tuple[Word, PhaseCoefficient]]:
        return sorted(self._terms.items())

    def words(self) -> list[Word]:
        return sorted(self._terms)

    def coefficient(self, word: Word) -> PhaseCoefficient:
        return self._terms.get(word, PC_ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def support_indices(self) -> set[int]:
        out: set[int] = set()
        for w in self._terms:
            out.update(i for i, _ in w)
        return out

    def _check_same_algebra(self, other: Element):
        if other.algebra.beta != self.algebra.beta:
            raise InputError("elements live over different deformation parameters")

    def __add__(self, other) -> Element:
        if not isinstance(other, Element):
            other = self.algebra.scalar(other)
        self._check_same_algebra(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
        return Element(self.algebra, out)

    def __radd__(self, other) -> Element:
        return self + other

    def __neg__(self) -> Element:
        return Element(
            self.algebra, {w: -c for w, c in self._terms.items()}, canonical=True
        )

    def __sub__(self, other) -> Element:
        if not isinstance(other, Element):
            other = self.algebra.scalar(other)
        return self + (-other)

    def __rsub__(self, other) -> Element:
        return (-self) + other

    def _coefficient_terms(self) -> int:
        return sum(len(c._terms) for c in self._terms.values())

    def __mul__(self, other) -> Element:
        if not isinstance(other, Element):
            coeff = _as_phase(other)
            _check_pairs(self._coefficient_terms(), len(coeff._terms))
            return Element(
                self.algebra, {w: c * coeff for w, c in self._terms.items()}
            )
        self._check_same_algebra(other)
        _check_pairs(self._coefficient_terms(), other._coefficient_terms())
        accumulate = self.algebra._accumulate
        out: dict[Word, PhaseCoefficient] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                accumulate(out, c1 * c2, w2, w1)
        return Element(self.algebra, out)

    def __rmul__(self, other) -> Element:
        # scalars commute with everything; Element * Element goes via __mul__
        coeff = _as_phase(other)
        _check_pairs(len(coeff._terms), self._coefficient_terms())
        return Element(self.algebra, {w: coeff * c for w, c in self._terms.items()})

    def adjoint(self) -> Element:
        """Conjugate-linear involution: reverses words and negates exponents."""
        out: dict[Word, PhaseCoefficient] = {}
        for w, c in self._terms.items():
            self.algebra._accumulate(out, c.conjugate(), ((i, -e) for i, e in reversed(w)))
        return Element(self.algebra, out, canonical=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            coeff = PhaseCoefficient._coerce(other)
            if coeff is None:
                return NotImplemented
            other = Element(self.algebra, {EMPTY_WORD: coeff})
        if other.algebra.beta != self.algebra.beta:
            return False
        if self._terms.keys() != other._terms.keys():
            return False
        return all(c == other._terms[w] for w, c in self._terms.items())

    __hash__ = None

    def __str__(self) -> str:
        from .expr import format_element

        return format_element(self)

    def __repr__(self) -> str:
        return f"<Element {self}>"


def apply_gauge(x: Element, angle) -> Element:
    """Rotate every generator by e^(2*pi*i*angle), angle rational.

    A degree-m term picks up the phase e^(2*pi*i*m*angle).
    """
    if isinstance(angle, float):
        raise InputError("gauge rotation needs a rational angle")
    out: dict[Word, PhaseCoefficient] = {}
    for w, c in x._terms.items():
        q = Fraction(angle) * word_degree(w) % 1
        out[w] = c if not q else c * PhaseCoefficient.unit_angle(q)
    return Element(x.algebra, out, canonical=True)


def apply_index_map(x: Element, h: Callable[[int], int]) -> Element:
    """Relabel generator indices through a strictly increasing map.

    Order preservation means no new inversions, so coefficients are carried
    over unchanged.  Maps that fail to increase strictly on the support are
    rejected.
    """
    out: dict[Word, PhaseCoefficient] = {}
    for w, c in x._terms.items():
        new = tuple((h(i), e) for i, e in w)
        for (a, _), (b, _) in zip(new, new[1:]):
            if a >= b:
                raise InputError(
                    "index map is not strictly increasing on the support"
                )
        out[new] = c
    return Element(x.algebra, out, canonical=True)


def translate(x: Element, offset: int) -> Element:
    """Shift every generator index by a fixed offset."""
    out = {word_translate(w, offset): c for w, c in x._terms.items()}
    return Element(x.algebra, out, canonical=True)
