"""Exact scalars: Gaussian rationals and finite sums of rational-angle phases.

The coefficient ring of the engine is spanned by unit phases
e^(2*pi*i*(q + m*beta)) with q rational and m an integer.  m stays zero for
rational beta (the twist folds into the angle) and is purely symbolic for
irrational beta.  Sums of rational-angle phases can cancel without equal
angles (all primitive L-th roots of unity sum to an integer), so zero tests
and canonical forms reduce into the integral power basis of the L-th
cyclotomic field, L the least common denominator of the angles.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, pi

_F0 = Fraction(0)
_F1 = Fraction(1)
_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


@dataclass(frozen=True)
class QQi:
    """Gaussian rational a + b*i with exact rational parts."""

    re: Fraction = _F0
    im: Fraction = _F0

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    @classmethod
    def of(cls, x) -> QQi:
        if isinstance(x, QQi):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(Fraction(x), _F0)
        if isinstance(x, complex):
            return cls(Fraction(x.real), Fraction(x.imag))
        raise TypeError(f"cannot coerce {type(x).__name__} to QQi")

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> QQi:
        return QQi(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other) -> QQi:
        other = QQi.of(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> QQi:
        return QQi(-self.re, -self.im)

    def __sub__(self, other) -> QQi:
        return self + (-QQi.of(other))

    def __rsub__(self, other) -> QQi:
        return QQi.of(other) + (-self)

    def __mul__(self, other) -> QQi:
        other = QQi.of(other)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> QQi:
        other = QQi.of(other)
        n2 = other.abs2()
        if not n2:
            raise ZeroDivisionError("division by zero Gaussian rational")
        conj = other.conjugate()
        prod = self * conj
        return QQi(prod.re / n2, prod.im / n2)

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


QQI_ZERO = QQi(_F0, _F0)
QQI_ONE = QQi(_F1, _F0)
QQI_I = QQi(_F0, _F1)


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    rad = 1
    for p in primes:
        rad *= p
    if rad != n:
        # Phi_n(x) = Phi_rad(x**(n/rad)) for rad the squarefree kernel of n
        stride = n // rad
        out = [0] * ((len(cyclotomic_polynomial(rad)) - 1) * stride + 1)
        for j, c in enumerate(cyclotomic_polynomial(rad)):
            out[j * stride] = c
        return tuple(out)
    # squarefree n > 1: Phi_n = prod over d | n of (1 - x**d)**mu(n/d), a
    # power series identity that is exact once truncated past degree phi(n)
    deg = 1
    for p in primes:
        deg *= p - 1
    poly = [1] + [0] * deg
    divisors = [(1, 1)]  # (d, mu(n/d) * mu(n)) built up prime by prime
    for p in primes:
        divisors += [(d * p, -sign) for d, sign in divisors]
    if len(primes) % 2:
        divisors = [(d, -sign) for d, sign in divisors]
    for d, sign in divisors:
        if sign > 0:  # times (1 - x**d)
            for i in range(deg, d - 1, -1):
                poly[i] -= poly[i - d]
        else:  # divided by (1 - x**d): running sums with stride d
            for i in range(d, deg + 1):
                poly[i] += poly[i - d]
    return tuple(poly)


def _cyclotomic_residue(vec: list[Fraction], order: int) -> list[Fraction]:
    """Remainder of sum vec[j]*x**j modulo the order-th cyclotomic polynomial."""
    mod = cyclotomic_polynomial(order)
    deg = len(mod) - 1
    work = list(vec)
    if len(work) < deg:
        work.extend([_F0] * (deg - len(work)))
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            work[i] = _F0
            base = i - deg
            for j in range(deg):
                if mod[j]:
                    work[base + j] -= c * mod[j]
    return work[:deg]


def _half_normalize(q: Fraction, r: Fraction) -> tuple[Fraction, Fraction]:
    # e(q) = -e(q + 1/2); rewrite angles with denominator 2 mod 4 so the
    # working cyclotomic level is never twice an odd number
    if q.denominator % 4 == 2:
        return (q + _HALF) % 1, -r
    return q, r


def _merge_normalized(pairs) -> dict[Fraction, Fraction]:
    out: dict[Fraction, Fraction] = {}
    for q, r in pairs:
        q2, r2 = _half_normalize(q, r)
        acc = out.get(q2, _F0) + r2
        if acc:
            out[q2] = acc
        elif q2 in out:
            del out[q2]
    return out


def _angle_lcm(terms: dict[Fraction, Fraction]) -> int:
    level = 1
    for q in terms:
        level = lcm(level, q.denominator)
    return level


def _angle_vector(terms: dict[Fraction, Fraction], level: int) -> list[Fraction]:
    vec = [_F0] * level
    for q, r in terms.items():
        vec[int(q * level)] += r
    return vec


def _angle_terms_are_zero(terms: dict[Fraction, Fraction]) -> bool:
    if not terms:
        return True
    if len(terms) == 1:
        return False
    level = _angle_lcm(terms)
    if level == 1:
        return not sum(terms.values())
    return not any(_cyclotomic_residue(_angle_vector(terms, level), level))


def _reduce_angle_terms(bucket: dict[Fraction, Fraction]) -> dict[Fraction, Fraction]:
    terms = _merge_normalized(bucket.items())
    for _ in range(64):
        if not terms:
            return {}
        level = _angle_lcm(terms)
        if level == 1:
            return terms
        res = _cyclotomic_residue(_angle_vector(terms, level), level)
        nxt = _merge_normalized(
            (Fraction(j, level), c) for j, c in enumerate(res) if c
        )
        if nxt == terms:
            return terms
        terms = nxt
    raise AssertionError("cyclotomic reduction did not stabilize")


_QUARTER_VALUES = {
    Fraction(0): QQI_ONE,
    _QUARTER: QQI_I,
    _HALF: QQi(Fraction(-1), _F0),
    Fraction(3, 4): QQi(_F0, Fraction(-1)),
}


class PhaseCoefficient:
    """Exact scalar: a finite sum of terms r * e^(2*pi*i*(q + m*beta)).

    Terms with equal (q mod 1, m) are merged and rational zeros dropped on
    construction; deeper cyclotomic cancellations are caught by is_zero and
    by reduce, and equality is the vanishing of the difference, which keeps
    it exact and decidable in both beta modes.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        merged: dict[tuple[Fraction, int], Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (q, m), r in items:
                r = _as_fraction(r)
                if not r:
                    continue
                key = (_as_fraction(q) % 1, m)
                acc = merged.get(key, _F0) + r
                if acc:
                    merged[key] = acc
                elif key in merged:
                    del merged[key]
        self._terms = merged

    @classmethod
    def _make(cls, terms: dict) -> PhaseCoefficient:
        pc = object.__new__(cls)
        pc._terms = terms
        return pc

    @classmethod
    def zero(cls) -> PhaseCoefficient:
        return PC_ZERO

    @classmethod
    def one(cls) -> PhaseCoefficient:
        return PC_ONE

    @classmethod
    def from_rational(cls, r) -> PhaseCoefficient:
        r = _as_fraction(r)
        if not r:
            return PC_ZERO
        return cls._make({(_F0, 0): r})

    @classmethod
    def from_qqi(cls, z: QQi) -> PhaseCoefficient:
        terms = {}
        if z.re:
            terms[(_F0, 0)] = z.re
        if z.im:
            terms[(_QUARTER, 0)] = z.im
        return cls._make(terms)

    @classmethod
    def unit_angle(cls, q, r=1) -> PhaseCoefficient:
        """r * e^(2*pi*i*q) with rational q."""
        r = _as_fraction(r)
        if not r:
            return PC_ZERO
        return cls._make({(_as_fraction(q) % 1, 0): r})

    @classmethod
    def symbolic_unit(cls, m: int) -> PhaseCoefficient:
        """e^(2*pi*i*m*beta) for symbolic beta."""
        if m == 0:
            return PC_ONE
        return cls._make({(_F0, m): _F1})

    def is_zero(self) -> bool:
        if not self._terms:
            return True
        buckets: dict[int, dict[Fraction, Fraction]] = {}
        for (q, m), r in self._terms.items():
            buckets.setdefault(m, {})[q] = r
        return all(_angle_terms_are_zero(b) for b in buckets.values())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, PhaseCoefficient):
            return other
        if isinstance(other, (int, Fraction)):
            return PhaseCoefficient.from_rational(other)
        if isinstance(other, QQi):
            return PhaseCoefficient.from_qqi(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for key, r in other._terms.items():
            acc = out.get(key, _F0) + r
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
        return PhaseCoefficient._make(out)

    __radd__ = __add__

    def __neg__(self):
        return PhaseCoefficient._make({k: -r for k, r in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = _as_fraction(other)
            if not r:
                return PC_ZERO
            return PhaseCoefficient._make(
                {k: c * r for k, c in self._terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[Fraction, int], Fraction] = {}
        for (q1, m1), r1 in self._terms.items():
            for (q2, m2), r2 in other._terms.items():
                key = ((q1 + q2) % 1, m1 + m2)
                acc = out.get(key, _F0) + r1 * r2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return PhaseCoefficient._make(out)

    __rmul__ = __mul__

    def conjugate(self) -> PhaseCoefficient:
        out = {}
        for (q, m), r in self._terms.items():
            out[((-q) % 1, -m)] = r
        return PhaseCoefficient._make(out)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._terms == other._terms:
            return True
        return (self - other).is_zero()

    __hash__ = None

    def reduce(self) -> PhaseCoefficient:
        """Canonical form: each symbolic bucket in its cyclotomic power basis."""
        buckets: dict[int, dict[Fraction, Fraction]] = {}
        for (q, m), r in self._terms.items():
            buckets.setdefault(m, {})[q] = r
        out: dict[tuple[Fraction, int], Fraction] = {}
        for m, bucket in buckets.items():
            for q, r in _reduce_angle_terms(bucket).items():
                out[(q, m)] = r
        return PhaseCoefficient._make(out)

    def canonical_terms(self) -> list[tuple[Fraction, int, Fraction]]:
        """Reduced (angle, symbolic power, rational weight) triples, sorted."""
        red = self.reduce()
        return sorted(
            ((q, m, r) for (q, m), r in red._terms.items()),
            key=lambda t: (t[1], t[0]),
        )

    def to_qqi(self) -> QQi | None:
        """The value as a Gaussian rational, or None when it is not one."""
        buckets: dict[int, dict[Fraction, Fraction]] = {}
        for (q, m), r in self._terms.items():
            buckets.setdefault(m, {})[q] = r
        for m, bucket in buckets.items():
            if m != 0 and not _angle_terms_are_zero(bucket):
                return None
        terms = _reduce_angle_terms(buckets.get(0, {}))
        if all(q in _QUARTER_VALUES for q in terms):
            val = QQI_ZERO
            for q, r in terms.items():
                val = val + _QUARTER_VALUES[q] * r
            return val
        return _solve_gaussian(terms)

    def to_rational(self) -> Fraction | None:
        z = self.to_qqi()
        if z is None or z.im:
            return None
        return z.re

    def to_complex(self, beta_value=None) -> complex:
        """Numeric value; symbolic twist powers need a numeric beta."""
        total = 0j
        for (q, m), r in self._terms.items():
            ang = float(q)
            if m:
                if beta_value is None:
                    raise ValueError(
                        "symbolic twist power needs a numeric beta value"
                    )
                ang += float(beta_value) * m
            total += float(r) * cmath.exp(2j * pi * ang)
        return total

    def __str__(self) -> str:
        triples = self.canonical_terms()
        if not triples:
            return "0"
        parts = []
        for q, m, r in triples:
            bits = []
            if q:
                bits.append(f"e({q})")
            if m:
                bits.append(f"E({m})")
            if r != 1 or not bits:
                bits.insert(0, str(r))
            parts.append("*".join(bits))
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self) -> str:
        return f"PhaseCoefficient({self._terms!r})"


def _solve_gaussian(terms: dict[Fraction, Fraction]) -> QQi | None:
    # decide membership in Q(i) by solving v = a*[1] + b*[i] in the power
    # basis of the cyclotomic field at a level divisible by 4
    if not terms:
        return QQI_ZERO
    level = lcm(_angle_lcm(terms), 4)
    target = _cyclotomic_residue(_angle_vector(terms, level), level)
    ivec_raw = [_F0] * (level // 4 + 1)
    ivec_raw[level // 4] = _F1
    ivec = _cyclotomic_residue(ivec_raw, level)
    b = None
    for j in range(1, len(ivec)):
        if ivec[j]:
            b = target[j] / ivec[j]
            break
    if b is None:
        b = _F0
    a = target[0] - b * ivec[0]
    for j in range(len(target)):
        expect = b * ivec[j] + (a if j == 0 else _F0)
        if target[j] != expect:
            return None
    return QQi(a, b)


PC_ZERO = PhaseCoefficient._make({})
PC_ONE = PhaseCoefficient._make({(_F0, 0): _F1})
