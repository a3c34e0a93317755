"""Exact scalars: Gaussian rationals and finite sums of rational-angle phases.

The coefficient ring of the engine is spanned by unit phases
e^(2*pi*i*(q + m*beta)) with q rational and m an integer.  m stays zero for
rational beta (the twist folds into the angle) and is purely symbolic for
irrational beta.  Sums of rational-angle phases can cancel without equal
angles (all primitive L-th roots of unity sum to an integer), L the least
common denominator of the angles.  Zero tests and Gaussian values work
prime by prime on the terms present, at a cost in terms rather than in L;
the canonical form that printing uses reduces into the integral power
basis of the L-th cyclotomic field.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm, pi

from .deformation import MAX_LEVEL, InputError, factorize

_F0 = Fraction(0)
_F1 = Fraction(1)
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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    if n > MAX_LEVEL:
        raise InputError(f"cyclotomic level {n} exceeds the limit {MAX_LEVEL}")
    if n == 1:
        return (-1, 1)
    primes = [p for p, _ in factorize(n)]
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


def _buckets(terms: dict) -> dict[int, dict[Fraction, Fraction]]:
    """Angle terms {q: r} grouped by their symbolic power m."""
    buckets: dict[int, dict[Fraction, Fraction]] = {}
    for (q, m), r in terms.items():
        buckets.setdefault(m, {})[q] = r
    return buckets


def _exponents(bucket: dict[Fraction, Fraction], level: int = 1):
    """(L, {a: r}) with sum r*e(q) = sum r*zeta_L**a, L a multiple of level."""
    level = lcm(level, *(q.denominator for q in bucket))
    return level, {q.numerator * (level // q.denominator): r for q, r in bucket.items()}


def _vanishes(terms: dict, level: int, factors) -> bool:
    """Whether sum r * zeta_level**a over terms {a: r}, all r nonzero, is zero.

    Take the last prime power p**k of level = p**k * m.  Reading a as the
    pair (b, c) = (a mod p**k, a mod m) applies a Galois automorphism of
    Q(zeta_level), which keeps zero and nonzero apart, and gives
    sum_b x_b zeta_(p**k)**b with x_b = sum r zeta_m**c in Q(zeta_m).  The
    relations of zeta_(p**k) over Q(zeta_m) are the sums over the cosets
    b + p**(k-1)*Z, so the sum vanishes exactly when on every coset the p
    values x_b are equal: all present and equal, or, with one missing, all
    zero.  The recursion on m costs O(terms * omega(level)) for few terms.
    """
    if len(terms) < 2:  # a level-1 sum has one term at most
        return not terms
    p, k = factors[-1]
    factors = factors[:-1]
    pk = p**k
    rest = level // pk
    step = pk // p
    cosets: dict[int, dict[int, dict]] = {}
    for a, r in terms.items():
        b = a % pk
        cosets.setdefault(b % step, {}).setdefault(b, {})[a % rest] = r
    for coset in cosets.values():
        if len(coset) < p:
            if not all(_vanishes(x, rest, factors) for x in coset.values()):
                return False
            continue
        xs = sorted(coset.values(), key=len)
        base = xs[0]
        for x in xs[1:]:
            diff = dict(x)
            for a, r in base.items():
                acc = diff.get(a, 0) - r
                if acc:
                    diff[a] = acc
                else:
                    diff.pop(a, None)
            if not _vanishes(diff, rest, factors):
                return False
    return True


def _angles_vanish(bucket: dict[Fraction, Fraction]) -> bool:
    if len(bucket) < 2:
        return not bucket
    level, terms = _exponents(bucket)
    return _vanishes(terms, level, factorize(level))


def _mobius_over_phi(order: int, factors) -> Fraction:
    """mu(order) / phi(order) for order dividing prod p**k over factors."""
    sign, phi = 1, 1
    for p, _ in factors:
        if order % p == 0:
            order //= p
            if order % p == 0:
                return _F0
            sign, phi = -sign, phi * (p - 1)
    return Fraction(sign, phi)


def _gaussian_value(bucket: dict[Fraction, Fraction]) -> QQi | None:
    """sum r*e(q) as a Gaussian rational, or None when it is not one.

    At N = lcm(L, 4) a Gaussian v = re + i*im has Tr(v) = phi(N)*re and
    Tr(-i*v) = phi(N)*im, and Tr zeta_N**a = phi(N) * mu(d) / phi(d) for d the
    order of zeta_N**a (Ramanujan's sum).  The candidate is accepted when
    v - re - i*im vanishes.
    """
    if not bucket:
        return QQI_ZERO
    level, terms = _exponents(bucket, 4)
    factors = factorize(level)
    quarter = level // 4
    re = im = _F0
    for a, r in terms.items():
        re += r * _mobius_over_phi(level // gcd(a, level), factors)
        im += r * _mobius_over_phi(level // gcd(a - quarter, level), factors)
    for a, r in ((0, re), (quarter, im)):
        acc = terms.get(a, 0) - r
        if acc:
            terms[a] = acc
        else:
            terms.pop(a, None)
    return QQi(re, im) if _vanishes(terms, level, factors) else None


def _half_turn(terms: dict[int, int], level: int) -> dict[int, int]:
    """n*zeta**a = -n*zeta**(a + level/2) wherever a/level has a denominator
    of 2 mod 4, that is where a has one factor 2 less than level."""
    half = level & -level
    if half == 1:
        return terms
    out: dict[int, int] = {}
    for a, n in terms.items():
        if a % half == half >> 1:
            a, n = (a + level // 2) % level, -n
        acc = out.get(a, 0) + n
        if acc:
            out[a] = acc
        else:
            out.pop(a, None)
    return out


def _reduce_angles(bucket: dict[Fraction, Fraction]) -> tuple[int, int, list[tuple[int, int]]]:
    """Integer canonical form (L, den, [(a, n)] by a) of sum r*e(q), which
    is sum (n/den) * zeta_L**a.

    A level descent: rewrite by _half_turn, divide out a factor that every
    exponent shares with L, and reduce once modulo Phi_L into the exponents
    below phi(L).  A residue whose exponents share a factor with L descends
    again; any other, rewritten once more, is the canonical form, since the
    residue of that rewrite is the residue itself.  Each descent lowers L.
    """
    den = lcm(*(r.denominator for r in bucket.values()))
    level = lcm(*(q.denominator for q in bucket))
    terms = _half_turn({q.numerator * (level // q.denominator): r.numerator * (den // r.denominator)
                        for q, r in bucket.items()}, level)
    residue = False
    while terms:
        step = gcd(level, *terms)
        if step > 1:
            level //= step
            terms, residue = {a // step: n for a, n in terms.items()}, False
        elif residue or level == 1:
            break
        else:
            terms, residue = _half_turn(_power_basis(terms, level), level), True
    return level, den, sorted(terms.items())


def _power_basis(terms: dict[int, int], level: int) -> dict[int, int]:
    """Remainder of sum n * x**a modulo Phi_level, by sparse division from
    the nearer end.

    An exponent a at or above phi(level) that is nearer level than phi(level)
    is read as x**(a - level) and walked upward from the lowest:
    x**-1 = -sum_{j>=1} c_j x**(j-1) over the coefficients c_j of Phi_level,
    with c_0 = 1, so x**(level-1) costs one pass.  The others are walked
    downward from the top, as long division.  Both walks touch only the
    nonzero coefficients of Phi_level = Phi_rad(x**(level/rad)), rad the
    squarefree kernel of level.
    """
    factors = factorize(level)
    rad = deg = 1
    for p, k in factors:
        rad *= p
        deg *= p ** (k - 1) * (p - 1)
    if all(a < deg for a in terms):
        return terms
    stride = level // rad
    coeffs = [(j * stride, c) for j, c in enumerate(cyclotomic_polynomial(rad)) if c]
    work, down, up = dict(terms), [], []
    for a in terms:
        if a >= deg and level - a <= a - deg:
            work[a - level] = work.pop(a)
            up.append(a - level)
        elif a >= deg:
            down.append(-a)
    # x**t = x**(t - deg) * (x**deg - Phi) and x**b = x**(b + 1) * x**-1
    for heap, sign, shift, tail in ((down, -1, -deg, coeffs[:-1]), (up, 1, 0, coeffs[1:])):
        heapify(heap)
        while heap:
            top = sign * heappop(heap)
            n = work.pop(top)
            if not n:
                continue
            base = top + shift
            for j, c in tail:
                e = base + j
                prev = work.get(e)
                if prev is None:
                    work[e] = -n * c
                    if not 0 <= e < deg:
                        heappush(heap, sign * e)
                else:
                    work[e] = prev - n * c
    return {a: n for a, n in work.items() if n}


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
        if len(self._terms) < 2:
            return not self._terms
        return all(_angles_vanish(b) for b in _buckets(self._terms).values())

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

    def canonical_form(self) -> list[tuple[int, int, int, list[tuple[int, int]]]]:
        """(m, L, den, [(a, n)] by a) per symbolic bucket by m: the bucket of
        E(m) is sum (n/den) * e(a/L) in its cyclotomic power basis."""
        buckets = _buckets(self._terms)
        return [(m, *_reduce_angles(buckets[m])) for m in sorted(buckets)]

    def reduce(self) -> PhaseCoefficient:
        """Canonical form: each symbolic bucket in its cyclotomic power basis."""
        out: dict[tuple[Fraction, int], Fraction] = {}
        for m, level, den, terms in self.canonical_form():
            weights = {n: Fraction(n, den) for n in {n for _, n in terms}}
            for a, n in terms:
                out[(Fraction(a, level), m)] = weights[n]
        return PhaseCoefficient._make(out)

    def canonical_terms(self) -> list[tuple[Fraction, int, Fraction]]:
        """Reduced (angle, symbolic power, rational weight) triples, sorted."""
        return [(q, m, r) for (q, m), r in self.reduce()._terms.items()]

    def to_qqi(self) -> QQi | None:
        """The value as a Gaussian rational, or None when it is not one."""
        buckets = _buckets(self._terms)
        for m, bucket in buckets.items():
            if m != 0 and not _angles_vanish(bucket):
                return None
        return _gaussian_value(buckets.get(0, {}))

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
                    raise InputError(
                        "symbolic twist power needs a numeric beta value"
                    )
                ang += float(beta_value) * m
            total += float(r) * cmath.exp(2j * pi * ang)
        return total

    def __str__(self) -> str:
        from .expr import format_terms

        return format_terms([((), self)])

    def __repr__(self) -> str:
        return f"PhaseCoefficient({self._terms!r})"


PC_ZERO = PhaseCoefficient._make({})
PC_ONE = PhaseCoefficient._make({(_F0, 0): _F1})
