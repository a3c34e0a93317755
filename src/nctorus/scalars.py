"""Exact scalars: Gaussian rationals and finite sums of rational-angle phases.

The coefficient ring of the engine is spanned by unit phases
e^(2*pi*i*(q + m*beta)) with q rational and m an integer.  m stays zero for
rational beta (the twist folds into the angle) and is purely symbolic for
irrational beta.  Sums of rational-angle phases can cancel without equal
angles (all primitive L-th roots of unity sum to an integer), L the least
common denominator of the angles.  Zero tests work prime by prime on the
terms present, at a cost in terms rather than in L.  One descent, also in
terms, finds the conductor d of a sum, the least d whose cyclotomic field
holds it: the Gaussian value is read there when d is 1 or 4, and the
canonical form that printing uses is the residue modulo Phi_d there.
"""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction
from itertools import accumulate, compress
from math import gcd, lcm, pi
from operator import add, sub

from .deformation import MAX_LEVEL, InputError, _Record, factorize

_F0 = Fraction(0)
_F1 = Fraction(1)
_QUARTER = Fraction(1, 4)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


class QQi(_Record):
    """Gaussian rational a + b*i with exact rational parts; immutable."""

    __slots__ = _fields = ("re", "im")

    def __init__(self, re=_F0, im=_F0):
        setattr_ = object.__setattr__
        setattr_(self, "re", re if isinstance(re, Fraction) else _as_fraction(re))
        setattr_(self, "im", im if isinstance(im, Fraction) else _as_fraction(im))

    @classmethod
    def of(cls, x) -> QQi:
        return x if isinstance(x, QQi) else cls(_as_fraction(x))

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
        if not self.im and not other.im:  # two real operands: one product
            return QQi(self.re * other.re, _F0)
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


def _times_one_minus(c: list[int], d: int) -> None:
    """c *= 1 - y**d as a power series truncated at len(c), in place."""
    c[d:] = map(sub, c[d:], c[:-d])


def _over_one_minus(c: list[int], d: int) -> None:
    """c /= 1 - y**d as a power series truncated at len(c), in place: running
    sums with stride d, one slice per residue class mod d, or per chunk of d
    when there are fewer chunks than classes."""
    n = len(c)
    if d * d <= n:
        for r in range(d):
            c[r::d] = accumulate(c[r::d])
    else:
        for i in range(d, n, d):
            c[i:i + d] = map(add, c[i:i + d], c[i - d:i])


def _mobius_divisors(primes) -> list[tuple[int, int]]:
    """(d, mu(rad/d)) over the divisors d of the squarefree rad > 1 with these
    primes: Phi_rad(y) = prod (1 - y**d)**mu(rad/d), a power series identity.
    Each d comes next to d*p for the first prime p, which keeps the
    coefficients of the partial products small."""
    divisors = [(1, 1)]
    for p in primes:
        divisors += [(d * p, -mu) for d, mu in divisors]
    if len(primes) % 2:
        divisors = [(d, -mu) for d, mu in divisors]
    return divisors


def _times_phi(c: list[int], divisors, power: int) -> None:
    """c *= Phi_rad**power (power 1 or -1) truncated at len(c), in place, for
    the _mobius_divisors of rad: one helper pass per divisor below len(c)."""
    for d, mu in divisors:
        if d < len(c):
            if mu == power:
                _times_one_minus(c, d)
            else:
                _over_one_minus(c, d)


def _add_into(out: dict, key, r) -> None:
    """out[key] += r, dropping the entry when it cancels."""
    acc = out.get(key)
    acc = r if acc is None else acc + r
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


def _buckets(terms: dict) -> dict[int, dict[Fraction, Fraction]]:
    """Angle terms {q: r} grouped by their symbolic power m."""
    buckets: dict[int, dict[Fraction, Fraction]] = {}
    for (q, m), r in terms.items():
        buckets.setdefault(m, {})[q] = r
    return buckets


def _exponents(bucket: dict[Fraction, Fraction]):
    """(L, {a: r}) with sum r*e(q) = sum r*zeta_L**a, L the least common denominator."""
    level = lcm(*(q.denominator for q in bucket))
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
                _add_into(diff, a, -r)
            if not _vanishes(diff, rest, factors):
                return False
    return True


def _angles_vanish(bucket: dict[Fraction, Fraction]) -> bool:
    if len(bucket) < 2:
        return not bucket
    level, terms = _exponents(bucket)
    return _vanishes(terms, level, factorize(level))


def _by_exponent(pairs) -> tuple[list[int], list[int]]:
    """Parallel exponent and weight lists of (a, n) pairs, by increasing a."""
    pairs = sorted(pairs)
    return [a for a, _ in pairs], [n for _, n in pairs]


def _half_turn(exps: list[int], ns: list[int], level: int) -> tuple[list[int], list[int]]:
    """n*zeta**a = -n*zeta**(a + level/2) wherever a/level has a denominator
    of 2 mod 4, that is where a has one factor 2 less than level; the
    identity for odd level."""
    half = level & -level
    if half == 1:
        return exps, ns
    out: dict[int, int] = {}
    for a, n in zip(exps, ns):
        if a % half == half >> 1:
            a, n = (a + level // 2) % level, -n
        _add_into(out, a, n)
    return _by_exponent(out.items())


def _conductor(bucket: dict[Fraction, Fraction]) -> tuple[int, dict[int, Fraction]]:
    """(d, {a: r}) with sum r*e(q) = sum r*zeta_d**a over nonzero r, d the
    conductor: the least d whose cyclotomic field Q(zeta_d) holds the sum.

    Descends from L one prime p | L at a time while one _vanishes call finds
    the sum equal to its projection onto Q(zeta_(L/p)), the relative trace
    over its degree.  Where p**2 | L, or p || L and a class b != 0 of
    exponents mod p is empty, the classes b != 0 must vanish one by one (a
    single term never does), and the projection keeps the terms with p | a,
    at a/p.  Otherwise zeta_L**a = zeta_p**b * zeta_(L/p)**c, c = a/p mod
    L/p, and zeta_p**b becomes 1 for b = 0 and -1/(p-1) else, with no test
    for p = 2 (degree 1).  A prime that fails once fails at every lower
    level, and Q(zeta_a) meets Q(zeta_b) in Q(zeta_gcd(a, b)), so one pass
    over the primes of L ends at the conductor.
    """
    level, terms = _exponents(bucket)
    powers = dict(factorize(level))
    for p in list(powers):
        while powers[p] and terms:
            rest = level // p
            classes = Counter(a % p for a in terms if a % p)
            if powers[p] > 1 or len(classes) < p - 1:
                if 1 in classes.values():
                    break
                proj = {a // p: r for a, r in terms.items() if a % p == 0}
                diff = {a: r for a, r in terms.items() if a % p}
            else:
                inv, share = pow(p, -1, rest), Fraction(-1, p - 1)
                proj = {}
                for a, r in terms.items():
                    _add_into(proj, a * inv % rest, r if a % p == 0 else r * share)
                diff = dict(terms)
                for c, r in proj.items():
                    _add_into(diff, c * p, -r)
            if diff and (p > 2 or powers[p] > 1) and not _vanishes(
                    diff, level, tuple((q, k) for q, k in powers.items() if k)):
                break
            level, terms = rest, proj
            powers[p] -= 1
    return (level, terms) if terms else (1, {})


def _power_basis(terms: dict[int, int], level: int) -> tuple[list[int], list[int]]:
    """Remainder of sum n * x**a modulo Phi_level, read from the nearer end,
    as its exponents in increasing order and their nonzero weights.

    Phi_level(x) = Phi_rad(y) for y = x**s, s = level/rad and rad the
    squarefree kernel of level, so each class a = s*j + r, r < s, is a
    polynomial in y reduced on its own modulo Phi_rad, of degree
    D = phi(rad), the width of its remainder.  An exponent j >= D nearer D
    than rad gets k = j - D + 1; the others are read as y**-k, k = rad - j,
    as y**rad = 1 modulo Phi_rad.
    On each side, with H = sum n * y**(K-k), K the largest k, and
    q = H/Phi_rad mod y**K, P = reverse(q) * Phi_rad mod y**D is subtracted
    from the remainder:
    - near D, H is the reverse of those terms and reverse(q) the quotient of
      their long division, as Phi_rad is palindromic;
    - near rad, y**K times the remainder is H - q*Phi_rad, whose top D
      coefficients are those of -P read backward, so P is subtracted reversed.
    Each quotient and product is one pass per divisor of rad (_times_phi),
    so a class costs O(2**omega(rad) * (K + D)) wherever its exponents lie.
    A squarefree level has the one class, whose remainder is already in
    exponent order; the other cases sort their terms once.
    """
    factors = factorize(level)
    rad = deg = 1
    for p, k in factors:
        rad *= p
        deg *= p ** (k - 1) * (p - 1)
    if all(a < deg for a in terms):
        return _by_exponent(terms.items())
    if rad > MAX_LEVEL:
        raise InputError(f"cyclotomic level {rad} exceeds the limit {MAX_LEVEL}")
    stride, width = level // rad, deg * rad // level
    divisors = _mobius_divisors([p for p, _ in factors])
    classes: dict[int, dict[int, int]] = {}
    for a, n in terms.items():
        classes.setdefault(a % stride, {})[a // stride] = n
    out: list[tuple[int, int]] = []
    for r, cls in classes.items():
        if all(j < width for j in cls):
            out += ((j * stride + r, n) for j, n in cls.items())
            continue
        rem = [0] * width
        near_phi, near_rad = {}, {}
        for j, n in cls.items():
            if j < width:
                rem[j] = n
            elif rad - j > j - width:
                near_phi[j - width + 1] = n
            else:
                near_rad[rad - j] = n
        for side, backward in ((near_phi, False), (near_rad, True)):
            if side:
                high = max(side)
                q = [0] * high
                for k, n in side.items():
                    q[high - k] = n
                _times_phi(q, divisors, -1)
                q = q[::-1][:width]
                q += [0] * (width - len(q))
                _times_phi(q, divisors, 1)
                rem = list(map(sub, rem, q[::-1] if backward else q))
        if stride == 1:
            return list(compress(range(deg), rem)), list(compress(rem, rem))
        out += compress(zip(range(r, deg, stride), rem), rem)
    return _by_exponent(out)


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
                if r:
                    _add_into(merged, (_as_fraction(q) % 1, m), r)
        self._terms = merged

    @classmethod
    def _make(cls, terms: dict) -> PhaseCoefficient:
        pc = object.__new__(cls)
        pc._terms = terms
        return pc

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
    def unit_angle(cls, q) -> PhaseCoefficient:
        """e^(2*pi*i*q) with rational q."""
        return cls._make({(_as_fraction(q) % 1, 0): _F1})

    @classmethod
    def symbolic_unit(cls, m: int) -> PhaseCoefficient:
        """e^(2*pi*i*m*beta) for symbolic beta."""
        return cls._make({(_F0, m): _F1})

    def is_zero(self) -> bool:
        if len(self._terms) < 2:
            return not self._terms
        return all(_angles_vanish(b) for b in _buckets(self._terms).values())

    def __bool__(self) -> bool:
        return not self.is_zero()

    @staticmethod
    def _coerce(other) -> PhaseCoefficient | None:
        """An exact operand as a PhaseCoefficient: an int, Fraction, QQi or
        PhaseCoefficient; None for anything else, floats and complexes too."""
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
            _add_into(out, key, r)
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
                q = (q1 + q2) % 1 if q1 and q2 else q1 or q2  # angles lie in [0, 1)
                _add_into(out, (q, m1 + m2), r1 * r2)
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

    def canonical_form(self) -> list[tuple[int, int, int, list[int], list[int]]]:
        """(m, d, den, exps, ns) per nonzero symbolic bucket by m: the bucket
        of E(m) is sum (n/den) * e(a/d) over the parallel lists exps and ns,
        exps increasing, d its conductor and the terms its residue modulo
        Phi_d rewritten by _half_turn, in lowest terms."""
        out = []
        buckets = _buckets(self._terms)
        for m in sorted(buckets):
            level, terms = _conductor(buckets[m])
            if terms:
                den = lcm(*(r.denominator for r in terms.values()))
                exps, ns = _half_turn(*_power_basis({a: r.numerator * (den // r.denominator)
                                                     for a, r in terms.items()}, level), level)
                g = gcd(den, *ns)
                if g > 1:
                    ns = [n // g for n in ns]
                out.append((m, level, den // g, exps, ns))
        return out

    def reduce(self) -> PhaseCoefficient:
        """Canonical form: each symbolic bucket in its cyclotomic power basis."""
        out: dict[tuple[Fraction, int], Fraction] = {}
        for m, level, den, exps, ns in self.canonical_form():
            weights = {n: Fraction(n, den) for n in set(ns)}
            for a, n in zip(exps, ns):
                out[(Fraction(a, level), m)] = weights[n]
        return PhaseCoefficient._make(out)

    def to_qqi(self) -> QQi | None:
        """The value as a Gaussian rational, or None when it is not one."""
        buckets = _buckets(self._terms)
        if any(m and not _angles_vanish(bucket) for m, bucket in buckets.items()):
            return None
        level, terms = _conductor(buckets.get(0, {}))
        if level not in (1, 4):  # the conductors of Q and Q(i), where zeta**a is 1, i, -1, -i
            return None
        return QQi(terms.get(0, _F0) - terms.get(2, _F0), terms.get(1, _F0) - terms.get(3, _F0))

    def to_rational(self) -> Fraction | None:
        z = self.to_qqi()
        if z is None or z.im:
            return None
        return z.re

    def to_complex(self) -> complex:
        """Numeric value; a symbolic twist power e(m*beta), m != 0, has none."""
        total = 0j
        for (q, m), r in self._terms.items():
            if m:
                raise InputError("symbolic twist power needs a numeric beta value")
            total += float(r) * cmath.exp(2j * pi * float(q))
        return total

    def __str__(self) -> str:
        from .expr import format_terms

        return format_terms([((), self)])

    def __repr__(self) -> str:
        return f"PhaseCoefficient({self._terms!r})"


PC_ZERO = PhaseCoefficient._make({})
PC_ONE = PhaseCoefficient._make({(_F0, 0): _F1})
