"""Deformation parameter arithmetic for the twisted shift algebra.

beta = alpha / (2*pi) is kept exact: a reduced fraction, or the symbolic tag
"irrational".  No floating approximation of beta ever enters the engine; the
rational/irrational dichotomy plus integer divisibility against the
denominator decide every phase question downstream.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter


class InputError(ValueError):
    """Rejected constructor or command input."""


class _Record:
    """Base of the package's immutable value classes.

    A subclass names its fields once, as __slots__ = _fields = (...), and
    may default its trailing fields in _defaults.  The one constructor binds
    positional arguments, then keywords, then _defaults, to the fields, and
    raises TypeError on too many arguments or an unknown, repeated or
    missing field.  A subclass that checks or coerces its input keeps its
    own __init__ and ends it with super().__init__(...); only QQi sets its
    fields itself, as its constructor runs on the arithmetic path.
    Equality, hash, repr and pickling come from the field tuple as for a
    frozen dataclass: records of different classes never compare equal, a
    record hashes as its field values' tuple; repr is Class(field=value, ...).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    @staticmethod
    def _astuple(record) -> tuple:
        """The record's field values, in field order."""
        return ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields")
        if fields:  # attrgetter reads every field in one C call
            get = attrgetter(*fields)
            cls._astuple = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # bind keywords, then _defaults
            cls = self.__class__.__qualname__
            if len(args) > len(fields):
                raise TypeError(f"{cls} has {len(fields)} fields, got {len(args)} arguments")
            values = dict(zip(fields, args))
            for name, value in kwargs.items():
                if name not in fields or name in values:
                    raise TypeError(f"{cls} got an unknown or repeated field {name!r}")
                values[name] = value
            values = dict(zip(reversed(fields), reversed(self._defaults))) | values
            missing = [name for name in fields if name not in values]
            if missing:
                raise TypeError(f"{cls} is missing field {missing[0]!r}")
            args = [values[name] for name in fields]
        setattr_ = object.__setattr__
        for name, value in zip(fields, args):
            setattr_(self, name, value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == self._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# Largest cyclotomic level accepted from input: the denominator of beta or
# of an angle e(p/q).  Factoring stays fast below it, and so does printing's
# reduction modulo Phi_L: its lists are shorter than rad(L), the squarefree
# kernel of L, and a rad(L) above this limit is refused.
MAX_LEVEL = 1 << 20


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive integer, sorted by prime."""
    if n < 1:
        raise InputError(f"cannot factor {n}: expected a positive integer")
    out: list[tuple[int, int]] = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


class DeformationParameter(_Record):
    """Reduced value of beta, or the symbolic irrational.

    In the rational case the denominator is positive, the fraction is in
    lowest terms, and the stored factorization multiplies back to the
    denominator.  The irrational case stores no numbers at all: the engine
    only ever uses that e^(2*pi*i*beta*m) = 1 forces m = 0 and that 1 and
    beta are rationally independent.
    """

    __slots__ = _fields = ("numerator", "denominator", "denominator_factors")
    _defaults = (None, None, None)

    @property
    def is_rational(self) -> bool:
        return self.numerator is not None

    def __str__(self) -> str:
        if not self.is_rational:
            return "irrational"
        return f"{self.numerator}/{self.denominator}"


IRRATIONAL = DeformationParameter()


def canonicalize(numerator: int, denominator: int) -> DeformationParameter:
    """Reduce numerator/denominator to lowest terms with positive denominator."""
    if denominator == 0:
        raise InputError("deformation parameter needs a nonzero denominator")
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    g = gcd(numerator, denominator)
    numerator //= g
    denominator //= g
    return DeformationParameter(numerator, denominator, factorize(denominator))


def parse_beta(text: str) -> DeformationParameter:
    """Parse "N/D", a bare integer, or the word "irrational"."""
    s = text.strip()
    if s == "irrational":
        return IRRATIONAL
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad deformation parameter {text!r}: {exc}") from None
    if f.denominator > MAX_LEVEL:
        raise InputError(
            f"deformation parameter {text!r}: denominator above the limit {MAX_LEVEL}"
        )
    return canonicalize(f.numerator, f.denominator)


class IsotropySubgroup(_Record):
    """The integers k whose squared twist beta*k*k is an integer.

    generator None encodes the trivial subgroup {0}; its annihilator in the
    circle is then the whole circle.  Otherwise the subgroup is generator*Z
    and the annihilator is the finite group of roots of unity of that order.
    """

    __slots__ = _fields = ("generator",)

    def contains(self, k: int) -> bool:
        if self.generator is None:
            return k == 0
        return k % self.generator == 0

    def __str__(self) -> str:
        if self.generator is None:
            return "{0}"
        return f"{self.generator}Z"


def isotropy(beta: DeformationParameter) -> IsotropySubgroup:
    """Isotropy subgroup of the squared twist at the given beta.

    For beta = N/D in lowest terms with D = prod p**m the generator is
    prod p**ceil(m/2), the least k with D | k*k; for symbolic beta the
    subgroup is trivial.
    """
    if not beta.is_rational:
        return IsotropySubgroup(None)
    n = 1
    for p, m in beta.denominator_factors:
        n *= p ** ((m + 1) // 2)
    return IsotropySubgroup(n)


def isotropy_generator_table(limit: int) -> list[int]:
    """Isotropy generator for every denominator 1..limit.

    Ceiling-exponent formula evaluated through a smallest-prime-factor
    sieve.  Entry 0 is a placeholder.
    """
    if limit < 1:
        raise InputError("limit must be >= 1")
    spf = list(range(limit + 1))
    p = 2
    while p * p <= limit:
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
        p += 1
    table = [0] * (limit + 1)
    table[1] = 1
    for d in range(2, limit + 1):
        p = spf[d]
        m = 0
        rest = d
        while rest % p == 0:
            rest //= p
            m += 1
        table[d] = p ** ((m + 1) // 2) * table[rest]
    return table
