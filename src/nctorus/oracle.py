"""Independent verifiers for the exact engine.

Contains the deliberately naive or numeric counterparts of the fast paths:
an adjacent-transposition normal former, dense power-basis arithmetic in
the cyclotomic field for phase sums, with its own dense cyclotomic
polynomials and dense descent to the conductor, the literal average over all
2n+1 shifts for Cesaro states, divisibility scans and sieves for
the isotropy generator, a finite clock-and-shift matrix model of the
commutation relations, and exact (fraction LDL) or floating (eigensolve)
positivity checks for moment and Gram matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, pi
from typing import TYPE_CHECKING

from .algebra import MAX_PRODUCT_PAIRS, Element, TorusAlgebra, Word, word_translate
from .deformation import MAX_LEVEL, DeformationParameter, InputError, factorize
from .scalars import QQI_ZERO, QQI_ONE, PhaseCoefficient, QQi
from .states import (
    EXACT,
    BlockProductState,
    CesaroState,
    MomentSequence,
    StateSpec,
    evaluate_word,
    evaluator,
    scalar_field,
)

if TYPE_CHECKING:  # numpy loads on first use, not with the package
    import numpy as np


def brute_normal_form(factors) -> tuple[int, Word]:
    """Normal ordering one adjacent transposition at a time.

    Expands every power into unit factors, bubbles them into ascending index
    order (each swap of units with exponents e1, e2 costs -e1*e2 on the twist
    exponent), then merges.  Quadratic; exists to check
    algebra.normal_form.
    """
    units: list[tuple[int, int]] = []
    for i, e in factors:
        if e:
            step = 1 if e > 0 else -1
            units.extend([(i, step)] * abs(e))
    twist = 0
    changed = True
    while changed:
        changed = False
        for p in range(len(units) - 1):
            (i1, e1), (i2, e2) = units[p], units[p + 1]
            if i1 > i2:
                units[p], units[p + 1] = units[p + 1], units[p]
                twist -= e1 * e2
                changed = True
    word: list[tuple[int, int]] = []
    pos = 0
    while pos < len(units):
        idx = units[pos][0]
        total = 0
        while pos < len(units) and units[pos][0] == idx:
            total += units[pos][1]
            pos += 1
        if total:
            word.append((idx, total))
    return twist, tuple(word)


@lru_cache(maxsize=None)
def brute_cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Phi_n, constant term first, as prod over d | n of (x**d - 1)**mu(n/d):
    dense integer products by the factors with mu = 1, then exact long
    divisions by those with mu = -1."""
    squarefree = [(1, 1)]  # (s, mu(s)) over the squarefree divisors s of n
    for p, _ in factorize(n):
        squarefree += [(s * p, -mu) for s, mu in squarefree]
    poly = [1]
    for s, mu in sorted(squarefree, key=lambda pair: -pair[1]):
        d = n // s
        if mu == 1:
            poly = [b - a for a, b in zip(poly + [0] * d, [0] * d + poly)]
            continue
        quot = [0] * (len(poly) - d)
        for i in range(len(poly) - 1, d - 1, -1):  # poly keeps the remainder
            quot[i - d] = c = poly[i]
            poly[i - d] += c
        if any(poly[:d]):
            raise AssertionError(f"x**{d} - 1 does not divide the product")
        poly = quot
    return tuple(poly)


def _dense_residue(vec: list[Fraction], order: int) -> list[Fraction]:
    """Remainder of sum vec[j]*x**j modulo the order-th cyclotomic polynomial,
    by long division in integers over the common denominator of vec."""
    mod = brute_cyclotomic_polynomial(order)
    deg = len(mod) - 1
    den = lcm(*(c.denominator for c in vec))
    work = [c.numerator * (den // c.denominator) for c in vec]
    work.extend([0] * (deg - len(work)))
    taps = [(j, m) for j, m in enumerate(mod[:deg]) if m]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            base = i - deg
            for j, m in taps:
                work[base + j] -= c * m
    return [Fraction(c, den) for c in work[:deg]]


def _dense_merge(pairs) -> dict[Fraction, Fraction]:
    # e(q) = -e(q + 1/2) for q with a denominator of 2 mod 4.  The pairs are a
    # residue modulo Phi_L, so for even L every exponent j is below
    # phi(L) <= L/2 and no rewritten exponent j + L/2 meets another term.
    return dict(((q + Fraction(1, 2)) % 1, -r) if q.denominator % 4 == 2 else (q, r)
                for q, r in pairs)


def _dense_vector(terms: dict[Fraction, Fraction], level: int) -> list[Fraction]:
    vec = [Fraction(0)] * level
    for q, r in terms.items():
        vec[int(q * level)] += r
    return vec


def _dense_buckets(pc: PhaseCoefficient) -> dict[int, dict[Fraction, Fraction]]:
    buckets: dict[int, dict[Fraction, Fraction]] = {}
    for (q, m), r in pc._terms.items():
        buckets.setdefault(m, {})[q] = r
    return buckets


def _dense_is_zero(terms: dict[Fraction, Fraction]) -> bool:
    level = lcm(*(q.denominator for q in terms))
    return not any(_dense_residue(_dense_vector(terms, level), level))


def _dense_reduce(bucket: dict[Fraction, Fraction]) -> dict[Fraction, Fraction]:
    """The bucket's residue modulo Phi_d at its conductor d, rewritten by
    _dense_merge, found by a dense descent from L one prime p | L at a time.

    If p**2 | L the residue at L/p is the residue at L read at the exponents
    p*j, and the sum lies in Q(zeta_(L/p)) exactly when the residue at L
    vanishes at every other exponent.  If p || L the exponents a split into
    rows x_b over Q(zeta_(L/p)), b = a mod p, with zeta_L**a a power of
    zeta_p times zeta_(L/p)**(a/p mod L/p); the sum lies there exactly when
    rows 1..p-1 have equal residues, and equals x_0 - x_1 there.
    """
    level = lcm(*(q.denominator for q in bucket))
    res = _dense_residue(_dense_vector(bucket, level), level)
    for p, _ in factorize(level):
        while level % p == 0:
            rest = level // p
            if rest % p == 0:
                if any(c for j, c in enumerate(res) if j % p):
                    break
                res = res[::p]
            else:
                inv = pow(p, -1, rest)
                rows = [[Fraction(0)] * rest for _ in range(p)]
                for a, c in enumerate(res):
                    rows[a % p][a * inv % rest] += c
                rows = [_dense_residue(row, rest) for row in rows]
                if any(row != rows[1] for row in rows[2:]):
                    break
                res = [c0 - c1 for c0, c1 in zip(rows[0], rows[1])]
            level = rest
    return _dense_merge((Fraction(j, level), c) for j, c in enumerate(res) if c)


def brute_phase_is_zero(pc: PhaseCoefficient) -> bool:
    """Zero test by dense reduction modulo Phi_L, L the level of each bucket."""
    return all(_dense_is_zero(b) for b in _dense_buckets(pc).values())


def brute_phase_reduce(pc: PhaseCoefficient) -> PhaseCoefficient:
    """Each symbolic bucket in the power basis at its conductor, by dense descent.

    Reduces the length-L angle vector modulo Phi_L once, at a cost of about
    (L - phi(L)) * phi(L), then descends prime by prime on dense residues
    (_dense_reduce) and rewrites e(q) = -e(q + 1/2) for denominators of
    2 mod 4.
    """
    out = {}
    for m, bucket in _dense_buckets(pc).items():
        for q, r in _dense_reduce(bucket).items():
            out[(q, m)] = r
    return PhaseCoefficient._make(out)


def brute_phase_to_qqi(pc: PhaseCoefficient) -> QQi | None:
    """Gaussian value by solving v = a*[1] + b*[i] in the power basis at lcm(L, 4)."""
    buckets = _dense_buckets(pc)
    if any(m and not _dense_is_zero(b) for m, b in buckets.items()):
        return None
    terms = _dense_reduce(buckets.get(0, {}))
    if not terms:
        return QQI_ZERO
    level = lcm(4, *(q.denominator for q in terms))
    target = _dense_residue(_dense_vector(terms, level), level)
    ivec_raw = [Fraction(0)] * (level // 4 + 1)
    ivec_raw[level // 4] = Fraction(1)
    ivec = _dense_residue(ivec_raw, level)
    b = next((target[j] / ivec[j] for j in range(1, len(ivec)) if ivec[j]), Fraction(0))
    a = target[0] - b * ivec[0]
    for j in range(len(target)):
        if target[j] != b * ivec[j] + (a if j == 0 else 0):
            return None
    return QQi(a, b)


def brute_cesaro_word(state: CesaroState, word: Word, algebra: TorusAlgebra, *,
                      mode: str = "exact") -> PhaseCoefficient | complex:
    """phi_n(w) as the plain average of the block product over 2n+1 shifts.

    Evaluates the block product once per shift k in [-n, n], so the cost is
    linear in n; exists to check the run-weighted sum of evaluate_word.
    """
    field = scalar_field(mode)
    n = state.half_width
    inner = BlockProductState(n, state.base)
    acc = field.zero
    for k in range(-n, n + 1):
        acc = acc + evaluate_word(inner, word_translate(word, k), algebra, mode=mode)
    return field.mean(acc, 2 * n + 1)


def brute_n0(denominator: int) -> int:
    """Least k >= 1 whose square the denominator divides, by direct scan.

    The scan takes up to denominator steps, so denominators above
    deformation.MAX_LEVEL are refused, as they are for beta itself.
    """
    if denominator < 1:
        raise InputError("denominator must be a positive integer")
    if denominator > MAX_LEVEL:
        raise InputError(f"denominator above the limit {MAX_LEVEL}")
    k = 1
    while (k * k) % denominator:
        k += 1
    return k


def n0_table(limit: int) -> list[int]:
    """min{k >= 1 : d | k*k} for every 1 <= d <= limit, factorization-free.

    Sieves the largest t with t*t | d by walking multiples of the squares;
    the minimum is then d // t.  Entry 0 is a placeholder.  Agrees with
    brute_n0 (checked in the test suite) but runs in about limit operations
    instead of quadratic time.
    """
    if limit < 1:
        raise InputError("limit must be >= 1")
    largest = [1] * (limit + 1)
    t = 2
    while t * t <= limit:
        tt = t * t
        for m in range(tt, limit + 1, tt):
            largest[m] = t
        t += 1
    out = [0] * (limit + 1)
    for d in range(1, limit + 1):
        out[d] = d // largest[d]
    return out


# Each D x D complex factor takes 16 D^2 bytes and a product of two D^3
# multiply-adds: at D = 256, 1 MiB, and a model is built and verified in
# about 12 ms on a 2-core Xeon VM.
MAX_MATRIX_MODULUS = 256
# Largest slot walk of matrix_trace_eval, in multiply-adds: one D x D product
# per factor and slot up to the factor's index, each D^3 and at least 48^3
# in per-call overhead: about 1-2 s at any D on a 2-core Xeon VM.
MAX_MATRIX_WORK = 2**32
MATRIX_TOLERANCE = 1e-12  # verify's bound on unitarity and relation errors


class MatrixRep:
    """Clock-and-shift model of the generators u_1, u_2, ... at rational beta.

    Generator j acts on the tensor power of C^D as
    clock x ... x clock x step x 1 x 1 x ... (j-1 clocks), where the clock is
    diag(1, lam, ..., lam^(D-1)) with lam = e^(2*pi*i*N/D) and the step sends
    e_k to e_{k-1 mod D}; every slot above j holds the identity, so one model
    serves every word of positive indices.  Each relation u_i u_j = lam u_j u_i
    (i < j) and unitarity are verified factor-by-factor at construction to
    1e-12; by multiplicativity of the Kronecker product this certifies the
    dense matrices on any number of slots entrywise, which are only
    materialized on demand.
    """

    def __init__(self, beta: DeformationParameter):
        self.check(beta)
        self.beta = beta
        self.modulus = beta.denominator
        self.verify()

    @staticmethod
    def check(beta: DeformationParameter, words=()) -> None:
        """Refuse, in this order and before anything is built: irrational beta;
        D > MAX_MATRIX_MODULUS; then each word of (index, exponent) factors with
        an index below 1, a total exponent |a| >= D at one index, or a slot walk
        above MAX_MATRIX_WORK."""
        if not beta.is_rational:
            raise InputError("the matrix model needs rational beta")
        d = beta.denominator
        if d > MAX_MATRIX_MODULUS:
            raise InputError(f"the matrix model needs a denominator <= {MAX_MATRIX_MODULUS}")
        for factors in words:
            totals: dict[int, int] = {}
            for i, e in factors:
                if i < 1:
                    raise InputError(f"index {i} below 1; translate the word first")
                totals[i] = totals.get(i, 0) + e
            for i, a in totals.items():
                if abs(a) >= d:
                    raise InputError(
                        f"total exponent {a} at index {i} reaches |{a}| >= D={d}; "
                        "the matrix trace wraps mod D there and stops matching the "
                        "canonical trace"
                    )
            if sum(i for i, e in factors if e) * max(d, 48) ** 3 > MAX_MATRIX_WORK:
                raise InputError(f"the matrix trace walk exceeds {MAX_MATRIX_WORK} multiply-adds")

    @property
    def lam(self) -> complex:
        import numpy as np

        n, d = self.beta.numerator, self.beta.denominator
        return complex(np.exp(2j * pi * n / d))

    def slot_factor(self, gen: int, slot: int, exponent: int = 1) -> np.ndarray:
        """Tensor factor of u_gen^exponent in position slot (both 1-based):
        the clock's power below gen, the step's at gen, the identity above."""
        import numpy as np

        d = self.modulus
        if slot < gen:
            angles = 2 * pi * self.beta.numerator * np.arange(d) * exponent / d
            return np.diag(np.exp(1j * angles))
        eye = np.eye(d, dtype=complex)
        return np.roll(eye, -exponent, axis=0) if slot == gen else eye

    def generator_matrix(self, gen: int, slots: int) -> np.ndarray:
        """Dense D^slots x D^slots matrix of u_gen on the first slots tensor
        slots (small sizes only)."""
        import numpy as np

        if not 1 <= gen <= slots:
            raise InputError("generator must lie in 1..slots")
        size = self.modulus ** slots
        if size > 4096:
            raise InputError(
                f"dense matrix would be {size}x{size}; use the factored form"
            )
        out = np.eye(1, dtype=complex)
        for slot in range(1, slots + 1):
            out = np.kron(out, self.slot_factor(gen, slot))
        return out

    def verify(self) -> None:
        """Check unitarity and the clock-step relation of the two factors."""
        import numpy as np

        clock, step = self.slot_factor(2, 1), self.slot_factor(1, 1)
        for mat in (clock, step):
            err = np.abs(mat @ mat.conj().T - np.eye(self.modulus)).max()
            if err > MATRIX_TOLERANCE:
                raise AssertionError(f"tensor factor not unitary: {err}")
        err = np.abs(step @ clock - self.lam * (clock @ step)).max()
        if err > MATRIX_TOLERANCE:
            raise AssertionError(f"clock-step relation fails by {err}")

    def __repr__(self) -> str:
        return f"MatrixRep(beta={self.beta})"


def matrix_trace_eval(factors, rep: MatrixRep) -> complex:
    """Normalized trace of the word in the matrix model.

    Sound against the canonical trace only while every per-index total
    exponent a keeps |a| < D: the finite model identifies the D-th power of
    a generator with the identity, so larger exponents wrap around mod D and
    deliberately diverge from the infinite algebra.
    """
    import numpy as np

    MatrixRep.check(rep.beta, [factors])
    d = rep.modulus
    value = 1.0 + 0j
    # a slot above every index holds the identity and contributes tr(I)/D = 1
    for slot in range(1, max((i for i, _ in factors), default=0) + 1):
        prod = np.eye(d, dtype=complex)
        for i, e in factors:
            if e and slot <= i:
                prod = prod @ rep.slot_factor(i, slot, e)
        value *= np.trace(prod) / d
    return complex(value)


@dataclass
class PsdVerdict:
    """Outcome of a positivity check, with a certificate on failure.

    witness is a coefficient vector x with x* M x < 0 (exact value in
    form_value for the exact path, min_eigenvalue for the float path).
    """

    is_psd: bool
    witness: tuple | None = None
    form_value: Fraction | None = None
    min_eigenvalue: float | None = None

    def describe(self) -> str:
        if self.is_psd:
            return "positive semidefinite"
        bits = ["not positive semidefinite"]
        if self.form_value is not None:
            bits.append(f"form value {self.form_value}")
        if self.min_eigenvalue is not None:
            bits.append(f"least eigenvalue {self.min_eigenvalue:.6g}")
        return "; ".join(bits)


def _quadratic_form(matrix: list[list[QQi]], x: list[QQi]) -> QQi:
    total = QQI_ZERO
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, xj in enumerate(x):
            if xj.is_zero():
                continue
            total = total + xi.conjugate() * matrix[i][j] * xj
    return total


def hermitian_psd_exact(matrix: list[list[QQi]]) -> PsdVerdict:
    """Exact LDL* positivity decision for a Hermitian Gaussian-rational matrix.

    On failure returns a witness vector x with x* M x < 0, reconstructed by
    back substitution through the recorded eliminations and re-evaluated
    against the original matrix.
    """
    n = len(matrix)
    original = [[QQi.of(v) for v in row] for row in matrix]
    for i in range(n):
        for j in range(n):
            if not (original[i][j] - original[j][i].conjugate()).is_zero():
                raise InputError("matrix is not Hermitian")
    a = [row[:] for row in original]
    lower = [[QQI_ZERO] * n for _ in range(n)]

    def witness_from(transformed: dict[int, QQi]) -> tuple:
        x = [QQI_ZERO] * n
        for i in range(n - 1, -1, -1):
            val = transformed.get(i, QQI_ZERO)
            for j in range(i + 1, n):
                lj = lower[j][i]
                if not lj.is_zero() and not x[j].is_zero():
                    val = val - lj.conjugate() * x[j]
            x[i] = val
        return tuple(x)

    def failure(transformed: dict[int, QQi]) -> PsdVerdict:
        x = witness_from(transformed)
        value = _quadratic_form(original, list(x))
        return PsdVerdict(False, witness=x, form_value=value.re)

    for k in range(n):
        d = a[k][k]
        if d.re < 0:
            return failure({k: QQI_ONE})
        if not d.re:
            spoiler = next(
                (i for i in range(k + 1, n) if not a[i][k].is_zero()), None
            )
            if spoiler is not None:
                w = a[spoiler][k]
                s = a[spoiler][spoiler].re
                t = Fraction(abs(s) + 1)
                # form value at (t, -w) is |w|^2 (s - 2t) < 0
                return failure({k: QQi(t), spoiler: -w})
            continue
        for i in range(k + 1, n):
            if a[i][k].is_zero():
                continue
            mult = a[i][k] / d
            lower[i][k] = mult
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - mult * a[k][j]
        for j in range(k + 1, n):
            a[k][j] = QQI_ZERO
    return PsdVerdict(True)


def hermitian_psd_float(matrix: list[list[complex]] | np.ndarray) -> PsdVerdict:
    """Eigensolve positivity check: PSD unless an eigenvalue is below -1e-10.

    The Hermitian part (M + M*)/2 is used, which carries the real part of
    the quadratic form; for a genuine state Gram matrix the two coincide.
    The empty matrix is PSD, as on the exact path.
    """
    if len(matrix) == 0:
        return PsdVerdict(True)
    import numpy as np

    m = np.asarray(matrix, dtype=complex)
    herm = (m + m.conj().T) / 2
    values, vectors = np.linalg.eigh(herm)
    least = float(values[0])
    if least < -1e-10:
        return PsdVerdict(
            False, witness=tuple(vectors[:, 0]), min_eigenvalue=least
        )
    return PsdVerdict(True, min_eigenvalue=least)


MAX_MOMENT_ORDER = 64  # exact LDL* fractions grow with the order: about 0.8 s at 64


def toeplitz_psd(moments: MomentSequence, order: int) -> PsdVerdict:
    """Positivity of the (order+1)-square Hermitian moment matrix [c_{i-j}].

    Exact LDL* for exact moments, floating eigensolve otherwise.
    """
    if not 1 <= order <= MAX_MOMENT_ORDER:
        raise InputError(f"order must lie in 1..{MAX_MOMENT_ORDER}")
    size = order + 1
    rows = [[moments.moment(i - j) for j in range(size)] for i in range(size)]
    return hermitian_psd_exact(rows) if moments.exact else hermitian_psd_float(rows)


def gram_psd(state: StateSpec, elements: list[Element], *, mode: str = "exact") -> PsdVerdict:
    """Positivity of the Gram matrix [phi(x_i* x_j)] for the given family.

    The exact path needs every entry to be a Gaussian rational; otherwise
    (or on request) the floating eigensolve runs, which is also the path
    that exhibits non-states built from inadmissible moments.  Families
    larger than the largest moment matrix, MAX_MOMENT_ORDER + 1, are refused,
    and so are families of T coefficient terms in all, whose T**2 entry term
    pairs exceed the bound on one product, MAX_PRODUCT_PAIRS.
    """
    if len(elements) > MAX_MOMENT_ORDER + 1:
        raise InputError(f"a Gram family of {len(elements)} elements exceeds the "
                         f"limit {MAX_MOMENT_ORDER + 1}")
    terms = sum(x._coefficient_terms() for x in elements)
    if terms * terms > MAX_PRODUCT_PAIRS:
        raise InputError(f"a Gram family of {terms} coefficient terms exceeds "
                         f"{MAX_PRODUCT_PAIRS} term pairs")
    exact = scalar_field(mode) is EXACT
    # one validation and one memo for every entry; an empty family has no algebra
    phi = evaluator(state, elements[0].algebra, mode=mode) if elements else None

    def entry(x_star: Element, y: Element):
        value = phi(x_star * y)
        if exact and (value := value.to_qqi()) is None:
            raise InputError(
                "Gram entries leave the Gaussian rationals; run the check in float mode"
            )
        return value

    rows = [[entry(x_star, y) for y in elements] for x_star in [x.adjoint() for x in elements]]
    return hermitian_psd_exact(rows) if exact else hermitian_psd_float(rows)
