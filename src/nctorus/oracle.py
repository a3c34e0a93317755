"""Independent verifiers for the exact engine.

Contains the deliberately naive or numeric counterparts of the fast paths:
an adjacent-transposition normal former, dense power-basis arithmetic in
the cyclotomic field for phase sums, the literal average over all
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

from .algebra import Element, TorusAlgebra, Word, word_translate
from .deformation import MAX_LEVEL, DeformationParameter, InputError
from .scalars import QQI_ZERO, QQI_ONE, PhaseCoefficient, QQi, cyclotomic_polynomial
from .states import (
    EXACT,
    BlockProductState,
    CesaroState,
    MomentSequence,
    StateSpec,
    evaluate,
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


def _dense_residue(vec: list[Fraction], order: int) -> list[Fraction]:
    """Remainder of sum vec[j]*x**j modulo the order-th cyclotomic polynomial."""
    mod = cyclotomic_polynomial(order)
    deg = len(mod) - 1
    work = list(vec)
    if len(work) < deg:
        work.extend([Fraction(0)] * (deg - len(work)))
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            work[i] = Fraction(0)
            base = i - deg
            for j in range(deg):
                if mod[j]:
                    work[base + j] -= c * mod[j]
    return work[:deg]


def _dense_merge(pairs) -> dict[Fraction, Fraction]:
    # e(q) = -e(q + 1/2) for q with a denominator of 2 mod 4
    out: dict[Fraction, Fraction] = {}
    for q, r in pairs:
        if q.denominator % 4 == 2:
            q, r = (q + Fraction(1, 2)) % 1, -r
        acc = out.get(q, Fraction(0)) + r
        if acc:
            out[q] = acc
        elif q in out:
            del out[q]
    return out


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
    if not terms:
        return True
    level = lcm(*(q.denominator for q in terms))
    return not any(_dense_residue(_dense_vector(terms, level), level))


def _dense_reduce(bucket: dict[Fraction, Fraction]) -> dict[Fraction, Fraction]:
    terms = _dense_merge(bucket.items())
    for _ in range(64):
        if not terms:
            return {}
        level = lcm(*(q.denominator for q in terms))
        if level == 1:
            return terms
        res = _dense_residue(_dense_vector(terms, level), level)
        nxt = _dense_merge((Fraction(j, level), c) for j, c in enumerate(res) if c)
        if nxt == terms:
            return terms
        terms = nxt
    raise AssertionError("cyclotomic reduction did not stabilize")


def brute_phase_is_zero(pc: PhaseCoefficient) -> bool:
    """Zero test by dense reduction modulo Phi_L, L the level of each bucket."""
    return all(_dense_is_zero(b) for b in _dense_buckets(pc).values())


def brute_phase_reduce(pc: PhaseCoefficient) -> PhaseCoefficient:
    """Each symbolic bucket in the power basis, by dense reduction to a fixed point.

    Each round reduces the length-L angle vector modulo Phi_L and rewrites
    e(q) = -e(q + 1/2) for denominators of 2 mod 4; cost about
    (L - phi(L)) * phi(L) per round.
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
                      mode: str = "exact", beta_value=None) -> PhaseCoefficient | complex:
    """phi_n(w) as the plain average of the block product over 2n+1 shifts.

    Evaluates the block product once per shift k in [-n, n], so the cost is
    linear in n; exists to check the run-weighted sum of evaluate_word.
    """
    field = scalar_field(mode, beta_value)
    n = state.half_width
    inner = BlockProductState(n, state.base)
    acc = field.zero
    for k in range(-n, n + 1):
        acc = acc + field.word_value(inner, word_translate(word, k), algebra)
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


# Each D x D complex factor takes 16 D^2 bytes: three per matrix_rep cache
# entry and 64 entries stay under 200 MiB at D = 256.
MAX_MATRIX_MODULUS = 256


class MatrixRep:
    """Clock-and-shift model of finitely many generators at rational beta.

    Generator j of m acts on the m-fold tensor power of C^D as
    clock x ... x clock x step x 1 x ... x 1 (j-1 clocks), where the clock is
    diag(1, lam, ..., lam^(D-1)) with lam = e^(2*pi*i*N/D) and the step sends
    e_k to e_{k-1 mod D}.  Each relation u_i u_j = lam u_j u_i (i < j) and
    unitarity are verified factor-by-factor at construction to 1e-12; by
    multiplicativity of the Kronecker product this certifies the full
    D^m-dimensional matrices entrywise, which are only materialized on
    demand.
    """

    def __init__(self, beta: DeformationParameter, generators: int):
        if not beta.is_rational:
            raise InputError("the matrix model needs rational beta")
        if beta.denominator > MAX_MATRIX_MODULUS:
            raise InputError(f"the matrix model needs a denominator <= {MAX_MATRIX_MODULUS}")
        if generators < 1:
            raise InputError("need at least one generator")
        self.beta = beta
        self.modulus = beta.denominator
        self.generators = generators
        import numpy as np

        d = self.modulus
        angles = 2 * pi * beta.numerator * np.arange(d) / d
        self.clock = np.diag(np.exp(1j * angles))
        self.step = np.zeros((d, d), dtype=complex)
        for k in range(d):
            self.step[(k - 1) % d, k] = 1.0
        self.eye = np.eye(d, dtype=complex)
        self.verify()

    @property
    def lam(self) -> complex:
        import numpy as np

        n, d = self.beta.numerator, self.beta.denominator
        return complex(np.exp(2j * pi * n / d))

    def clock_power(self, a: int) -> np.ndarray:
        import numpy as np

        d = self.modulus
        angles = 2 * pi * self.beta.numerator * np.arange(d) * a / d
        return np.diag(np.exp(1j * angles))

    def step_power(self, a: int) -> np.ndarray:
        import numpy as np

        d = self.modulus
        out = np.zeros((d, d), dtype=complex)
        for k in range(d):
            out[(k - a) % d, k] = 1.0
        return out

    def slot_factor(self, gen: int, slot: int) -> np.ndarray:
        """Tensor factor of generator gen (1-based) in position slot."""
        if not 1 <= gen <= self.generators or not 1 <= slot <= self.generators:
            raise InputError("generator and slot must lie in 1..m")
        if slot < gen:
            return self.clock
        if slot == gen:
            return self.step
        return self.eye

    def generator_matrix(self, gen: int) -> np.ndarray:
        """Dense D^m x D^m matrix of one generator (small sizes only)."""
        import numpy as np

        size = self.modulus ** self.generators
        if size > 4096:
            raise InputError(
                f"dense matrix would be {size}x{size}; use the factored form"
            )
        out = np.eye(1, dtype=complex)
        for slot in range(1, self.generators + 1):
            out = np.kron(out, self.slot_factor(gen, slot))
        return out

    def verify(self, tolerance: float = 1e-12) -> None:
        """Check unitarity and the commutation relations factorwise."""
        import numpy as np

        d = self.modulus
        for mat in (self.clock, self.step):
            err = np.abs(mat @ mat.conj().T - np.eye(d)).max()
            if err > tolerance:
                raise AssertionError(f"tensor factor not unitary: {err}")
        lhs = self.step @ self.clock
        rhs = self.lam * (self.clock @ self.step)
        err = np.abs(lhs - rhs).max()
        if err > tolerance:
            raise AssertionError(f"clock-step relation fails by {err}")

    def __repr__(self) -> str:
        return f"MatrixRep(beta={self.beta}, generators={self.generators})"


@lru_cache(maxsize=64)
def matrix_rep(numerator: int, denominator: int, generators: int) -> MatrixRep:
    """Memoized representation per (beta, generator count)."""
    from .deformation import canonicalize

    return MatrixRep(canonicalize(numerator, denominator), generators)


def matrix_trace_eval(factors, rep: MatrixRep) -> complex:
    """Normalized trace of the word in the matrix model.

    Sound against the canonical trace only while every per-index total
    exponent a keeps |a| < D: the finite model identifies the D-th power of
    a generator with the identity, so larger exponents wrap around mod D and
    deliberately diverge from the infinite algebra.
    """
    import numpy as np

    d = rep.modulus
    m = rep.generators
    totals: dict[int, int] = {}
    for i, e in factors:
        if not 1 <= i <= m:
            raise InputError(f"index {i} outside 1..{m}; translate the word first")
        totals[i] = totals.get(i, 0) + e
    for i, a in totals.items():
        if abs(a) >= d:
            raise InputError(
                f"total exponent {a} at index {i} reaches |{a}| >= D={d}; "
                "the matrix trace wraps mod D there and stops matching the "
                "canonical trace"
            )
    value = 1.0 + 0j
    # a slot above every index holds the identity and contributes tr(I)/D = 1
    for slot in range(1, max(totals, default=0) + 1):
        prod = np.eye(d, dtype=complex)
        for i, e in factors:
            if e == 0:
                continue
            if slot < i:
                prod = prod @ rep.clock_power(e)
            elif slot == i:
                prod = prod @ rep.step_power(e)
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
        if d.im:
            raise InputError("matrix is not Hermitian")
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


def hermitian_psd_float(matrix: np.ndarray) -> PsdVerdict:
    """Eigensolve positivity check: PSD unless an eigenvalue is below -1e-10.

    The Hermitian part (M + M*)/2 is used, which carries the real part of
    the quadratic form; for a genuine state Gram matrix the two coincide.
    """
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
    if moments.exact:
        matrix = [
            [QQi.of(moments.moment(i - j)) for j in range(size)]
            for i in range(size)
        ]
        return hermitian_psd_exact(matrix)
    import numpy as np

    numeric = np.array(
        [[moments.moment(i - j) for j in range(size)] for i in range(size)],
        dtype=complex,
    )
    return hermitian_psd_float(numeric)


def gram_psd(state: StateSpec, elements: list[Element], *, mode: str = "exact",
             beta_value=None) -> PsdVerdict:
    """Positivity of the Gram matrix [phi(x_i* x_j)] for the given family.

    The exact path needs every entry to be a Gaussian rational; otherwise
    (or on request) the floating eigensolve runs, which is also the path
    that exhibits non-states built from inadmissible moments.
    """
    field = scalar_field(mode, beta_value)
    adjoints = [x.adjoint() for x in elements]
    n = len(elements)
    if field is EXACT:
        entries: list[list[QQi]] = []
        for i in range(n):
            row = []
            for j in range(n):
                value = evaluate(state, adjoints[i] * elements[j]).to_qqi()
                if value is None:
                    raise InputError(
                        "Gram entries leave the Gaussian rationals; "
                        "run the check in float mode"
                    )
                row.append(value)
            entries.append(row)
        return hermitian_psd_exact(entries)
    import numpy as np

    numeric = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            numeric[i, j] = evaluate(state, adjoints[i] * elements[j],
                                     mode=mode, beta_value=beta_value)
    return hermitian_psd_float(numeric)
