"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v` (test names carry the criteria) or `pytest -s` to see
the printed lines.  Budgets and tolerances are fixed here and match the
documented contract: exact equality unless a line says otherwise.
"""

import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from nctorus import (
    BlockProductState,
    CesaroState,
    InadmissibleMomentsError,
    IRRATIONAL,
    MatrixRep,
    MixtureState,
    MomentSequence,
    ProductState,
    QQi,
    TRACE,
    TorusAlgebra,
    brute_n0,
    brute_normal_form,
    canonicalize,
    check_gauge_invariant,
    check_spreadable,
    check_stationary,
    clustering_gap,
    evaluate,
    evaluate_word,
    format_element,
    gram_psd,
    isotropy,
    isotropy_generator_table,
    matrix_trace_eval,
    n0_table,
    normal_form,
    parse,
    toeplitz_psd,
    translate,
    validate_state,
)
from nctorus.cli import main

F = Fraction


def _report(number: int, text: str):
    print(f"ACCEPTANCE {number:02d}: {text}: PASS")


# the five fixed admissible product states of criteria 4 and 6, keyed by beta
def fixed_states():
    half = canonicalize(1, 2)
    quarter = canonicalize(1, 4)
    three_eighths = canonicalize(3, 8)
    return [
        (half, ProductState(MomentSequence({0: 1, 2: F(1, 2)}))),
        (half, ProductState(MomentSequence({0: 1, 2: F(2, 3), 4: F(1, 6)}))),
        (half, ProductState(MomentSequence({0: 1, 2: QQi(F(0), F(12, 25))}))),
        (quarter, ProductState(MomentSequence({0: 1, 2: F(2, 5)}))),
        (three_eighths, ProductState(MomentSequence({0: 1, 4: F(1, 2)}))),
    ]


def mixture_base():
    # half squared-kernel moments (density (2/3)(1 + cos 2t)^2), half uniform
    return MixtureState((
        (F(1, 2), ProductState(MomentSequence({0: 1, 2: F(2, 3), 4: F(1, 6)}))),
        (F(1, 2), ProductState(MomentSequence.lebesgue())),
    ))


def test_criterion_01_isotropy_generator_against_sieve():
    """Ceiling-exponent formula equals the factorization-free sieve to 1e6."""
    limit = 10**6
    formula = isotropy_generator_table(limit)
    sieve = n0_table(limit)
    assert formula == sieve
    # anchor both tables to the direct scan on an initial segment
    for d in range(1, 2001):
        assert sieve[d] == brute_n0(d)
    # and to the public isotropy() entry point on a sample
    rng = random.Random(1)
    for _ in range(200):
        d = rng.randint(1, limit)
        assert isotropy(canonicalize(1, d)).generator == formula[d]
    _report(1, "isotropy generator formula vs sieve, D <= 1e6, exact")


def test_criterion_02_normal_form_oracle_equivalence():
    """Merge-sort normal form == adjacent-transposition brute force, 1e4 words."""
    rng = random.Random(2)
    for _ in range(10**4):
        factors = [
            (rng.randint(-10, 10), rng.randint(-5, 5))
            for _ in range(rng.randint(0, 10))
        ]
        assert normal_form(factors) == brute_normal_form(factors)
    _report(2, "normal form vs transposition oracle, 1e4 words, exact")


def test_criterion_03_matrix_trace_agreement():
    """Symbolic trace vs normalized matrix trace, 1e3 words, within 1e-9."""
    rng = random.Random(3)
    checked = 0
    while checked < 10**3:
        den = rng.choice([2, 3, 5, 7])
        gens = rng.randint(1, 4)
        algebra = TorusAlgebra(canonicalize(1, den))
        rep = MatrixRep(canonicalize(1, den))
        factors = [
            (rng.randint(1, gens), rng.randint(-(den - 1), den - 1))
            for _ in range(rng.randint(0, 8))
        ]
        totals = {}
        for i, e in factors:
            totals[i] = totals.get(i, 0) + e
        if any(abs(a) >= den for a in totals.values()):
            continue
        checked += 1
        numeric = matrix_trace_eval(factors, rep)
        symbolic = evaluate(TRACE, algebra.word(factors)).to_complex()
        assert abs(numeric - symbolic) <= 1e-9
    _report(3, "matrix oracle vs canonical trace, 1e3 words, 1e-9")


def test_criterion_04_product_states_spreadable():
    """Trace and five fixed products pass the exhaustive grammar + 1e3 trials."""
    runs = []
    for beta in (canonicalize(1, 2), canonicalize(1, 4), canonicalize(3, 8)):
        runs.append((beta, TRACE))
    for beta, state in fixed_states():
        assert toeplitz_psd(state.moments, 6).is_psd  # really states
        runs.append((beta, state))
    for beta, state in runs:
        report = check_spreadable(state, beta, trials=1000, seed=4)
        assert report.passed, report
        assert report.exhaustive_cases == 8421 * 57
    _report(4, "spreadability of trace and 5 products, exhaustive + 1e3 trials")


def test_criterion_05_irrational_uniqueness():
    """Symbolic beta only admits Lebesgue; its product equals the trace."""
    with pytest.raises(InadmissibleMomentsError):
        validate_state(
            ProductState(MomentSequence({0: 1, 2: F(1, 2)})), IRRATIONAL
        )
    validate_state(ProductState(MomentSequence.lebesgue()), IRRATIONAL)
    algebra = TorusAlgebra(IRRATIONAL)
    state = ProductState(MomentSequence.lebesgue())
    rng = random.Random(5)
    for _ in range(10**3):
        x = algebra.zero()
        for _ in range(rng.randint(0, 3)):
            factors = [
                (rng.randint(-4, 4), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 4))
            ]
            coeff = QQi(F(rng.randint(-6, 6), rng.randint(1, 4)),
                        F(rng.randint(-6, 6), rng.randint(1, 4)))
            x = x + algebra.word(factors, coeff)
        assert evaluate(state, x) == evaluate(TRACE, x)
    _report(5, "irrational mode: Lebesgue only, product == trace on 1e3 elements")


def test_criterion_06_gauge_invariance():
    """Every criterion-4 state is invariant under all annihilator angles."""
    runs = [(canonicalize(1, 2), TRACE), (canonicalize(1, 4), TRACE),
            (canonicalize(3, 8), TRACE)] + fixed_states()
    for beta, state in runs:
        report = check_gauge_invariant(state, beta, trials=200, seed=6)
        assert report.passed, report
    _report(6, "gauge invariance at all annihilator roots, exact")


def test_criterion_07_cesaro_bound():
    """|phi_n(x) - phi(x)| <= 4s/(2n+1), all short monomials, n <= 20, exact.

    Checking normal-form monomials covers all factor sequences in the
    budget: reordering only multiplies a monomial by a unit phase, which
    scales both sides of the bound identically.
    """
    beta = canonicalize(1, 2)
    algebra = TorusAlgebra(beta)
    exps = [e for e in range(-2, 3) if e]
    words = [()]
    for k in (1, 2, 3):
        for idxs in combinations(range(-3, 4), k):
            for es in product(exps, repeat=k):
                words.append(tuple(zip(idxs, es)))
    assert len(words) == 2605
    bases = [TRACE, ProductState(MomentSequence({0: 1, 2: F(1, 2)}))]
    for base in bases:
        for w in words:
            radius = max((abs(i) for i, _ in w), default=0)
            phi = evaluate_word(base, w, algebra)
            for n in range(1, 21):
                phi_n = evaluate_word(CesaroState(n, base), w, algebra)
                gap = (phi_n - phi).to_rational()
                assert gap is not None
                assert abs(gap) <= F(4 * radius, 2 * n + 1), (w, n, gap)
    _report(7, "cesaro bound 4s/(2n+1) for trace and product base, exact")


def test_criterion_08_block_state_period_and_clustering():
    """Block product: tau^(2n+1)-invariant, clustering at period multiples,
    and a frozen witness that it is not tau-invariant."""
    beta = canonicalize(1, 2)
    algebra = TorusAlgebra(beta)
    for n in (1, 2):
        state = BlockProductState(n, mixture_base())
        report = check_stationary(state, beta, power=2 * n + 1, trials=1000, seed=8)
        assert report.passed, report
        x = algebra.word([(0, 2)])
        y = algebra.word([(1, 2), (2, 2)]) if n > 1 else algebra.word([(1, 2)])
        for k in (1, 2, 5):
            gap = clustering_gap(state, x, y, k * (2 * n + 1))
            assert gap.is_zero(), (n, k)
    # frozen witness: base differs from a product, so one step breaks it
    state = BlockProductState(1, mixture_base())
    x = algebra.word([(1, 2), (2, 2)])
    assert evaluate(state, x) == F(1, 9)
    assert evaluate(state, translate(x, 1)) == F(2, 9)
    _report(8, "block product period, clustering, and non-invariance witness")


def test_criterion_09_mixture_clustering_witness():
    """Frozen non-extremality witness: the half/half mixture has gap 1/4."""
    beta = canonicalize(1, 2)
    algebra = TorusAlgebra(beta)
    state = mixture_base()
    x = algebra.word([(0, 2)])
    gap = clustering_gap(state, x, x, 5)
    # (1/2)a^2 + (1/2)b^2 - ((a+b)/2)^2 = (a-b)^2/4 with a = 2/3, b = 0
    assert gap == F(1, 9)
    # both pure parts cluster exactly on the same data
    for _, part in state.parts:
        assert clustering_gap(part, x, x, 5).is_zero()
    _report(9, "mixture clustering gap 1/4 on frozen (x, y, K), exact")


def test_criterion_10_inadmissible_product_not_a_state():
    """Frozen family {1, u0, u0*u1} at beta=1/2, c_1=1: Gram not PSD."""
    algebra = TorusAlgebra(canonicalize(1, 2))
    state = ProductState(MomentSequence({0: 1, 1: 1}))
    family = [algebra.one(), algebra.u(0), algebra.u(0) * algebra.u(1)]
    with pytest.warns(UserWarning):
        verdict = gram_psd(state, family, mode="float")
    assert not verdict.is_psd
    assert verdict.min_eigenvalue < -1e-6
    assert abs(verdict.min_eigenvalue - (1 - 2**0.5)) < 1e-9
    _report(10, "inadmissible moments give a non-PSD Gram matrix, eig < -1e-6")


def test_criterion_11_state_axioms():
    """Unitality, hermitianity, positivity (1e3 samples/kind), traciality."""
    beta = canonicalize(1, 2)
    algebra = TorusAlgebra(beta)
    states = [
        TRACE,
        ProductState(MomentSequence({0: 1, 2: F(1, 2)})),
        BlockProductState(1, mixture_base()),
        CesaroState(1, mixture_base()),
        mixture_base(),
    ]
    rng = random.Random(11)

    def random_element():
        x = algebra.zero()
        for _ in range(rng.randint(1, 3)):
            factors = [
                (rng.randint(-3, 3), rng.randint(-2, 2))
                for _ in range(rng.randint(0, 3))
            ]
            coeff = QQi(F(rng.randint(-4, 4), rng.randint(1, 3)),
                        F(rng.randint(-4, 4), rng.randint(1, 3)))
            x = x + algebra.word(factors, coeff)
        return x

    for state in states:
        assert evaluate(state, algebra.one()) == 1
        for _ in range(10**3):
            x = random_element()
            value = evaluate(state, x)
            assert evaluate(state, x.adjoint()) == value.conjugate()
            square = evaluate(state, x.adjoint() * x).to_qqi()
            assert square is not None and square.im == 0 and square.re >= 0
    for _ in range(10**3):
        x, y = random_element(), random_element()
        assert evaluate(TRACE, x * y) == evaluate(TRACE, y * x)
    _report(11, "state axioms: unitality, hermitianity, positivity, traciality")


def test_criterion_12_cli_round_trip_and_exit_codes(tmp_path, capsys):
    """1e4 parse/print round trips, reproducible output, documented exits."""
    rng = random.Random(12)
    betas = [canonicalize(1, 4), canonicalize(3, 8), IRRATIONAL]
    for i in range(10**4):
        algebra = TorusAlgebra(betas[i % 3])
        x = algebra.zero()
        for _ in range(rng.randint(0, 3)):
            factors = [
                (rng.randint(-6, 6), rng.randint(-4, 4))
                for _ in range(rng.randint(0, 4))
            ]
            coeff = QQi(F(rng.randint(-12, 12), rng.randint(1, 9)),
                        F(rng.randint(-12, 12), rng.randint(1, 9)))
            x = x + algebra.word(factors, coeff)
        assert parse(format_element(x), algebra) == x

    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps({"kind": "trace"}))
    blockmix = tmp_path / "blockmix.json"
    blockmix.write_text(json.dumps({
        "kind": "block", "n": 1,
        "base": {"kind": "mixture", "parts": [
            ["1/2", {"kind": "product",
                     "moments": [[2, "2/3", 0], [4, "1/6", 0]]}],
            ["1/2", {"kind": "product", "moments": []}],
        ]},
    }))

    argv = ["check", "spreadable", "--alpha", "1/2", "--state", str(trace_file),
            "--seed", "7", "--trials", "50", "--max-factors", "2",
            "--max-index", "1", "--max-exponent", "1"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2

    assert main(["check", "stationary", "--alpha", "1/2", "--state",
                 str(blockmix), "--trials", "10"]) == 1
    assert main(["eval", "--alpha", "1/0", "--state", str(trace_file), "1"]) == 2
    capsys.readouterr()
    _report(12, "cli round trip (1e4), reproducibility, exit codes 0/1/2")
