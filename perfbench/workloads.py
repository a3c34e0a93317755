"""The four seeded workloads: inputs, one operation, and correctness gates.

A workload turns (seed, round) into inputs made of text only: beta strings,
state descriptions in JSON, expression strings and command lines.  The
program sees nothing else.  `prepare` loads the text through the public
loaders (this is set-up), `run` performs one timed operation, and `check`
compares its result with an answer worked out here, from known verdicts,
budget formulas, moment products or a float model, never from a second
call into the code under test.

Rounds have a fixed composition and only the drawn values change with the
seed, so that the mix of costs, and therefore the medians, do not depend on
the seed.  Calls go through module attributes (`symmetry.check_spreadable`,
not an imported name) so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction as F
from time import perf_counter

from nctorus import algebra, cli, deformation, expr, oracle, states, symmetry

TRIALS = 1000  # the CLI's default budget: <=3 factors, |index|<=2, |exponent|<=2
WORDS_IN_BUDGET = sum(20 ** k for k in range(4))  # 5 indices x 4 exponents
MAPS_IN_BUDGET = sum(7 ** k for k in range(3))  # 5 partial shifts + tau^+-1
IRRATIONAL_ANGLES = 8


def rng_for(name: str, seed: int, rnd: int) -> random.Random:
    # string seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{name}:{seed}:{rnd}")


def factorize(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        m = 0
        while n % p == 0:
            n //= p
            m += 1
        if m:
            out.append((p, m))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def n0_of(d: int) -> int:
    """Least k > 0 with d | k*k: the product of p**ceil(m/2) over d = prod p**m."""
    return math.prod(p ** ((m + 1) // 2) for p, m in factorize(d))


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == [(n, 1)]


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


def product_json(rows) -> dict:
    return {"kind": "product", "moments": rows}


def moments_of(obj: dict) -> dict[int, complex | F]:
    """Moment table of a product description, conjugates filled in."""
    out: dict[int, object] = {0: F(1)}
    for l, re, im in obj["moments"]:
        re, im = F(re), F(im)
        out[l] = re if not im else complex(re, im)
        out[-l] = re if not im else complex(re, -im)
    return out


def format_word(factors) -> str:
    return "*".join(f"u[{i}]" if e == 1 else f"u[{i}]^{e}" for i, e in factors)


# --- symmetry -------------------------------------------------------------

# criterion 4 and 6: the trace and five fixed admissible product states
CRIT_PRODUCTS = [
    ("1/2", product_json([[2, "1/2", 0]]), "product(c2=1/2)"),
    ("1/2", product_json([[2, "2/3", 0], [4, "1/6", 0]]), "product(c2=2/3,c4=1/6)"),
    ("1/2", product_json([[2, 0, "12/25"]]), "product(c2=12/25i)"),
    ("1/4", product_json([[2, "2/5", 0]]), "product(c2=2/5)"),
    ("3/8", product_json([[4, "1/2", 0]]), "product(c4=1/2)"),
]
TRACE_JSON = {"kind": "trace"}
# criterion 8: half the squared-kernel moments, half the uniform measure
MIXTURE_JSON = {"kind": "mixture", "parts": [
    ["1/2", product_json([[2, "2/3", 0], [4, "1/6", 0]])],
    ["1/2", product_json([])],
]}


def n0_of_beta(text: str) -> int | None:
    return None if text == "irrational" else n0_of(F(text).denominator)


def symmetry_round(seed: int, rnd: int) -> list[dict]:
    """26 checker calls whose cost mix is the same in every round.

    Spreadability: the trace at a drawn beta (2.7-3.0 s at the parent
    commit) and one of the three products at 1/2, whose nonzero values on
    exponent-2 words take the QQi-heavy path (6.5-6.8 s).  The products at
    1/4 (7.3 s) and 3/8 (3.7 s) would swing the cost of a round by 9%, so
    they enter through the gauge checks only.  Then, twice with fresh trial
    seeds, all eight criterion-6 gauge checks and the two criterion-8 block
    products at power 2n+1 (PASS) and power 1 (FAIL); the median call falls
    among these cheaper, similar calls.
    """
    rng = rng_for("symmetry", seed, rnd)
    light = [(b, TRACE_JSON, "trace") for b in ("1/2", "1/4", "3/8", "irrational")]
    dense = CRIT_PRODUCTS[:3]
    calls = []

    def add(prop, member, power=1, expect=True):
        beta, state, label = member
        calls.append({"property": prop, "beta": beta, "state": state,
                      "label": label, "power": power, "expect_pass": expect,
                      "seed": rng.randrange(2 ** 31)})

    add("spreadable", rng.choice(light))
    add("spreadable", rng.choice(dense))
    for _ in range(2):
        for beta in ("1/2", "1/4", "3/8"):
            add("gauge", (beta, TRACE_JSON, "trace"))
        for member in CRIT_PRODUCTS:
            add("gauge", member)
        for n in (1, 2):
            block = ("1/2", {"kind": "block", "n": n, "base": MIXTURE_JSON},
                     f"block(n={n},mixture)")
            add("stationary", block, power=2 * n + 1)
            add("stationary", block, power=1, expect=False)
    rng.shuffle(calls)
    return calls


def symmetry_expected_cases(call: dict) -> int:
    if call["property"] == "spreadable":
        return WORDS_IN_BUDGET * MAPS_IN_BUDGET
    if call["property"] == "stationary":
        return WORDS_IN_BUDGET
    n0 = n0_of_beta(call["beta"])
    return WORDS_IN_BUDGET * (IRRATIONAL_ANGLES if n0 is None else n0)


class Symmetry:
    name = "symmetry"
    make_round = staticmethod(symmetry_round)

    @staticmethod
    def kind(call) -> str:
        return f"{call['property']}^{call['power']}:{call['label']}@{call['beta']}"

    @staticmethod
    def prepare(call):
        return (deformation.parse_beta(call["beta"]),
                states.state_from_json(call["state"]))

    @staticmethod
    def run(call, prepared):
        beta, state = prepared
        opts = {"trials": TRIALS, "seed": call["seed"]}
        t0 = perf_counter()
        if call["property"] == "spreadable":
            report = symmetry.check_spreadable(state, beta, **opts)
        elif call["property"] == "stationary":
            report = symmetry.check_stationary(state, beta, power=call["power"], **opts)
        else:
            report = symmetry.check_gauge_invariant(state, beta, **opts)
        dt = perf_counter() - t0
        work = report.exhaustive_cases + report.random_trials
        return {"op_s": dt, "work": work}, report

    @staticmethod
    def check(call, report, index=0) -> str | None:
        if report.passed != call["expect_pass"]:
            return f"verdict {report.passed}, expected {call['expect_pass']}"
        if not call["expect_pass"]:
            return None
        want = symmetry_expected_cases(call)
        if (report.exhaustive_cases, report.random_trials) != (want, TRIALS):
            return (f"cases {report.exhaustive_cases}+{report.random_trials}, "
                    f"expected {want}+{TRIALS}")
        return None

    @staticmethod
    def properties(calls) -> dict:
        return {"calls": [
            [c["property"] + (f"^{c['power']}" if c["property"] == "stationary" else ""),
             c["beta"], c["label"],
             symmetry_expected_cases(c) if c["expect_pass"] else None]
            for c in calls
        ]}


# --- cesaro ---------------------------------------------------------------

CESARO_BASES = {
    "1/2": [("trace", TRACE_JSON), ("product", product_json([[2, "1/2", 0]])),
            ("mixture", MIXTURE_JSON)],
    "1/4": [("trace", TRACE_JSON), ("product", product_json([[2, "2/5", 0]])),
            ("mixture", MIXTURE_JSON)],
}
N_STRATA = 8  # log10 n in [1, 4] cut into equal strata
# exponent sizes of the word at each stratum; n0 = 2 at both betas, so 2 is
# on n0*Z and 1 is off it.  A fixed schedule, rotated per base, keeps the
# cost of a round the same for every seed; the seed draws signs and places.
PATTERNS = [(2,), (1,), (2, 2), (1, 1), (2, 1), (2, 2, 2), (1, 1, 2), (2, 1, 1)]


def cesaro_round(seed: int, rnd: int) -> list[dict]:
    """48 evaluations: every (beta, base) pair once per n stratum.

    n is log-uniform inside its stratum, so a round covers [10, 10^4]
    evenly.  The cost of an evaluation grows with n, so narrow strata keep
    the cost of a round nearly the same for every seed.  The support radius
    s runs over 1..8 from a drawn offset; x has at most three factors.
    """
    rng = rng_for("cesaro", seed, rnd)
    ops = []
    offset = rng.randrange(8)
    jitter = [[rng.random() for _ in range(N_STRATA)] for _ in CESARO_BASES["1/2"]]
    for j, (beta, bases) in enumerate(CESARO_BASES.items()):
        for b, (kind, base) in enumerate(bases):
            for k in range(N_STRATA):
                # the two betas of one base take mirrored points u and 1-u
                # of the stratum, which evens out the cost of a round
                u = jitter[b][k] if j == 0 else 1 - jitter[b][k]
                n = int(10 ** (1 + 3 * (k + u) / N_STRATA))
                s = 1 + (offset + len(ops)) % 8
                sizes = PATTERNS[(k + 3 * b) % len(PATTERNS)]
                inner = rng.sample(range(-s + 1, s), min(len(sizes) - 1, 2 * s - 1))
                idx = sorted({rng.choice((-s, s))} | set(inner))
                factors = [(i, rng.choice((-1, 1)) * e) for i, e in zip(idx, sizes)]
                ops.append({"beta": beta, "kind": kind, "base": base, "n": n,
                            "s": s, "factors": factors,
                            "text": format_word(factors)})
    rng.shuffle(ops)
    return ops


def _base_value(base: dict, exps) -> F:
    """Value of a shift-invariant base on one block (only exponents matter)."""
    if base["kind"] == "trace":
        return F(1) if not exps else F(0)
    if base["kind"] == "product":
        moments = moments_of(base)
        return math.prod((moments.get(e, F(0)) for e in exps), start=F(1))
    return sum(F(w) * _base_value(part, exps) for w, part in base["parts"])


def own_block_value(op: dict, shift: int) -> F:
    n, n0 = op["n"], n0_of(F(op["beta"]).denominator)
    span = 2 * n + 1
    blocks: dict[int, list[int]] = {}
    for i, e in op["factors"]:
        blocks.setdefault((i + shift + n) // span, []).append(e)
    value = F(1)
    for exps in blocks.values():
        if sum(exps) % n0:
            return F(0)
        value *= _base_value(op["base"], exps)
    return value


def own_cesaro_average(op: dict) -> F:
    """phi_n(w) as the plain average of the block product over 2n+1 shifts."""
    n = op["n"]
    return sum((own_block_value(op, k) for k in range(-n, n + 1)), F(0)) / (2 * n + 1)


class Cesaro:
    name = "cesaro"
    make_round = staticmethod(cesaro_round)

    # ops also checked against the own average: every third, and every one
    # with n up to OWN_AVERAGE_N, where the O(n) average is cheap
    SAMPLE_EVERY = 3
    OWN_AVERAGE_N = 1000

    @staticmethod
    def kind(op) -> str:
        return f"{op['kind']}@{op['beta']}:log10n={int(math.log10(op['n']) * 2) / 2}"

    @staticmethod
    def prepare(op):
        beta = deformation.parse_beta(op["beta"])
        base = states.state_from_json(op["base"])
        x = expr.parse(op["text"], algebra.TorusAlgebra(beta))
        return states.CesaroState(op["n"], base), x

    @staticmethod
    def run(op, prepared):
        state, x = prepared
        t0 = perf_counter()
        value = states.evaluate(state, x)
        dt = perf_counter() - t0
        return {"op_s": dt, "work": 1}, value

    @staticmethod
    def check(op, value, index=0) -> str | None:
        z = value.to_qqi()
        if z is None or z.im:
            return f"value {value} is not a real rational"
        phi = _base_value(op["base"], [e for _, e in op["factors"]])
        bound = F(4 * op["s"], 2 * op["n"] + 1)
        if abs(z.re - phi) > bound:
            return f"|phi_n - phi| = {abs(z.re - phi)} > {bound}"
        sampled = index % Cesaro.SAMPLE_EVERY == 0 or op["n"] <= Cesaro.OWN_AVERAGE_N
        if sampled and z.re != own_cesaro_average(op):
            return f"phi_n = {z.re}, own average {own_cesaro_average(op)}"
        return None

    @staticmethod
    def properties(ops) -> dict:
        return {"n_quartiles": quartiles([o["n"] for o in ops]),
                "s_quartiles": quartiles([o["s"] for o in ops]),
                "bases": sorted({f"{o['kind']}@{o['beta']}" for o in ops})}


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


# --- cyclo ----------------------------------------------------------------

def cyclo_levels(rng: random.Random) -> list[tuple[str, int]]:
    """The levels of one round: every shape, the cheap ones three times.

    The primes near 270 get the commutator session (see cyclo_round).  Primes are spread over 10^3..10^5 in narrow strata, so
    that the cost of a round, which grows with L, is nearly the same for
    every seed; repeating the cheap levels puts the median session among
    several samples of similar cost.  The smooth level is 3*5*7*11, not
    30030: one session at 30030 takes minutes today (the dense reduction
    modulo Phi_L touches (L - phi(L)) * phi(L) entries), past the time a
    run may take; 2310 takes 6 s and 1155 about 3 s.
    """
    levels = [("prime", random_prime(rng, 20000, 22000)), ("prime", 100003),
              ("smooth", 3 * 5 * 7 * 11)]
    for _ in range(3):
        levels += [
            ("prime", random_prime(rng, 250, 300)),
            ("prime", random_prime(rng, 1000, 1100)),
            ("prime", random_prime(rng, 5000, 5500)),
            ("prime-power", 3 ** 9),
            ("prime-power", 2 ** 15),
            ("2*odd", 2 * random_prime(rng, 1000, 1100)),
        ]
    return levels


def _pair(rng, a, ea, b, eb):
    """r1*u[a]^ea*u[b]^eb + r2*u[b]^eb*u[a]^ea with drawn rationals.

    The two orders differ by a twist, so parsing merges them into one word
    whose coefficient is a sum of two phases: the case that runs the dense
    reduction at level L.
    """
    return [(_coeff(rng), [(a, ea), (b, eb)]), (_coeff(rng), [(b, eb), (a, ea)])]


def _coeff(rng):
    return F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))


def _sum_text(terms) -> str:
    """Grammar text of a sum of terms: a leading '-' or ' + '/' - ' joins."""
    text = ""
    for coeff, factors in terms:
        sign = "-" if coeff < 0 else "+"
        text += f" {sign} {abs(coeff)}*{format_word(factors)}"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def cyclo_round(seed: int, rnd: int) -> list[dict]:
    """21 sessions over the levels of cyclo_levels, a 3-term x and a 2-term y.

    At the primes near 270 y holds the inverse of x's two-letter word, so
    the trace of x*y is a sum of genuine phases and to_qqi must answer None.
    At every other level x and y share no letter, so the trace is zero:
    deciding that a phase sum is not Gaussian runs a dense reduction at
    level 4L that is quadratic in L today (0.3 s at L = 1009, 25 s at
    L = 10007), too slow for a run at the larger levels.
    """
    rng = rng_for("cyclo", seed, rnd)
    sessions = []
    for shape, d in cyclo_levels(rng):
        commutator = 250 <= d < 300
        # six increasing letters at drawn gaps: only their order sets the
        # twists, so every session at one level does the same work
        letters, i = [], rng.randint(-9, 0)
        for _ in range(6):
            letters.append(i)
            i += rng.randint(1, 3)
        a, b, c, p, q, _ = letters
        # x = u[1]*u[0] + u[0]*u[1] in shape (the twist e(-1/D) is the top
        # power of the basis, which printing expands into D-1 terms) plus
        # r*u[c]^2; y = a pair with twist e(+1/D), or at the primes near 270
        # the inverse pair of x, which makes the trace a pure phase sum
        x = _pair(rng, a, 1, b, 1) + [(_coeff(rng), [(c, 2)])]
        y = _pair(rng, a, -1, b, -1) if commutator else _pair(rng, p, 1, q, -1)
        sessions.append({
            "shape": shape, "d": d,
            "x": [(str(c), f) for c, f in x], "y": [(str(c), f) for c, f in y],
            "x_text": _sum_text(x), "y_text": _sum_text(y),
        })
    rng.shuffle(sessions)
    return sessions


def cyclo_model(session: dict):
    """Float model of x*y plus the exact angle weights of its constant term.

    Twists come from the transposition oracle; the coefficient of a product
    of terms is c_x * c_y * e^(2 pi i twist / D).
    """
    d = session["d"]
    coeffs: dict[tuple, complex] = {}
    constant: dict[F, F] = {}
    for cx, fx in session["x"]:
        for cy, fy in session["y"]:
            twist, word = oracle.brute_normal_form(list(fx) + list(fy))
            r = F(cx) * F(cy)
            coeffs[word] = coeffs.get(word, 0j) + float(r) * complex(
                math.cos(2 * math.pi * twist / d), math.sin(2 * math.pi * twist / d))
            if not word:
                angle = F(twist, d) % 1
                constant[angle] = constant.get(angle, F(0)) + r
    return coeffs, {a: r for a, r in constant.items() if r}


QUARTERS = {F(0): (1, 0), F(1, 4): (0, 1), F(1, 2): (-1, 0), F(3, 4): (0, -1)}


class Cyclo:
    name = "cyclo"
    make_round = staticmethod(cyclo_round)

    ROUND_TRIP_BELOW = 300  # re-parse the printed product at the commutator levels

    @staticmethod
    def kind(session) -> str:
        return f"{session['shape']}:log10L={math.log10(session['d']):.1f}"

    @staticmethod
    def prepare(session):
        return None

    @staticmethod
    def run(session, prepared):
        t0 = perf_counter()
        alg = algebra.TorusAlgebra(deformation.parse_beta(f"1/{session['d']}"))
        x = expr.parse(session["x_text"], alg)
        y = expr.parse(session["y_text"], alg)
        p = x * y
        adjoint_ok = p.adjoint() == y.adjoint() * x.adjoint()
        trace = states.evaluate(states.TRACE, p)
        gaussian = trace.to_qqi()
        t1 = perf_counter()
        text = expr.format_element(p)
        t2 = perf_counter()
        sample = {"op_s": t2 - t0, "work": 1, "session_s": t1 - t0, "print_s": t2 - t1}
        return sample, (alg, p, adjoint_ok, trace, gaussian, text)

    @staticmethod
    def check(session, result, index=0) -> str | None:
        alg, p, adjoint_ok, trace, gaussian, text = result
        if not adjoint_ok:
            return "(x*y)* != y* x*"
        coeffs, constant = cyclo_model(session)
        got = dict(p.terms())
        for word in set(coeffs) | set(got):
            want = coeffs.get(word, 0j)
            have = got[word].to_complex() if word in got else 0j
            if abs(have - want) > 1e-9:
                return f"coefficient of {word}: {have} vs model {want}"
        if abs(trace.to_complex() - coeffs.get((), 0j)) > 1e-9:
            return "trace differs from the model's constant term"
        if all(a in QUARTERS for a in constant):
            re = sum((r * QUARTERS[a][0] for a, r in constant.items()), F(0))
            im = sum((r * QUARTERS[a][1] for a, r in constant.items()), F(0))
            if gaussian is None or (gaussian.re, gaussian.im) != (re, im):
                return f"to_qqi {gaussian}, expected {re}+{im}i"
        elif gaussian is not None:
            return f"to_qqi {gaussian} for a non-Gaussian phase sum"
        if session["d"] < Cyclo.ROUND_TRIP_BELOW and expr.parse(text, alg) != p:
            return "print/parse round trip changed the product"
        return None

    @staticmethod
    def properties(sessions) -> dict:
        shapes: dict[str, int] = {}
        for s in sessions:
            shapes[s["shape"]] = shapes.get(s["shape"], 0) + 1
        return {"shape_counts": shapes, "max_level": max(s["d"] for s in sessions),
                "levels": sorted({s["d"] for s in sessions})}


# --- cli ------------------------------------------------------------------

def _deep_block(depth: int) -> str:
    return '{"kind": "block", "n": 1, "base": ' * depth + '{"kind": "trace"}' + "}" * depth


STATE_FILES = {
    "trace.json": json.dumps(TRACE_JSON),
    "product.json": json.dumps(product_json([[2, "1/2", 0]])),
    "mixture.json": json.dumps(MIXTURE_JSON),
    "n_not_int.json": json.dumps({"kind": "block", "n": "x", "base": TRACE_JSON}),
    "n_missing.json": json.dumps({"kind": "block", "base": TRACE_JSON}),
    "deep.json": _deep_block(3000),
}


def _check_lines(prop, state_label, budget_tail, trials):
    return [f"property: {prop}", f"state: {state_label}",
            f"budget: words: <=3 factors, |index|<=2, |exponent|<=2; {budget_tail}; trials: {trials}",
            "exhaustive cases: 0", f"random trials: {trials}", "result: PASS"]


def cli_round(seed: int, rnd: int) -> list[dict]:
    """Sixteen commands: ten valid ones and the six malformed inputs.

    Expected exit codes and stdout are written here by hand or by formula.
    Malformed inputs must exit 2 with nothing on stdout.
    """
    rng = rng_for("cli", seed, rnd)
    cmds = []

    def add(kind, argv, code, lines, malformed=False):
        cmds.append({"kind": kind, "argv": argv, "code": code,
                     "stdout": "".join(line + "\n" for line in lines),
                     "malformed": malformed})

    d = rng.choice([4, 8, 9, 12, 18, 27, 72, 100, 1000, 1024, 3 ** 7, 5 ** 4 * 2])
    num = rng.choice([k for k in range(1, d) if math.gcd(k, d) == 1][:20])
    add("n0", ["n0", "--alpha", f"{num}/{d}"], 0, [f"n0 = {n0_of(d)}"])
    add("n0", ["n0", "--alpha", "irrational"], 0, ["Delta_alpha = {0}"])
    i, j = sorted(rng.sample(range(-9, 10), 2))
    a, b = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
    text = f"u[{j}]^{a}*u[{i}]^{b}"
    sign = "-1*" if (a * b) % 2 else ""
    fa = "" if a == 1 else f"^{a}"
    fb = "" if b == 1 else f"^{b}"
    add("normal-form", ["normal-form", "--alpha", "1/2", text], 0,
        [f"input: {text}", f"normal form: {sign}u[{i}]{fb}*u[{j}]{fa}"])
    i, j = sorted(rng.sample(range(-9, 10), 2))
    add("eval", ["eval", "--alpha", "1/2", "--state", "product.json",
                 f"u[{i}]^2*u[{j}]^-2"], 0, ["exact: 1/4", "float: 0.25"])
    k = rng.randint(1, 50)
    add("cluster", ["cluster", "--alpha", "1/2", "--state", "mixture.json",
                    "--K", str(k), "u[0]^2", "u[0]^2"], 0,
        ["gap: 1/9", "float: 0.111111111111"])
    trials = rng.randint(5, 40)
    s = str(rng.randrange(1000))
    add("check", ["check", "stationary", "--alpha", "1/2", "--state", "product.json",
                  "--no-exhaustive", "--trials", str(trials), "--seed", s], 0,
        _check_lines("stationary", "product(c_-2=1/2, c_2=1/2)", "shift power: 1", trials))
    add("check", ["check", "spreadable", "--alpha", "1/4", "--state", "trace.json",
                  "--no-exhaustive", "--trials", str(trials), "--seed", s], 0,
        _check_lines("spreadable", "trace",
                     "maps: <=2 generators with |pivot|<=2", trials))
    d = rng.choice([12, 50, 360, 1000, 4096, 9973, 30030])
    add("oracle n0", ["oracle", "n0", str(d)], 0, [f"n0 = {n0_of(d)}"])
    order = rng.randint(2, 6)
    add("oracle psd", ["oracle", "psd", "--alpha", "1/2", "--state", "product.json",
                       "--order", str(order)], 0,
        [f"moment matrix (order {order}): positive semidefinite"])
    add("oracle psd", ["oracle", "psd", "--alpha", "1/2", "--state", "mixture.json",
                       "--words", "1", f"u[{i}]^2", f"u[{j}]^-2"], 0,
        ["gram matrix (3 words): positive semidefinite"])
    add("normal-form", ["normal-form", "--alpha", "1/4", "u[²]"], 2, [], True)
    add("eval", ["eval", "--alpha", "1/2", "--state", "n_not_int.json", "u[0]"], 2, [], True)
    add("eval", ["eval", "--alpha", "1/2", "--state", "n_missing.json", "u[0]"], 2, [], True)
    add("eval", ["eval", "--alpha", "1/2", "--state", "deep.json", "u[0]"], 2, [], True)
    add("check", ["check", "spreadable", "--alpha", "1/2", "--state", "trace.json",
                  "--no-exhaustive", "--trials", "-5"], 2, [], True)
    bad = rng.choice(["1/0", "abc", "1//2", "0.5.1"])
    add("n0", ["n0", "--alpha", bad], 2, [], True)
    rng.shuffle(cmds)
    return cmds


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Malformed inputs of the exit-code contract (0 holds, 1 counterexample,
# 2 bad input) that escape today, pinned by exit code and exception class.
# Any other wrong outcome counts as a failure; when the program is fixed
# the input simply passes.  Each entry is a reproduced bug of input
# hardening (ROADMAP item 4).
KNOWN_DEFECTS = {
    "u[²]": (1, "ValueError"),
    "n_not_int.json": (1, "ValueError"),
    "n_missing.json": (1, "KeyError"),
    "deep.json": (1, "RecursionError"),
    "-5": (0, None),
}


def _defect_key(cmd):
    for arg in cmd["argv"]:
        if arg in KNOWN_DEFECTS:
            return arg
    return None


def _exception_class(stderr: str) -> str | None:
    if "Traceback" not in stderr:
        return None
    last = stderr.strip().splitlines()[-1]
    return last.split(":", 1)[0].strip()


class Cli:
    name = "cli"
    make_round = staticmethod(cli_round)

    @staticmethod
    def kind(cmd) -> str:
        return cmd["kind"] + (" (malformed)" if cmd["malformed"] else "")
    root = "."  # checkout root: the children's working directory
    workdir = "."  # holds the state files

    @staticmethod
    def write_state_files(workdir: str):
        for name, text in STATE_FILES.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)

    @staticmethod
    def prepare(cmd):
        return [os.path.join(Cli.workdir, a) if a.endswith(".json") else a
                for a in cmd["argv"]]

    @staticmethod
    def run(cmd, argv):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "nctorus.cli", *argv],
                              cwd=Cli.root, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        dt = perf_counter() - t0
        return {"op_s": dt, "work": 1}, (proc.returncode, proc.stdout,
                                         _exception_class(proc.stderr))

    @staticmethod
    def run_in_process(cmd, argv):
        """cli.main on the same argv, for the traced run; escapes are caught."""
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, escaped = cli.main(argv), None
            except Exception as exc:  # an escape is a result to check here
                code, escaped = 1, type(exc).__name__
        dt = perf_counter() - t0
        return {"op_s": dt, "work": 1}, (code, out.getvalue(), escaped)

    @staticmethod
    def check(cmd, result, index=0):
        code, out, escaped = result
        if escaped is None and code == cmd["code"] and out == cmd["stdout"]:
            return None
        key = _defect_key(cmd)
        message = f"{' '.join(cmd['argv'])[:80]}: exit {code}" + (
            f" after {escaped}" if escaped else "") + f", expected {cmd['code']}"
        if key is not None and KNOWN_DEFECTS[key] == (code, escaped):
            return Known(message)
        return message

    @staticmethod
    def properties(cmds) -> dict:
        mix: dict[str, int] = {}
        for c in cmds:
            mix[c["kind"]] = mix.get(c["kind"], 0) + 1
        return {"command_mix": mix,
                "malformed_share": sum(c["malformed"] for c in cmds) / len(cmds)}


class Known(str):
    """A failure that matches a pinned known defect."""


WORKLOADS = {w.name: w for w in (Symmetry, Cesaro, Cyclo, Cli)}
