"""Command line driver.

Exit codes: 0 when the command succeeds (and any checked property holds),
1 when a counterexample is found or a checked property fails, 2 on usage or
input errors.  All randomized commands take --seed and are byte-reproducible
under identical invocations.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .algebra import TorusAlgebra
from .deformation import InputError, isotropy, parse_beta
from .expr import format_complex, format_element, parse
from .oracle import brute_n0, gram_psd, matrix_rep, matrix_trace_eval, toeplitz_psd
from .states import (
    CesaroState,
    ProductState,
    TRACE,
    clustering_gap,
    clustering_gap_float,
    evaluate,
    evaluate_float,
    load_state,
)
from .symmetry import check_gauge_invariant, check_spreadable, check_stationary


def _add_common(sub, alpha=True, state=False, mode=True, seed=False):
    if alpha:
        sub.add_argument("--alpha", required=True,
                         help="deformation parameter: N/D or 'irrational'")
    if state:
        sub.add_argument("--state", required=True,
                         help="state description file (JSON)")
    if mode:
        sub.add_argument("--mode", choices=("exact", "float"), default="exact")
    if seed:
        sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="exact computation on the infinite noncommutative torus",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("n0", help="isotropy generator of the deformation")
    _add_common(p, mode=False)
    p.set_defaults(func=_cmd_n0)

    p = subs.add_parser("normal-form", help="canonical form of an expression")
    _add_common(p, mode=False)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_normal_form)

    p = subs.add_parser("eval", help="evaluate a state on an expression")
    _add_common(p, state=True)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("check", help="budgeted invariance checks")
    p.add_argument("property", choices=("spreadable", "stationary", "gauge"))
    _add_common(p, state=True, seed=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-index", type=int, default=2)
    p.add_argument("--max-exponent", type=int, default=2)
    p.add_argument("--max-factors", type=int, default=3)
    p.add_argument("--power", type=int, default=1,
                   help="shift power for the stationarity check")
    p.add_argument("--no-exhaustive", action="store_true",
                   help="skip the exhaustive grammar, keep random trials")
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("cesaro", help="Cesaro average against the base state")
    _add_common(p, state=True)
    p.add_argument("--n", type=int, required=True, dest="half_width")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_cesaro)

    p = subs.add_parser("cluster", help="clustering gap phi(x tau^K y) - phi(x)phi(y)")
    _add_common(p, state=True)
    p.add_argument("--K", type=int, required=True, dest="distance")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=_cmd_cluster)

    oracle = subs.add_parser("oracle", help="independent verifiers")
    osubs = oracle.add_subparsers(dest="oracle_command", required=True)

    p = osubs.add_parser("n0", help="isotropy generator by direct scan")
    p.add_argument("denominator", type=int)
    p.set_defaults(func=_cmd_oracle_n0)

    p = osubs.add_parser("trace", help="matrix model trace vs canonical trace")
    _add_common(p, mode=False)
    p.add_argument("--gens", type=int, default=4,
                   help="number of generators in the matrix model")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_oracle_trace)

    p = osubs.add_parser("psd", help="moment or Gram positivity check")
    _add_common(p, state=True)
    p.add_argument("--order", type=int, default=4,
                   help="moment matrix order (without --words)")
    p.add_argument("--words", nargs="*", default=None,
                   help="expressions for a Gram matrix check")
    p.set_defaults(func=_cmd_oracle_psd)

    return parser


def _cmd_n0(args) -> int:
    beta = parse_beta(args.alpha)
    iso = isotropy(beta)
    if iso.generator is None:
        print("Delta_alpha = {0}")
    else:
        print(f"n0 = {iso.generator}")
    return 0


def _cmd_normal_form(args) -> int:
    algebra = TorusAlgebra(parse_beta(args.alpha))
    x = parse(args.expr, algebra)
    text = format_element(x)
    print(f"input: {args.expr}")
    print(f"normal form: {text}")
    return 0


def _load(args):
    beta = parse_beta(args.alpha)
    exact = args.mode == "exact"
    state = load_state(args.state, exact=exact)
    return beta, state, exact


def _cmd_eval(args) -> int:
    beta, state, exact = _load(args)
    algebra = TorusAlgebra(beta)
    x = parse(args.expr, algebra)
    _print_value("exact", evaluate(state, x) if exact else evaluate_float(state, x), exact)
    return 0


def _print_value(label: str, value, exact: bool) -> None:
    """An exact value and then its float, or a float-mode value alone."""
    if not exact:
        print(f"float: {format_complex(value)}")
        return
    text = str(value)
    try:
        number = format_complex(value.to_complex())
    except ValueError:
        number = "symbolic (irrational beta)"
    print(f"{label}: {text}")
    print(f"float: {number}")


def _cmd_check(args) -> int:
    beta, state, exact = _load(args)
    mode = "exact" if exact else "float"
    common = dict(
        trials=args.trials,
        seed=args.seed,
        max_factors=args.max_factors,
        max_index=args.max_index,
        max_exponent=args.max_exponent,
        exhaustive=not args.no_exhaustive,
        mode=mode,
    )
    if args.property == "spreadable":
        report = check_spreadable(state, beta, **common)
    elif args.property == "stationary":
        report = check_stationary(state, beta, power=args.power, **common)
    else:
        report = check_gauge_invariant(state, beta, **common)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_cesaro(args) -> int:
    beta, state, exact = _load(args)
    if not exact:
        raise InputError("the cesaro command runs in exact mode")
    algebra = TorusAlgebra(beta)
    x = parse(args.expr, algebra)
    averaged = CesaroState(args.half_width, state)
    phi_n = evaluate(averaged, x)
    phi = evaluate(state, x)
    gap = phi_n - phi
    support = x.support_indices()
    radius = max((abs(i) for i in support), default=0)
    bound = Fraction(4 * radius, 2 * args.half_width + 1)
    try:
        gap_abs = abs(gap.to_complex())
        gap_text = f"{gap_abs:.12g}"
    except ValueError:
        gap_text = f"symbolic: {gap}"
    lines = [f"phi_{args.half_width}: {phi_n}", f"phi: {phi}", f"gap: {gap_text}",
             f"bound 4s/(2n+1): {bound} = {float(bound):.12g}"]
    print("\n".join(lines))
    return 0


def _cmd_cluster(args) -> int:
    beta, state, exact = _load(args)
    algebra = TorusAlgebra(beta)
    x = parse(args.x, algebra)
    y = parse(args.y, algebra)
    gap = clustering_gap if exact else clustering_gap_float
    _print_value("gap", gap(state, x, y, args.distance), exact)
    return 0


def _cmd_oracle_n0(args) -> int:
    print(f"n0 = {brute_n0(args.denominator)}")
    return 0


def _cmd_oracle_trace(args) -> int:
    beta = parse_beta(args.alpha)
    if not beta.is_rational:
        raise InputError("the matrix model needs rational beta")
    algebra = TorusAlgebra(beta)
    x = parse(args.expr, algebra)
    rep = matrix_rep(beta.numerator, beta.denominator, args.gens)
    numeric = 0j
    for word, coeff in x.terms():
        numeric += coeff.to_complex() * matrix_trace_eval(word, rep)
    symbolic = evaluate(TRACE, x)
    reference = symbolic.to_complex()
    difference = abs(numeric - reference)
    print(f"matrix trace: {format_complex(numeric)}")
    print(f"canonical trace: {symbolic} = {format_complex(reference)}")
    print(f"difference: {difference:.3g}")
    return 0 if difference <= 1e-9 else 1


def _cmd_oracle_psd(args) -> int:
    beta, state, exact = _load(args)
    mode = "exact" if exact else "float"
    if args.words is not None and len(args.words) > 0:
        algebra = TorusAlgebra(beta)
        elements = [parse(text, algebra) for text in args.words]
        verdict = gram_psd(state, elements, mode=mode)
        print(f"gram matrix ({len(elements)} words): {verdict.describe()}")
    else:
        if not isinstance(state, ProductState):
            raise InputError("the moment matrix check needs a product state")
        verdict = toeplitz_psd(state.moments, args.order)
        print(f"moment matrix (order {args.order}): {verdict.describe()}")
    if not verdict.is_psd and verdict.witness is not None:
        witness = ", ".join(str(w) for w in verdict.witness)
        print(f"witness: [{witness}]")
    return 0 if verdict.is_psd else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
