"""Command line driver.

Exit codes: 0 when the command succeeds (and any checked property holds),
1 when a counterexample is found or a checked property fails, 2 on usage or
input errors.  All randomized commands take --seed and are byte-reproducible
under identical invocations.  Every command that reads a state takes
--mode exact|float and passes it on as the library's mode=; a printed value
is a float-mode value exactly when it is a complex.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .deformation import InputError, parse_beta


def _add_common(sub, state=False):
    sub.add_argument("--alpha", required=True,
                     help="deformation parameter: N/D or 'irrational'")
    if state:
        sub.add_argument("--state", required=True,
                         help="state description file (JSON)")
        sub.add_argument("--mode", choices=("exact", "float"), default="exact")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="exact computation on the infinite noncommutative torus",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("n0", help="isotropy generator of the deformation")
    _add_common(p)
    p.set_defaults(func=_cmd_n0)

    p = subs.add_parser("normal-form", help="canonical form of an expression")
    _add_common(p)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_normal_form)

    p = subs.add_parser("eval", help="evaluate a state on an expression")
    _add_common(p, state=True)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_eval)

    # an option left out is left out of the checker call too, so the
    # checkers' signatures hold the one set of defaults
    p = subs.add_parser("check", help="budgeted invariance checks",
                        argument_default=argparse.SUPPRESS)
    p.add_argument("property", choices=("spreadable", "stationary", "gauge"))
    _add_common(p, state=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--max-index", type=int)
    p.add_argument("--max-exponent", type=int)
    p.add_argument("--max-factors", type=int)
    p.add_argument("--power", type=int,
                   help="shift power for the stationarity check")
    p.add_argument("--no-exhaustive", action="store_false", dest="exhaustive",
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
    _add_common(p)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_oracle_trace)

    p = osubs.add_parser("psd", help="moment or Gram positivity check")
    _add_common(p, state=True)
    p.add_argument("--order", type=int,
                   help="moment matrix order, 4 by default (without --words)")
    p.add_argument("--words", nargs="+", default=None,
                   help="expressions for a Gram matrix check")
    p.set_defaults(func=_cmd_oracle_psd)

    return parser


def _cmd_n0(args) -> int:
    from .deformation import isotropy

    iso = isotropy(parse_beta(args.alpha))
    if iso.generator is None:
        print("Delta_alpha = {0}")
    else:
        print(f"n0 = {iso.generator}")
    return 0


def _parse(beta, *texts) -> list:
    """Each expression text parsed in the one algebra at beta."""
    from .algebra import TorusAlgebra
    from .expr import parse

    algebra = TorusAlgebra(beta)
    return [parse(text, algebra) for text in texts]


def _cmd_normal_form(args) -> int:
    from .expr import format_element

    [x] = _parse(parse_beta(args.alpha), args.expr)
    text = format_element(x)
    print(f"input: {args.expr}")
    print(f"normal form: {text}")
    return 0


def _load(args):
    from .states import load_state

    beta = parse_beta(args.alpha)
    return beta, load_state(args.state, mode=args.mode)


def _cmd_eval(args) -> int:
    from .states import evaluate

    beta, state = _load(args)
    [x] = _parse(beta, args.expr)
    _print_value("exact", evaluate(state, x, mode=args.mode))
    return 0


def _print_value(label: str, value) -> None:
    """An exact value and then its float, or a float-mode (complex) value alone."""
    from .expr import format_complex

    if isinstance(value, complex):
        print(f"float: {format_complex(value)}")
        return
    text = str(value)
    try:
        number = format_complex(value.to_complex())
    except ValueError:
        number = "symbolic (irrational beta)"
    print(f"{label}: {text}")
    print(f"float: {number}")


# The check options that reach the checker when given.
_CHECK_OPTIONS = ("seed", "trials", "max_index", "max_exponent", "max_factors", "power",
                  "exhaustive")


def _cmd_check(args) -> int:
    from .symmetry import check_gauge_invariant, check_spreadable, check_stationary

    options = {key: value for key, value in vars(args).items() if key in _CHECK_OPTIONS}
    # --power 1 names the default shift, so the other checks take it too
    if args.property != "stationary" and options.pop("power", 1) != 1:
        raise InputError(f"--power applies to the stationary check, not to {args.property}")
    beta, state = _load(args)
    checker = {"spreadable": check_spreadable, "stationary": check_stationary,
               "gauge": check_gauge_invariant}[args.property]
    report = checker(state, beta, mode=args.mode, **options)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_cesaro(args) -> int:
    from fractions import Fraction

    from .states import CesaroState, evaluate

    beta, state = _load(args)
    if args.mode == "float":
        raise InputError("the cesaro command runs in exact mode")
    [x] = _parse(beta, args.expr)
    averaged = CesaroState(args.half_width, state)
    phi_n = evaluate(averaged, x)
    phi = evaluate(state, x)
    gap = phi_n - phi
    support = x.support_indices()
    radius = max((abs(i) for i in support), default=0)
    bound = Fraction(4 * radius, 2 * args.half_width + 1)
    lines = [f"phi_{args.half_width}: {phi_n}", f"phi: {phi}",
             f"gap: {abs(gap.to_complex()):.12g}",
             f"bound 4s/(2n+1): {bound} = {float(bound):.12g}"]
    print("\n".join(lines))
    return 0


def _cmd_cluster(args) -> int:
    from .states import clustering_gap

    beta, state = _load(args)
    x, y = _parse(beta, args.x, args.y)
    _print_value("gap", clustering_gap(state, x, y, args.distance, mode=args.mode))
    return 0


def _cmd_oracle_n0(args) -> int:
    from .oracle import brute_n0

    print(f"n0 = {brute_n0(args.denominator)}")
    return 0


def _cmd_oracle_trace(args) -> int:
    from .expr import format_complex
    from .oracle import MatrixRep, matrix_trace_eval
    from .states import TRACE, evaluate

    beta = parse_beta(args.alpha)
    MatrixRep.check(beta)
    [x] = _parse(beta, args.expr)
    MatrixRep.check(beta, x.words())
    rep = MatrixRep(beta)
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
    from .oracle import gram_psd, toeplitz_psd
    from .states import ProductState

    if args.words and args.order is not None:
        raise InputError("--order sets the moment matrix and is not used with --words")
    beta, state = _load(args)
    if args.words:
        elements = _parse(beta, *args.words)
        verdict = gram_psd(state, elements, mode=args.mode)
        print(f"gram matrix ({len(elements)} words): {verdict.describe()}")
    else:
        if not isinstance(state, ProductState):
            raise InputError("the moment matrix check needs a product state")
        order = 4 if args.order is None else args.order
        verdict = toeplitz_psd(state.moments, order)
        print(f"moment matrix (order {order}): {verdict.describe()}")
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # whatever filters the caller has set
        try:
            code, errors = args.func(args), []
        except (InputError, OSError, OverflowError) as exc:
            # OverflowError: a value too large for a float, such as a huge literal
            code, errors = 2, [f"error: {exc}"]
    # one line per distinct warning message, then the error
    for line in [*dict.fromkeys(f"warning: {w.message}" for w in caught), *errors]:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
