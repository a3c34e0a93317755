"""Distributional symmetries: spreadability, stationarity, gauge invariance.

A state is spreadable when every strictly increasing relabeling of the
indices leaves it unchanged.  That is a universally quantified property, so
the checkers verify it exactly on a declared budget (an exhaustive grammar
of short words against short compositions of partial shifts, plus seeded
random trials) and report the budget with the verdict.
"""

from fractions import Fraction

from nctorus import (
    BlockProductState,
    Composite,
    MixtureState,
    MomentSequence,
    PartialShift,
    ProductState,
    Shift,
    TRACE,
    canonicalize,
    check_gauge_invariant,
    check_spreadable,
    check_stationary,
)

F = Fraction
beta = canonicalize(1, 2)

# the partial shift theta_0 skips index 0's slot; tau shifts everything
theta0, tau = PartialShift(0), Shift(1)
print("theta_0 on -3..3:", [theta0(k) for k in range(-3, 4)])
print("tau o theta_-1 on -3..3:", [Composite((tau, PartialShift(-1)))(k) for k in range(-3, 4)])

soft = ProductState(MomentSequence({0: 1, 2: F(1, 2)}))
print("\n== product states are spreadable ==")
report = check_spreadable(soft, beta, trials=200, seed=1)
for line in report.lines():
    print(" ", line)

print("\n== block products are only periodically stationary ==")
base = MixtureState((
    (F(1, 2), ProductState(MomentSequence({0: 1, 2: F(2, 3), 4: F(1, 6)}))),
    (F(1, 2), ProductState(MomentSequence.lebesgue())),
))
block = BlockProductState(1, base)
bad = check_stationary(block, beta, power=1, trials=0)
print("  tau-invariance:", "PASS" if bad.passed else
      f"FAIL, witness {bad.counterexample.word} moves "
      f"{bad.counterexample.before} -> {bad.counterexample.after}")
good = check_stationary(block, beta, power=3, trials=200, seed=1)
print("  tau^3-invariance:", "PASS" if good.passed else "FAIL")

print("\n== spreadable states are annihilator-gauge invariant ==")
for state, name in [(TRACE, "trace"), (soft, "product")]:
    report = check_gauge_invariant(state, beta, trials=100, seed=1)
    print(f"  {name}: {'PASS' if report.passed else 'FAIL'}  ({report.budget})")

print("\n== and the block product fails spreadability outright ==")
report = check_spreadable(block, beta, trials=0)
print("  spreadable:", "PASS" if report.passed else "FAIL")
print("  witness:", report.counterexample.word, "under", report.counterexample.action)
