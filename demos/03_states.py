"""The distinguished states and their exact evaluation.

The canonical trace kills every nonempty normal-form word.  A product state
multiplies one circle-state's moments over the sites; it exists exactly when
the moments live on the isotropy subgroup.  Block products spread a base
state over blocks, Cesaro averages restore full shift invariance, and
mixtures witness non-extreme points.
"""

import json
from fractions import Fraction

from nctorus import (
    BlockProductState,
    CesaroState,
    InadmissibleMomentsError,
    IRRATIONAL,
    MixtureState,
    MomentSequence,
    ProductState,
    TRACE,
    TorusAlgebra,
    canonicalize,
    evaluate,
    state_from_json,
    validate_state,
)

F = Fraction
beta = canonicalize(1, 2)
algebra = TorusAlgebra(beta)

print("== canonical trace ==")
for text, x in [("1", algebra.one()),
                ("u[1]*u[2]^-1", algebra.word([(1, 1), (2, -1)])),
                ("u[1]*u[1]^-1", algebra.word([(1, 1), (1, -1)]))]:
    print(f"tr({text}) = {evaluate(TRACE, x)}")

print("\n== product state, moments c_2 = c_-2 = 1/2 ==")
soft = ProductState(MomentSequence({0: 1, 2: F(1, 2)}))
print("phi(u[0]^2*u[5]^-2) =", evaluate(soft, algebra.word([(0, 2), (5, -2)])))
print("phi(u[3]) =", evaluate(soft, algebra.u(3)), "(odd exponents see no mass)")

print("\n== admissibility ==")
try:
    validate_state(ProductState(MomentSequence({0: 1, 1: F(1, 2)})), beta)
except InadmissibleMomentsError as exc:
    print("c_1 != 0 at beta = 1/2 is rejected:", exc)
try:
    validate_state(ProductState(MomentSequence({0: 1, 2: F(1, 2)})), IRRATIONAL)
except InadmissibleMomentsError as exc:
    print("irrational beta admits only the uniform moments:", exc)

print("\n== block products over width-3 blocks ==")
base = MixtureState((
    (F(1, 2), ProductState(MomentSequence({0: 1, 2: F(2, 3), 4: F(1, 6)}))),
    (F(1, 2), ProductState(MomentSequence.lebesgue())),
))
block = BlockProductState(1, base)
x = algebra.word([(1, 2), (2, 2)])  # straddles blocks 0 and 1
print("omega_1(u[1]^2*u[2]^2) =", evaluate(block, x))
shifted = algebra.word([(2, 2), (3, 2)])  # both inside block 1
print("omega_1(u[2]^2*u[3]^2) =", evaluate(block, shifted),
      "(one shift changes the value: only tau^3 is a symmetry)")

print("\n== cesaro average restores shift invariance ==")
ces = CesaroState(1, base)
print("phi_1(x) =", evaluate(ces, x), " phi_1(tau x) =",
      evaluate(ces, algebra.word([(2, 2), (3, 2)])))

print("\n== structured text format ==")
blob = json.dumps(block.to_json(), indent=2)
print(blob)
print("round trips:", state_from_json(json.loads(blob)) == block)
