"""Normal forms in the twisted generator algebra.

The generators u_l (l in Z) are unitaries with u_l u_k = e^(2*pi*i*beta) u_k u_l
for l < k.  Every word therefore equals a phase times a unique normal-ordered
word, and the engine computes that phase exactly as an integer twist exponent.
"""

from fractions import Fraction

from nctorus import (
    MatrixRep,
    TorusAlgebra,
    brute_normal_form,
    canonicalize,
    evaluate,
    matrix_trace_eval,
    normal_form,
    parse,
    TRACE,
)

beta = canonicalize(1, 4)
algebra = TorusAlgebra(beta)
print(f"deformation parameter beta = {beta}\n")

# swapping one out-of-order pair costs one twist unit
print("u[2]*u[1] =", algebra.u(2) * algebra.u(1))
print("twist exponent of [u_2, u_1]:", normal_form([(2, 1), (1, 1)])[0])

# powers multiply the twist: u_3^2 u_0^-1 u_3^-2 picks up twist exponent +2
twist, word = normal_form([(3, 2), (0, -1), (3, -2)])
print(f"\nu[3]^2*u[0]^-1*u[3]^-2: twist {twist}, word {word}")
print("one adjacent swap at a time agrees:",
      brute_normal_form([(3, 2), (0, -1), (3, -2)]) == (twist, word))

# the parser canonicalizes on sight
x = parse("(u[0] + u[1]) * adj(u[0])", algebra)
print("\n(u[0] + u[1]) * adj(u[0]) =", x)

# unitarity is exact: w * adj(w) collapses to 1
w = algebra.word([(0, 3), (2, -1), (5, 2)])
print("w * adj(w) =", w * w.adjoint())

# the finite clock-and-shift model realizes the same relations numerically;
# inside its exponent window the normalized matrix trace matches the
# canonical trace
rep = MatrixRep(canonicalize(1, 5))
commutator = [(1, 1), (2, 1), (1, -1), (2, -1)]
a5 = TorusAlgebra(canonicalize(1, 5))
numeric = matrix_trace_eval(commutator, rep)
symbolic = evaluate(TRACE, a5.word(commutator))
print("\ngroup commutator u1 u2 u1^-1 u2^-1 at beta = 1/5:")
print("  matrix model trace:", numeric)
print("  canonical trace:   ", symbolic, "=", symbolic.to_complex())
