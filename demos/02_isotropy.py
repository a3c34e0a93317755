"""The isotropy subgroup of the squared twist.

For rational beta = N/D in lowest terms, the integers k with beta*k*k an
integer form a subgroup n0*Z, where n0 is the least k with D | k*k; for
irrational beta the subgroup is trivial and its annihilator in the circle is
everything.  n0 controls which moment sequences define product states.
"""

from fractions import Fraction

from nctorus import (
    IRRATIONAL,
    brute_n0,
    canonicalize,
    isotropy,
    isotropy_generator_table,
    n0_table,
)

print("beta        denominator factorization      n0   annihilator")
for num, den in [(1, 2), (1, 4), (3, 8), (1, 12), (5, 72), (1, 1)]:
    beta = canonicalize(num, den)
    iso = isotropy(beta)
    factors = " * ".join(f"{p}^{m}" for p, m in beta.denominator_factors) or "1"
    print(f"{str(beta):10}  {factors:22}  {iso.generator:3}   "
          f"roots of unity of order {iso.generator}")

iso = isotropy(IRRATIONAL)
print(f"{'irrational':10}  {'-':22}    -   the whole circle\n")

# the ceiling-exponent formula against the direct scan
print("direct scan agreement for D = 1..20:")
row = [(d, isotropy(canonicalize(1, d)).generator, brute_n0(d)) for d in range(1, 21)]
print("  D: ", " ".join(f"{d:3}" for d, _, _ in row))
print("  n0:", " ".join(f"{g:3}" for _, g, _ in row))
assert all(g == b for _, g, b in row)

# at scale, two independent computations: a smallest-prime-factor walk of the
# formula versus a largest-square-divisor sieve
limit = 10**5
formula = isotropy_generator_table(limit)
sieve = n0_table(limit)
print(f"\nformula table == square-divisor sieve up to {limit}:",
      formula == sieve)

# the defining closure property: sums of subgroup members stay inside
beta = canonicalize(5, 72)
n0 = isotropy(beta).generator
for k, l in [(n0, n0), (2 * n0, 3 * n0), (-n0, 5 * n0)]:
    value = Fraction(beta.numerator, beta.denominator) * (k + l) ** 2
    print(f"beta*({k}+{l})^2 = {value} (integer: {value.denominator == 1})")
