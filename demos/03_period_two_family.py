"""The beta = alpha + 1 regime: exact identities and the two-cycle family.

In this regime the quantity J[n] = a + a*(z[n]+z[n-1]) - z[n]*z[n-1]
obeys an exact one-step recurrence, consecutive gaps z[n+1] - z[n-1]
telescope into a product form, and prime two-cycles form a
one-parameter family indexed by the pair sum.  Orbits converge onto
members of that family.
"""

import numpy as np

from ratdiff import (
    IterationSettings,
    OrbitSeed,
    Parameters,
    check_identities,
    classify_orbit,
    format_complex,
    iterate,
    j_invariant,
    period_two_pairs,
)

alpha = 0.8407 + 0.2542j
p = Parameters(alpha, alpha + 1)
seed = OrbitSeed(55 + 14j, 15 + 26j)

# the four identities hold to rounding noise along any orbit
orbit = iterate(p, seed, IterationSettings(max_steps=200))
report = check_identities(p, orbit)
print("identity residuals over a 200-step orbit:")
print(f"  J recurrence   {report.j_recurrence:.2e}")
print(f"  gap from J     {report.gap_from_j:.2e}")
print(f"  gap recursion  {report.gap_recursion:.2e}")
print(f"  gap product    {report.gap_product:.2e}")

# the orbit settles onto a prime two-cycle
result = classify_orbit(p, seed, IterationSettings(max_steps=4000))
cycle = result.cycle
print(f"\nverdict: {result.verdict}, period {cycle.period}, "
      f"locked from step {cycle.onset}")
print("cycle:", [format_complex(z) for z in cycle.cycle_points])

# J vanishes on the cycle, and the family recovers it from the pair sum
phi, psi = cycle.cycle_points
print(f"|J(phi, psi)| = {abs(j_invariant(p, phi, psi)):.2e}")
family = period_two_pairs(p)
pair = family.pair_for_sum(phi + psi)
print("family pair for the same sum:",
      format_complex(pair.phi), format_complex(pair.psi))

# away from beta = alpha + 1 there is no two-cycle family at all
print("\nfamily exists for beta = alpha:",
      period_two_pairs(Parameters(alpha, alpha)) is not None)

# a sweep over random parameters and seeds lands on two-cycles throughout
rng = np.random.default_rng(0)
verdicts = {}
for _ in range(40):
    a = complex(*rng.uniform(-1, 1, 2))
    s = OrbitSeed(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
    r = classify_orbit(Parameters(a, a + 1), s, IterationSettings(max_steps=3000))
    key = (f"{r.verdict}-{r.cycle.period}" if r.verdict == "periodic"
           else r.verdict)
    verdicts[key] = verdicts.get(key, 0) + 1
print("sweep over 40 random (alpha, seed):", verdicts)
