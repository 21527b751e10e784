"""The cubic exponential sums that carry the nontrivial spectrum.

For odd q every eigenvalue of Gamma(4,q) beyond {q(q-1), q, 0, -q} equals
eps^2 - q for an exact cyclotomic integer eps = sum_a zeta^tr(a*t^3 + c*t).
These are computed exactly in Z[zeta_p] and obey |eps| <= 2*sqrt(q).
"""

import numpy as np

from luspec import closedform, cyclo, ff

# the famous near-miss at q = 13: |eps| exceeds the Ramanujan bound
F13 = ff.field_for(13)
eps = cyclo.exp_sum_field([0, 0, 0, 4], F13)        # f(t) = 4 t^3
print("eps_{4t^3} over F_13:")
print("  power basis:", list(eps.coeffs))
print("  value      :", cyclo.embed(eps).real)
print("  2*sqrt(12) =", 2 * 12 ** 0.5, "  2*sqrt(13) =", 2 * 13 ** 0.5)
(margin,) = cyclo.weil_check(eps.spec, np.array([eps.coeffs]), 13)
print(f"  Weil margin: {margin:.4f} (bound holds: {margin >= 0})")

# representative classes: every a*t^3 + c*t folds onto a small canonical set
r13 = closedform.representatives(13)
print(f"\n|C~| for p=13: {len(r13.members)} classes (p + 2 since 13 = 1 mod 3)")
print("  2*t^3 + 3*t folds onto", r13.representative_of(2, 3))

# the eps^2 coincidence at p = 5: two classes whose sums are negatives
F5 = ff.field_for(5)
e2, e3 = (cyclo.exp_sum_field([0, c, 0, 1], F5) for c in (2, 3))
print("\neps^2 coincidence at p=5: eps_{t^3+2t} == -eps_{t^3+3t}:", e2 == -e3)

# fiber profiles determine the sums over prime fields
for c in (2, 3):
    prof = closedform.fiber_profile([0, c, 0, 1], F5)
    val = cyclo.embed(cyclo.exp_sum_field([0, c, 0, 1], F5)).real
    print(f"  |f^-1(s)| for t^3+{c}t over F_5: {prof}  (eps = {val:+.4f})")
