"""The characteristic-9 route for q = 3^e.

Over fields of characteristic 3 the cubic sums degenerate, so the spectrum
classes come from the Galois ring GR(9,e) instead: sums of zeta_9^trace over
the Teichmueller set T, for the family t^3 + 3*c*t.  On T the exponent is
Tr(x) + 3*tr(c*x) mod 9, so the ring enters only through one vector, the
trace Tr(T(a)) in Z/9 of the Teichmueller lift of each a in GF(q).
"""

import numpy as np

from luspec import closedform, cyclo, ff, gr9

R = gr9.gr9_make(2)
print(f"GR(9,2): modulus {R.modulus} over Z/9, residue field GF({R.q})")
print("Tr(T(a)) for a = 0..8:", R.teich_trace.tolist())
print("mod 3 (the field trace):", (R.teich_trace % 3).tolist(),
      "=", R.field.trace.tolist())

print("\nconductor-9 sums for t^3 + 3*c*t:")
sums = [cyclo.exp_sum_gr(c, R) for c in range(4)]
margins = cyclo.weil_check(cyclo.cyc_spec(9), np.array([e.coeffs for e in sums]), R.q)
for c, (eps, margin) in enumerate(zip(sums, margins)):
    print(f"  c = {c}: eps = {cyclo.embed(eps).real:+.6f}, Weil margin {margin:.4f}")

s = closedform.spectrum_odd(ff.field_for(9))
print(f"\nGamma(4,9) spectrum: {len(s.entries)} distinct eigenvalues, "
      f"total multiplicity {s.total} = 9^4")
for e in s.entries[:6]:
    print(f"  {e.approx:+12.6f}  x{e.multiplicity}")

R7 = gr9.gr9_make(7)
s = closedform.spectrum_odd(ff.field_for(R7.q))
print(f"\nGR(9,7): {R7.q} Teichmueller traces; Gamma(4,{R7.q}) has "
      f"{len(s.entries)} distinct eigenvalues")
