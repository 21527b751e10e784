"""Gamma(4,q) as a Cayley graph of a group of 5x5 unitriangular matrices.

The q^4 matrices g(t,u,v,w) act regularly on points, so the collinearity
graph is Cay(G, S) for the symmetric connection set
S = {g(t, r*t, -r*t^2, r^2*t) : t != 0}.  For odd q the group is a
nonabelian p-group: the commutator [g, g'] = g(0, 0, 2(t'u - tu'), 0).
"""

import numpy as np

from luspec import ff, graphs

q = 5
spec = ff.field_for(q)

S = graphs.connection_set(spec)  # index columns (t, u, v, w); field elements are indices
elements = set(zip(*(c.tolist() for c in S)))
print(f"|S| = {len(elements)} = q(q-1); closed under inversion:",
      set(zip(*(c.tolist() for c in graphs.group_inv(spec, S)))) == elements)

g = graphs.GroupElem(1, 2, 3, 4)
h = graphs.GroupElem(2, 0, 1, 3)
print("g * h       =", tuple(graphs.group_mul(spec, g, h)))
print("[g, h]      =", tuple(graphs.group_commutator(spec, g, h)),
      " (central: only the third slot moves)")

# the closed-form product agrees with literal matrix multiplication
lhs = graphs.group_matrix(spec, graphs.group_mul(spec, g, h))
rhs = graphs.matrix_mul(spec, graphs.group_matrix(spec, g), graphs.group_matrix(spec, h))
print("closed form == 5x5 product:", lhs == rhs)

# g acts on points by P -> P*g, an automorphism of the collinearity graph
pi, gam = graphs.action_permutation(spec, g), graphs.build_gamma(spec)
print(f"P -> P*g is an automorphism of Gamma(4,{q}):",
      np.array_equal(np.sort(pi[gam.neighbors], axis=1), gam.neighbors[pi]))

# the orbit map sigma: g -> P(0,0,0,0)g carries Cay(G,S) onto Gamma column for
# column: Gamma's columns follow S's (t, r) order, and sigma(s*g) is the entry
# of Gamma's row sigma(g) in the column of s
sigma = graphs.cayley_vertex_map(spec)
rows = graphs.slab_rows(*graphs.gamma_slabs(spec))  # Gamma's unsorted rows
ts, r = 2, 4
k = (ts - 1) * q + r  # the column of s = S[k]
sg = graphs.group_mul(spec, [int(c[k]) for c in S], g)
print(f"s = S[{k}], (t_s, r) = ({ts}, {r}): sigma(s*g) =",
      int(sigma[graphs.vertex_index(q, sg)]), "= Gamma's column (t_s, r) at sigma(g) =",
      int(rows[sigma[graphs.vertex_index(q, g)], k]))
# both graphs come in one slab form: slab c4 = w is low + q^3*high[w], and
# slab_rows adds the two digit grids into rows
cay = graphs.slab_rows(*graphs.cayley_slabs(spec))  # row g: s*g for s in S, in order
print(f"sigma(s*g) = Gamma(4,{q})'s column (t_s, r) at sigma(g), for every g and s:",
      np.array_equal(sigma[cay], rows[sigma]))
(low, high), (glow, ghigh) = graphs.cayley_slabs(spec), graphs.gamma_slabs(spec)
s0 = sigma[:q ** 3]  # sigma keeps c4, so the check reads the w-free digits only
print("the same, digit grid by digit grid:",
      np.array_equal(s0[low], glow[s0]) and np.array_equal(high, ghigh))
