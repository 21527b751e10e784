"""Build D(4,q) and its point collinearity graph, inspect, and export.

The bipartite graph D(4,q) has q^4 "points" and q^4 "lines" over GF(q),
joined by three bilinear incidence equations.  Identifying points that
share a line gives the q(q-1)-regular collinearity graph Gamma(4,q).
"""

import io

from luspec import ff, graphs

q = 3
spec = ff.field_for(q)

d4 = graphs.build_d4(spec)
gam = graphs.build_gamma(spec)

print(f"D(4,{q}):     {d4.n} vertices, {d4.degree}-regular, {d4.num_edges} edges")
print(f"Gamma(4,{q}): {gam.n} vertices, {gam.degree}-regular, {gam.num_edges} edges")

# connectivity: 4 components exactly when q is 2 or 4
for qq in (2, 3, 4, 5):
    # the BFS reads Gamma's rows from its slab pair, as verify does
    count, sizes = graphs.connected_components(graphs.gamma_slabs(ff.field_for(qq)))
    print(f"Gamma(4,{qq}) components: {count} {sizes if count > 1 else ''}")

# the defining equations, on concrete coordinates (field elements are indices)
P = graphs.PointCoords(0, 0, 0, 0)
S = graphs.connection_set(spec)  # index columns (t, u, v, w)
img = graphs.act_point(spec, P, [int(c[0]) for c in S])
print("origin under the first connection-set element:",
      tuple(img), "collinear with origin:", graphs.collinear(spec, P, img))

# no short cycles: the girth is the least g with a cycle of length <= g; the
# scan walks from one root per orbit of the shear group K
for qq in (3, 5, 7):
    adj = graphs.build_d4(ff.field_for(qq))
    girth = next(g for g in range(3, 14) if not graphs.girth_at_least(adj, g + 1))
    print(f"D(4,{qq}) girth: {girth}")

# edge-list export format
buf = io.StringIO()
graphs.write_edge_list(gam, buf)
print("\nedge list preview:")
print("\n".join(buf.getvalue().splitlines()[:5]))
