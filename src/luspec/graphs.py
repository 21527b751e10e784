"""The graphs D(4,q) and Gamma(4,q), their automorphism group, and exports.

Vertices carry coordinate 4-tuples over GF(q).  A tuple (c1, c2, c3, c4) of
element indices is encoded base q with c1 least significant:

    index = c1 + c2*q + c3*q^2 + c4*q^3

Points of D(4,q) occupy indices 0 .. q^4-1 and lines q^4 .. 2*q^4-1.  The
point P(p1..p4) and line L(l1..l4) are incident iff

    p2 + l2 = p1*l1,   p3 + l3 = p1*l2,   p4 + l4 = p2*l1

and two distinct points are adjacent in the collinearity graph Gamma iff

    p1 != p1',  (p1-p1')*(p4-p4') = (p2-p2')^2,  p3-p3' = p2*p1' - p1*p2'.

Gamma is also realized as a Cayley graph of the group G of upper unitriangular
5x5 matrices g(t,u,v,w); the closed-form product

    g(t,u,v,w) * g(t',u',v',w') = g(t+t', u+u', v+v'-2*t*u', w+w')

is derived once from the matrix form (and unit-tested against literal 5x5
multiplication).  The connection set is S = {g(t, r*t, -r*t^2, r^2*t): t != 0}.

The builders evaluate each neighbour coordinate once, over broadcast axes of
a (c4, c3, c2, c1, column) grid: a formula spans only the axes it depends on,
and the encoded indices of every column land in one INDEX_DTYPE (uint16)
neighbour matrix.  gamma_slabs and cayley_slabs give Gamma's and Cay(G, S)'s
unsorted rows in one slab form, a w-free grid of low digits plus a c4 digit
per slab and column, which slab_rows adds into rows.  Both take their q^2
digit from a q x q uint16 table by one np.take and add the other digits in
uint16, so neither builds a full-size int64 grid.  Gamma's columns follow
S's (t, r) order, so sigma carries Cay(G, S)'s rows onto Gamma's column for column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ff import FieldElem, FieldSpec, SizeBudgetError

DEFAULT_MAX_GRAPH_Q = 13
# every vertex index is below 2*q^4 <= 2*13^4 = 57,122 < 2^16 (see _check_size)
INDEX_DTYPE = np.uint16
_CHUNK = 1 << 16  # entries per chunk: BFS neighbour gathers, girth walk ends and counts


class PointCoords(NamedTuple):
    p1: FieldElem
    p2: FieldElem
    p3: FieldElem
    p4: FieldElem


class LineCoords(NamedTuple):
    l1: FieldElem
    l2: FieldElem
    l3: FieldElem
    l4: FieldElem


class GroupElem(NamedTuple):
    t: FieldElem
    u: FieldElem
    v: FieldElem
    w: FieldElem


def incident(P: PointCoords, L: LineCoords) -> bool:
    return (P.p2 + L.l2 == P.p1 * L.l1
            and P.p3 + L.l3 == P.p1 * L.l2
            and P.p4 + L.l4 == P.p2 * L.l1)


def collinear(P: PointCoords, Q: PointCoords) -> bool:
    if P.p1 == Q.p1:
        return False
    d2 = P.p2 - Q.p2
    return ((P.p1 - Q.p1) * (P.p4 - Q.p4) == d2 * d2
            and P.p3 - Q.p3 == P.p2 * Q.p1 - P.p1 * Q.p2)


# ----------------------------------------------------------------------
# group law

def _two(spec: FieldSpec) -> FieldElem:
    return spec.element([2 % spec.p] + [0] * (spec.e - 1))


def group_identity(spec: FieldSpec) -> GroupElem:
    z = spec.zero
    return GroupElem(z, z, z, z)


def group_mul(g: GroupElem, h: GroupElem) -> GroupElem:
    two = _two(g.t.spec)
    return GroupElem(g.t + h.t, g.u + h.u,
                     g.v + h.v - two * g.t * h.u, g.w + h.w)


def group_inv(g: GroupElem) -> GroupElem:
    two = _two(g.t.spec)
    return GroupElem(-g.t, -g.u, -g.v - two * g.t * g.u, -g.w)


def group_commutator(g: GroupElem, h: GroupElem) -> GroupElem:
    return group_mul(group_mul(group_inv(g), group_inv(h)), group_mul(g, h))


def group_matrix(g: GroupElem):
    """The literal 5x5 unitriangular matrix of g, rows of FieldElems."""
    spec = g.t.spec
    z, o = spec.zero, spec.one
    t, u, v, w = g
    return ((o, t, u, v + t * u, w),
            (z, o, z, -u, z),
            (z, z, o, t, z),
            (z, z, z, o, z),
            (z, z, z, z, o))


def matrix_mul(A, B):
    n = len(A)
    spec = A[0][0].spec
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(n)), spec.zero)
              for j in range(n))
        for i in range(n))


def act_point(P: PointCoords, g: GroupElem) -> PointCoords:
    """Right action of G on points: the row vector (1, p1..p4) times g."""
    t, u, v, w = g
    return PointCoords(P.p1 + t, P.p2 + u,
                       P.p3 + v + t * u - P.p1 * u + P.p2 * t, P.p4 + w)


def connection_set(spec: FieldSpec) -> list[GroupElem]:
    """S = {g(t, r*t, -r*t^2, r^2*t) : r in F, t != 0}, in (t, r) scan order."""
    out = []
    for ti in range(1, spec.q):
        t = FieldElem(spec, ti)
        for ri in range(spec.q):
            r = FieldElem(spec, ri)
            out.append(GroupElem(t, r * t, -(r * t * t), r * r * t))
    return out


def _connection_indices(spec: FieldSpec):
    """S's index columns (t, u, v, w), in connection_set's (t, r) scan order."""
    t, r = np.divmod(np.arange(spec.q, spec.q * spec.q), spec.q)
    u = spec.mul(r, t)
    return t, u, spec.neg(spec.mul(u, t)), spec.mul(spec.mul(r, r), t)


# ----------------------------------------------------------------------
# adjacency structures

@dataclass(eq=False)
class AdjacencyStructure:
    """Regular undirected graph held as a sorted (n, degree) neighbor matrix."""

    name: str
    q: int
    n: int
    neighbors: np.ndarray

    @property
    def degree(self) -> int:
        return self.neighbors.shape[1]

    @property
    def num_edges(self) -> int:
        return self.n * self.degree // 2

    def _arcs(self):
        """int64 (u, v) of every arc u -> v, in row order."""
        return (np.repeat(np.arange(self.n, dtype=np.int64), self.degree),
                self.neighbors.reshape(-1).astype(np.int64))

    def edge_array(self) -> np.ndarray:
        """(m, 2) array of edges u < v, sorted by (u, v)."""
        u, v = self._arcs()
        mask = u < v
        return np.column_stack([u[mask], v[mask]])

    def validate(self):
        nb = self.neighbors
        if np.any(nb[:, 1:] <= nb[:, :-1]):  # np.diff would wrap on unsigned rows
            raise ValueError("neighbor rows must be strictly increasing")
        if np.any(nb == np.arange(self.n)[:, None]):
            raise ValueError("loops present")
        # rows increase, so the arcs u*n + v are already sorted in row order
        u, v = self._arcs()
        if not np.array_equal(u * self.n + v, np.sort(v * self.n + u)):
            raise ValueError("adjacency is not symmetric")
        return True


def _coord_axes(q: int):
    """(c1, c2, c3, c4) as arange(q) axes of a (c4, c3, c2, c1, column) grid.

    The grid is in C order, so it flattens to the base-q vertex index, and a
    formula evaluated on these axes spans only the axes it depends on."""
    c = np.arange(q)
    return tuple(c.reshape((1,) * (3 - k) + (q,) + (1,) * (k + 1)) for k in range(4))


def _encode(q: int, c1, c2, c3, c4) -> np.ndarray:
    """c1 + q*c2 + q^2*c3 + q^3*c4 over the (c4, c3, c2, c1, column) grid, as
    an INDEX_DTYPE (q^4, columns) matrix.

    No caller's c1..c3 spans the c4 axis, so the low digits sum on a grid
    q times smaller; both digit grids take INDEX_DTYPE there, and one ufunc
    pass writes the full grid in it."""
    low = (c1 + q * c2 + q * q * c3).astype(INDEX_DTYPE)
    high = (q ** 3 * c4).astype(INDEX_DTYPE)
    out = np.empty(np.broadcast_shapes(low.shape, high.shape), dtype=INDEX_DTYPE)
    np.add(low, high, out=out)
    return out.reshape(q ** 4, -1)


def _check_size(spec: FieldSpec):
    if spec.q > DEFAULT_MAX_GRAPH_Q:
        raise SizeBudgetError(
            f"q={spec.q} exceeds the graph construction bound {DEFAULT_MAX_GRAPH_Q}")


def gamma_slabs(spec: FieldSpec):
    """(glow, ghigh): Gamma's unsorted rows of the slab c4 = w are glow + q^3*ghigh[w],
    one column per (d, r) in connection_set's (t, r) order: Q = (P1+d, P2+r*d,
    P3-(P2*Q1-P1*Q2), P4+r^2*d), whose low digits (glow, (q^3, q^2-q)) are free of
    P4.  Row sigma(g) is sigma of Cay(G, S)'s row g, column for column."""
    _check_size(spec)
    q, add, sub, mul = spec.q, spec.add, spec.sub, spec.mul
    P1, P2 = (c[0] for c in _coord_axes(q)[:2])  # on the (c3, c2, c1, column) axes
    (d, rd, _, r2d), c = _connection_indices(spec), np.arange(q)[:, None]
    x = sub(mul(d, P2), mul(rd, P1))[0]  # P2*Q1 - P1*Q2 on the (c2, c1, column) axes
    glow = np.take((q * q * sub(c, c.T)).astype(INDEX_DTYPE), x, axis=1)  # q^2*(P3 - x)
    glow += (add(P1, d) + q * add(P2, rd)).astype(INDEX_DTYPE)
    return glow.reshape(q ** 3, -1), add(c, r2d).astype(INDEX_DTYPE)


def slab_rows(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The unsorted (q^4, columns) rows whose slab c4 = w is low + q^3*high[w]."""
    nb = np.empty((len(high), *low.shape), dtype=INDEX_DTYPE)
    return np.add(low, len(low) * high[:, None], out=nb).reshape(-1, low.shape[1])


def build_gamma(spec: FieldSpec) -> AdjacencyStructure:
    """Point collinearity graph: q^4 vertices, q*(q-1)-regular."""
    nb = slab_rows(*gamma_slabs(spec))
    nb.sort(axis=1)
    return AdjacencyStructure("GAMMA4", spec.q, spec.q ** 4, nb)


def build_d4(spec: FieldSpec) -> AdjacencyStructure:
    """Bipartite point-line incidence graph: 2*q^4 vertices, q-regular."""
    _check_size(spec)
    q = spec.q
    sub, mul = spec.sub, spec.mul
    C1, C2, C3, C4 = _coord_axes(q)
    a = np.arange(q)
    n4 = q ** 4
    # c1*a - c2 is l2 of the line through a point with l1 = a, and p2 of the
    # point on a line with p1 = a
    X2 = sub(mul(C1, a), C2)
    nb_pts = _encode(q, n4 + a, X2, sub(mul(C1, X2), C3), sub(mul(C2, a), C4))
    nb_lns = _encode(q, a, X2, sub(mul(C2, a), C3), sub(mul(X2, C1), C4))
    nb = np.vstack([nb_pts, nb_lns])
    nb.sort(axis=1)
    return AdjacencyStructure("D4", q, 2 * n4, nb)


def cayley_slabs(spec: FieldSpec):
    """(low, high): Cay(G, S)'s unsorted rows of the slab c4 = w are low + q^3*high[w],
    columns in connection_set order; s*g = (ts+t, us+u, vs+v-2*ts*u, ws+w) has
    low digits free of w."""
    _check_size(spec)
    q, add, sub, mul = spec.q, spec.add, spec.sub, spec.mul
    T, U = (c[0] for c in _coord_axes(q)[:2])  # on the (c3, c2, c1, column) axes
    (ts, us, vs, ws), c = _connection_indices(spec), np.arange(q)[:, None]
    y = sub(vs, mul(2 % spec.p, mul(ts, U)))[0]  # V2 = V + y, y on the (c2, c1, column) axes
    low = np.take((q * q * add(c, c.T)).astype(INDEX_DTYPE), y, axis=1)  # q^2*V2, free of c1
    low = low + (add(T, ts) + q * add(U, us)).astype(INDEX_DTYPE)  # broadcast over c1
    return low.reshape(q ** 3, -1), add(c, ws).astype(INDEX_DTYPE)


def build_cayley(spec: FieldSpec) -> AdjacencyStructure:
    """Cay(G, S): vertex g(t,u,v,w) at index enc(t,u,v,w); g ~ g' iff g'*g^-1 in S."""
    nb = slab_rows(*cayley_slabs(spec))
    nb.sort(axis=1)
    return AdjacencyStructure("CAYLEY4", spec.q, spec.q ** 4, nb)


def action_permutation(spec: FieldSpec, g: GroupElem) -> np.ndarray:
    """The permutation P -> P*g of point indices, vectorized over all points."""
    _check_size(spec)
    q = spec.q
    add, sub, mul = spec.add, spec.sub, spec.mul
    P1, P2, P3, P4 = _coord_axes(q)
    t, u, v, w = g.t.i, g.u.i, g.v.i, g.w.i
    Q3 = add(P3, sub(add(add(v, mul(t, u)), mul(P2, t)), mul(P1, u)))
    return _encode(q, add(P1, t), add(P2, u), Q3, add(P4, w)).ravel()


def cayley_vertex_map(spec: FieldSpec) -> np.ndarray:
    """Permutation sigma with sigma[enc(g)] = point index of P(0,0,0,0)*g.

    P(0,0,0,0)*g(t,u,v,w) = P(t, u, v + t*u, w); this is the regular-action
    bijection carrying Cay(G, S) onto the collinearity graph.
    """
    _check_size(spec)
    q = spec.q
    T, U, V, W = _coord_axes(q)
    return _encode(q, T, U, spec.add(V, spec.mul(T, U)), W).ravel()


def point_index(P: PointCoords) -> int:
    q = P.p1.spec.q
    return P.p1.i + q * P.p2.i + q * q * P.p3.i + q ** 3 * P.p4.i


def point_from_index(spec: FieldSpec, i: int) -> PointCoords:
    q = spec.q
    return PointCoords(FieldElem(spec, i % q), FieldElem(spec, (i // q) % q),
                       FieldElem(spec, (i // q ** 2) % q), FieldElem(spec, i // q ** 3))


def group_elem_index(g: GroupElem) -> int:
    q = g.t.spec.q
    return g.t.i + q * g.u.i + q * q * g.v.i + q ** 3 * g.w.i


def group_elem_from_index(spec: FieldSpec, i: int) -> GroupElem:
    q = spec.q
    return GroupElem(FieldElem(spec, i % q), FieldElem(spec, (i // q) % q),
                     FieldElem(spec, (i // q ** 2) % q), FieldElem(spec, i // q ** 3))


# ----------------------------------------------------------------------
# connectivity / girth / exports

def connected_components(adj: AdjacencyStructure):
    """(component count, sizes in decreasing order) by BFS in both directions.

    Rows are read as sets of neighbours, so they need not be sorted.

    A small frontier gathers its neighbour rows, _CHUNK entries at a time, and
    stops once every vertex is seen (top-down).  Once twice the frontier
    outnumbers the unseen vertices, those test one neighbour column at a time
    for a frontier neighbour, and each column drops the ones found (bottom-up)."""
    n, nb = adj.n, adj.neighbors
    seen = np.zeros(n, dtype=bool)
    step = max(1, _CHUNK // adj.degree)
    sizes, left = [], n  # left: the number of unseen vertices
    while left:
        frontier = np.asarray([np.argmin(seen)])  # the first unseen vertex
        seen[frontier] = True
        start, left = left, left - 1
        while frontier.size and left:
            if 2 * frontier.size > left:
                front, found = np.zeros(n, dtype=bool), []
                front[frontier] = True
                unseen = np.flatnonzero(~seen)
                for col in nb.T:
                    hit = front[col[unseen]]
                    found.append(unseen[hit])
                    unseen = unseen[~hit]
                    if not unseen.size:
                        break
                frontier = np.concatenate(found)
                seen[frontier] = True
            else:
                mark = seen.copy()
                for lo in range(0, frontier.size, step):
                    mark[nb[frontier[lo:lo + step]]] = True
                    if mark.all():  # every vertex seen: the rest adds nothing
                        break
                frontier = np.flatnonzero(mark ^ seen)
                seen = mark
            left -= frontier.size
        sizes.append(start - left)
    return len(sizes), sorted(sizes, reverse=True)


def girth_at_least(adj: AdjacencyStructure, g: int = 8) -> bool:
    """True iff the graph has no cycle shorter than g.

    From every root at once, the non-backtracking walks of length 0..R,
    R = (g-1)//2, must end at pairwise distinct vertices (else two of them
    close a cycle of length <= 2R); for even g the walks of length R+1 must
    also end away from all of those (else a cycle of length <= 2R+1).  A chunk
    of roots counts its walk ends in one table, slot root_row*n + end: no count
    may exceed 1, and every length-(R+1) end must find a count of 0.  Each root
    costs n table slots, so a chunk stays within _CHUNK entries while n <= _CHUNK."""
    n, k, nb = adj.n, adj.degree, adj.neighbors
    R, last = (g - 1) // 2, g // 2  # last = R + 1 for even g
    walks = 1 + sum(k * (k - 1) ** (level - 1) for level in range(1, last + 1))
    step = max(1, _CHUNK // max(walks, n))
    for lo in range(0, n, step):
        roots = np.arange(lo, min(lo + step, n), dtype=nb.dtype)
        ends = roots[:, None]
        levels = [ends]
        for level in range(1, last + 1):
            cand = nb[ends]
            if level > 1:  # drop the step back to each walk's predecessor
                cand = cand[cand != prev[..., None]]
            prev = np.repeat(ends, k if level == 1 else k - 1, axis=1)
            ends = cand.reshape(len(roots), -1)
            levels.append(ends)
        offset = np.arange(0, len(roots) * n, n)[:, None]
        near = np.concatenate(levels[:R + 1], axis=1) + offset
        counts = np.bincount(near.reshape(-1), minlength=len(roots) * n)
        if counts.max() > 1 or (last > R and np.any(counts[ends + offset])):
            return False
    return True


def write_edge_list(adj: AdjacencyStructure, fp, timestamp: str | None = None):
    """Header '# graph=.. q=.. vertices=.. edges=.. indexing=base-q', then 'u v' rows."""
    fp.write(f"# graph={adj.name} q={adj.q} vertices={adj.n} "
             f"edges={adj.num_edges} indexing=base-q\n")
    if timestamp:
        fp.write(f"# generated={timestamp}\n")
    for u, v in adj.edge_array():
        fp.write(f"{u} {v}\n")


def coordinate_dict(adj: AdjacencyStructure) -> dict:
    """Vertex index -> coordinate 4-tuple (points first; D4 lines follow)."""
    q = adj.q
    n4 = q ** 4
    coords = {}
    for i in range(adj.n):
        j = i - n4 if i >= n4 else i
        coords[str(i)] = [j % q, (j // q) % q, (j // q ** 2) % q, j // q ** 3]
    return coords


def write_coordinate_dict(adj: AdjacencyStructure, fp, timestamp: str | None = None):
    doc = {"graph": adj.name, "q": adj.q, "vertices": adj.n,
           "indexing": "base-q", "coords": coordinate_dict(adj)}
    if timestamp:
        doc["generated"] = timestamp
    json.dump(doc, fp, indent=None, separators=(",", ":"))
    fp.write("\n")
