"""The graphs D(4,q) and Gamma(4,q), their automorphism group, and exports.

Vertices carry coordinate 4-tuples over GF(q).  A tuple (c1, c2, c3, c4) of
element indices is encoded base q with c1 least significant:

    index = c1 + c2*q + c3*q^2 + c4*q^3     (vertex_index; vertex_coords inverts it)

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
connected_components reads rows from the slab form itself, so verify builds
Gamma's rows only for the numeric oracle.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ff import FieldSpec, SizeBudgetError, field_for

DEFAULT_MAX_GRAPH_Q = 13
# every vertex index is below 2*q^4 <= 2*13^4 = 57,122 < 2^16 (see _check_size)
INDEX_DTYPE = np.uint16
_CHUNK = 1 << 16  # entries per chunk: BFS neighbour gathers, girth walk ends and counts
_BLOCK = 1 << 10  # entries per bottom-up BFS block: few enough that little is tested twice


class PointCoords(NamedTuple):
    p1: int
    p2: int
    p3: int
    p4: int


class GroupElem(NamedTuple):
    t: int
    u: int
    v: int
    w: int


# ----------------------------------------------------------------------
# the paper's definitions, written with spec ops on element indices, so that
# each coordinate may be an int or an array (broadcast elementwise)

def collinear(spec: FieldSpec, P, Q):
    (p1, p2, p3, p4), (q1, q2, q3, q4) = P, Q
    sub, mul = spec.sub, spec.mul
    d2 = sub(p2, q2)
    return ((p1 != q1) & (mul(sub(p1, q1), sub(p4, q4)) == mul(d2, d2))
            & (sub(p3, q3) == sub(mul(p2, q1), mul(p1, q2))))


def group_mul(spec: FieldSpec, g, h) -> GroupElem:
    (t, u, v, w), (t2, u2, v2, w2) = g, h
    add, mul = spec.add, spec.mul
    return GroupElem(add(t, t2), add(u, u2),
                     spec.sub(add(v, v2), mul(2 % spec.p, mul(t, u2))), add(w, w2))


def group_inv(spec: FieldSpec, g) -> GroupElem:
    t, u, v, w = g
    neg = spec.neg
    return GroupElem(neg(t), neg(u), spec.sub(neg(v), spec.mul(2 % spec.p, spec.mul(t, u))),
                     neg(w))


def group_commutator(spec: FieldSpec, g, h) -> GroupElem:
    return group_mul(spec, group_mul(spec, group_inv(spec, g), group_inv(spec, h)),
                     group_mul(spec, g, h))


def group_matrix(spec: FieldSpec, g):
    """The literal 5x5 unitriangular matrix of g, rows of element indices."""
    t, u, v, w = g
    return ((1, t, u, spec.add(v, spec.mul(t, u)), w),
            (0, 1, 0, spec.neg(u), 0),
            (0, 0, 1, t, 0),
            (0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1))


def matrix_mul(spec: FieldSpec, A, B):
    n = len(A)
    return tuple(
        tuple(functools.reduce(spec.add, [spec.mul(A[i][k], B[k][j]) for k in range(n)])
              for j in range(n))
        for i in range(n))


def act_point(spec: FieldSpec, P, g) -> PointCoords:
    """Right action of G on points: the row vector (1, p1..p4) times g."""
    (p1, p2, p3, p4), (t, u, v, w) = P, g
    add, sub, mul = spec.add, spec.sub, spec.mul
    return PointCoords(add(p1, t), add(p2, u),
                       add(p3, sub(add(add(v, mul(t, u)), mul(p2, t)), mul(p1, u))), add(p4, w))


def connection_set(spec: FieldSpec):
    """S = {g(t, r*t, -r*t^2, r^2*t) : r in F, t != 0} as its index columns
    (t, u, v, w), in (t, r) scan order."""
    t, r = np.divmod(np.arange(spec.q, spec.q * spec.q), spec.q)
    u = spec.mul(r, t)
    return t, u, spec.neg(spec.mul(u, t)), spec.mul(spec.mul(r, r), t)


def vertex_index(q: int, coords):
    """The base-q index c1 + q*c2 + q^2*c3 + q^3*c4 of coordinates (c1, c2, c3, c4),
    ints or arrays."""
    c1, c2, c3, c4 = coords
    return c1 + q * c2 + q * q * c3 + q ** 3 * c4


def vertex_coords(q: int, i):
    """The coordinates (c1, c2, c3, c4) of the base-q index i, an int or an array."""
    return tuple(i // q ** k % q for k in range(4))


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
    low = vertex_index(q, (c1, c2, c3, 0)).astype(INDEX_DTYPE)
    high = vertex_index(q, (0, 0, 0, c4)).astype(INDEX_DTYPE)
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
    (d, rd, _, r2d), c = connection_set(spec), np.arange(q)[:, None]
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
    (ts, us, vs, ws), c = connection_set(spec), np.arange(q)[:, None]
    y = sub(vs, mul(2 % spec.p, mul(ts, U)))[0]  # V2 = V + y, y on the (c2, c1, column) axes
    low = np.take((q * q * add(c, c.T)).astype(INDEX_DTYPE), y, axis=1)  # q^2*V2, free of c1
    low = low + (add(T, ts) + q * add(U, us)).astype(INDEX_DTYPE)  # broadcast over c1
    return low.reshape(q ** 3, -1), add(c, ws).astype(INDEX_DTYPE)


def build_cayley(spec: FieldSpec) -> AdjacencyStructure:
    """Cay(G, S): vertex g(t,u,v,w) at index enc(t,u,v,w); g ~ g' iff g'*g^-1 in S."""
    nb = slab_rows(*cayley_slabs(spec))
    nb.sort(axis=1)
    return AdjacencyStructure("CAYLEY4", spec.q, spec.q ** 4, nb)


def action_permutation(spec: FieldSpec, g) -> np.ndarray:
    """The permutation P -> P*g of point indices: act_point on the coordinate axes."""
    _check_size(spec)
    return _encode(spec.q, *act_point(spec, _coord_axes(spec.q), g)).ravel()


def cayley_vertex_map(spec: FieldSpec) -> np.ndarray:
    """Permutation sigma with sigma[enc(g)] = point index of P(0,0,0,0)*g.

    P(0,0,0,0)*g(t,u,v,w) = P(t, u, v + t*u, w); this is the regular-action
    bijection carrying Cay(G, S) onto the collinearity graph.
    """
    _check_size(spec)
    q = spec.q
    T, U, V, W = _coord_axes(q)
    return _encode(q, T, U, spec.add(V, spec.mul(T, U)), W).ravel()


def shear_orbits(adj: AdjacencyStructure):
    """(orbit, k) of every vertex under the shear group K = {g(0, b, x, y)},
    k = (b, x, y) encoded b + q*x + q^2*y, if K acts on adj; else None.

    k maps a point or Gamma vertex to (c1, c2+b, c3-b*c1+x, c4+y), a Cay(G, S)
    vertex to (c1, c2+b, c3-2b*c1+x, c4+y) (right multiplication by
    g(0, b, x, y)) and a D(4,q) line to (c1, c2-b, c3-x, c4+b*c1-y).  v is k
    of its orbit's vertex with c2 = c3 = c4 = 0; orbits are numbered c1, lines
    after points.  K acts if adj is a D4, GAMMA4 or CAYLEY4 of its size and, in
    integers, each of K's 3e generators pi: k -> k + p^i on one axis carries
    every row onto its image's row, sort(pi[nb]) = nb[pi]."""
    q, nb, sides = adj.q, adj.neighbors, {"D4": 2, "GAMMA4": 1, "CAYLEY4": 1}.get(adj.name)
    if sides is None or adj.n != sides * q ** 4:
        return None
    spec, q3 = field_for(q), q ** 3
    side, j = np.divmod(np.arange(adj.n), q ** 4)
    c1, c2, c3, c4 = vertex_coords(q, j)
    shear = spec.mul(c1, c2)
    if adj.name == "CAYLEY4":
        shear = spec.add(shear, shear)
    line = side == 1
    b = np.where(line, spec.neg(c2), c2)
    x = np.where(line, spec.neg(c3), spec.add(c3, shear))
    y = np.where(line, spec.neg(spec.add(c4, shear)), c4)
    orbit, k = side * q + c1, b + q * x + q * q * y
    vertex = np.empty(adj.n, dtype=nb.dtype)
    vertex[orbit * q3 + k] = np.arange(adj.n)
    gens = [vertex[orbit * q3 + k + (spec.add(digit, w) - digit) * axis]
            for axis in (1, q, q * q) for digit in [k // axis % q]
            for w in (spec.p ** i for i in range(spec.e))]
    return (orbit, k) if _permutes_rows(nb, gens) else None


def _permutes_rows(nb: np.ndarray, perms) -> bool:
    """True iff each permutation pi in perms has sort(pi[nb]) = nb[pi], row by row;
    in 1024-row blocks, each cast to intp once (numpy gathers faster by intp)."""
    return all(np.array_equal(np.sort(pi[block], axis=1), nb[pi[v]])
               for v in (slice(i, i + 1024) for i in range(0, len(nb), 1024))
               for block in [nb[v].astype(np.intp)] for pi in perms)


# ----------------------------------------------------------------------
# connectivity / girth / exports

def connected_components(rows):
    """(component count, sizes in decreasing order) by BFS in both directions.

    rows is an (n, degree) array of neighbour rows, or a slab pair (low, high)
    whose row w*len(low) + j is low[j] + len(low)*high[w], as gamma_slabs gives
    Gamma's; an array is read as the pair with one all-zero slab.  Each BFS
    level splits its vertices into (w, j) once, and reads their rows only
    through low[j] and high[w], so a pair is never added into rows.  Rows are
    read as sets of neighbours, so they need not be sorted.

    A small frontier gathers its neighbour rows, _CHUNK entries at a time, and
    stops once every vertex is seen (top-down).  Once twice the frontier
    outnumbers the unseen vertices, those test blocks of neighbour columns for
    a frontier neighbour, and each block drops the ones found (bottom-up).  A
    block spans about _BLOCK entries: one column while the unseen vertices are
    many, more as they thin out, and all that are left for the last few."""
    low, high = rows if isinstance(rows, tuple) else (rows, np.zeros_like(rows[:1]))
    n3 = len(low)
    n, high = n3 * len(high), n3 * high  # high: each slab's offset, in the rows' dtype
    seen = np.zeros(n, dtype=bool)
    step = max(1, _CHUNK // low.shape[1])
    sizes, left = [], n  # left: the number of unseen vertices
    while left:
        frontier = np.asarray([np.argmin(seen)])  # the first unseen vertex
        seen[frontier] = True
        start, left = left, left - 1
        while frontier.size and left:
            if 2 * frontier.size > left:
                front = np.zeros(n, dtype=bool)
                front[frontier] = True
                w, j = np.divmod(np.flatnonzero(~seen), n3)
                col = 0
                while j.size and col < low.shape[1]:  # the next block of columns
                    cols = slice(col, col + max(1, _BLOCK // j.size))
                    miss = ~front[low[j, cols] + high[w, cols]].any(axis=1)
                    w, j, col = w[miss], j[miss], cols.stop
                mark = np.ones(n, dtype=bool)
                mark[w * n3 + j] = False  # the vertices still unseen
            else:
                mark = seen.copy()
                w, j = np.divmod(frontier, n3)
                for lo in range(0, frontier.size, step):
                    mark[low[j[lo:lo + step]] + high[w[lo:lo + step]]] = True
                    if mark.all():  # every vertex seen: the rest adds nothing
                        break
            frontier = np.flatnonzero(mark ^ seen)
            seen = mark
            left -= frontier.size
        sizes.append(start - left)
    return len(sizes), sorted(sizes, reverse=True)


def girth_at_least(adj: AdjacencyStructure, g: int = 8) -> bool:
    """True iff the graph has no cycle shorter than g.

    From each root, the non-backtracking walks of length 0..R, R = (g-1)//2,
    must end at pairwise distinct vertices (else two of them close a cycle of
    length <= 2R); for even g the walks of length R+1 must also end away from
    all of those (else a cycle of length <= 2R+1).  Any shorter cycle through
    the root breaks this, so one root per orbit of an automorphism group is
    exact: an automorphism carries a short cycle through any vertex onto one
    through its orbit's root.  The roots are K's, k = 0, if shear_orbits finds
    that K acts (2q for D(4,q), q for Gamma), else every vertex.  A chunk of
    roots counts its walk ends in one table, slot root_row*n + end: no count
    may exceed 1, and every length-(R+1) end must find a count of 0.  Each root
    costs n table slots, so a chunk stays within _CHUNK entries while n <= _CHUNK."""
    n, k, nb = adj.n, adj.degree, adj.neighbors
    labels = shear_orbits(adj)
    starts = np.arange(n) if labels is None else np.flatnonzero(labels[1] == 0)
    R, last = (g - 1) // 2, g // 2  # last = R + 1 for even g
    walks = 1 + sum(k * (k - 1) ** (level - 1) for level in range(1, last + 1))
    step = max(1, _CHUNK // max(walks, n))
    for lo in range(0, len(starts), step):
        roots = starts[lo:lo + step].astype(nb.dtype)
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


def write_coordinate_dict(adj: AdjacencyStructure, fp, timestamp: str | None = None):
    """JSON with each vertex index's coordinate 4-tuple (points first; D4 lines follow)."""
    coords = np.stack(vertex_coords(adj.q, np.arange(adj.n) % adj.q ** 4), axis=1).tolist()
    doc = {"graph": adj.name, "q": adj.q, "vertices": adj.n,
           "indexing": "base-q", "coords": {str(i): c for i, c in enumerate(coords)}}
    if timestamp:
        doc["generated"] = timestamp
    json.dump(doc, fp, indent=None, separators=(",", ":"))
    fp.write("\n")
