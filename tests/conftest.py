import csv
import functools
import types
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from luspec import cli, closedform, cyclo, ff, graphs, oracle
from luspec.cyclo import CycInt, cyc_spec
from luspec.reps import _char_spec

_GRAPHS: dict = {}
_NUMERIC: dict = {}


def _graph(kind: str, q: int) -> graphs.AdjacencyStructure:
    key = (kind, q)
    if key not in _GRAPHS:
        spec = ff.field_for(q)
        builder = {"gamma": graphs.build_gamma, "d4": graphs.build_d4,
                   "cayley": graphs.build_cayley}[kind]
        _GRAPHS[key] = builder(spec)
    return _GRAPHS[key]


def _numeric(kind: str, q: int) -> oracle.NumericSpectrum:
    key = (kind, q)
    if key not in _NUMERIC:
        _NUMERIC[key] = oracle.numeric_spectrum(_graph(kind, q))
    return _NUMERIC[key]


@pytest.fixture(scope="session")
def graph():
    """graph('gamma'|'d4'|'cayley', q), cached for the whole session."""
    return _graph


@pytest.fixture(scope="session")
def numeric():
    """numeric('gamma'|'d4'|'cayley', q): cached oracle.numeric_spectrum."""
    return _numeric


def _dense_reference(adj: graphs.AdjacencyStructure) -> np.ndarray:
    """Ascending eigenvalues of the full n x n adjacency matrix, one dense solve.

    Solved with scipy.linalg on purpose: the library's oracle uses
    numpy.linalg, so the reference does not share its solver."""
    a = np.zeros((adj.n, adj.n), dtype=np.float64)
    a[np.repeat(np.arange(adj.n), adj.degree), adj.neighbors.reshape(-1)] = 1
    return np.sort(scipy.linalg.eigvalsh(a, overwrite_a=True, check_finite=False))


@pytest.fixture(scope="session")
def dense_reference():
    """dense_reference(adj): the spectrum without the shear blocks."""
    return _dense_reference


@pytest.fixture(scope="session")
def field():
    return ff.field_for


# Polynomials over F_p as coefficient tuples, constant term first.  ff builds
# its tables with e x e matrices; this is the tests' independent reference.

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _pmul(a, b, p):
    """a*b over F_p, unreduced."""
    if not a or not b:
        return ()
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            c[i + j] = (c[i + j] + ai * bj) % p
    return _ptrim(c)


def _pmulmod(a, b, modulus, p):
    """a*b mod (modulus, p); modulus monic, full coefficient tuple."""
    c = list(_pmul(a, b, p))
    e = len(modulus) - 1
    for k in range(len(c) - 1, e - 1, -1):
        ck = c[k]
        if ck:
            c[k] = 0
            for j in range(e):
                c[k - e + j] = (c[k - e + j] - ck * modulus[j]) % p
    return _ptrim(c)


def _ppow(a, n, modulus, p):
    result = (1,)
    base = a
    while n > 0:
        if n & 1:
            result = _pmulmod(result, base, modulus, p)
        base = _pmulmod(base, base, modulus, p)
        n >>= 1
    return result


def _eval_poly(spec: ff.FieldSpec, coeffs, a):
    """Horner evaluation at a of a polynomial whose coefficients are field indices."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = spec.add(spec.mul(acc, a), c)
    return acc


@pytest.fixture(scope="session")
def poly():
    """Polynomial arithmetic on coefficient tuples: trim, mul(a, b, p),
    mulmod(a, b, modulus, p), pow(a, n, modulus, p), and eval(spec, coeffs, a)."""
    return types.SimpleNamespace(trim=_ptrim, mul=_pmul, mulmod=_pmulmod,
                                 pow=_ppow, eval=_eval_poly)


@functools.lru_cache(maxsize=None)
def _teichmueller_matrices(e: int) -> dict:
    """{a: Z/9 matrix of multiplication by T(a)} for GR(9, e), from the
    definition: T = {0} u the powers of b^q, b a lift of a generator of
    GF(3^e)*, each keyed by the field index of its residue mod 3."""
    F = ff.ff_make(3, e)
    q = F.q
    x_mat = np.zeros((e, e), dtype=np.int64)  # multiplication by X
    for j in range(e - 1):
        x_mat[j + 1, j] = 1
    x_mat[:, e - 1] = [-m % 9 for m in F.modulus[:e]]
    b = np.zeros((e, e), dtype=np.int64)
    power = np.eye(e, dtype=np.int64)
    for coeff in F.index_coeffs(int(F.exp[1])):
        b = (b + coeff * power) % 9
        power = x_mat @ power % 9
    beta = np.eye(e, dtype=np.int64)
    for _ in range(q):
        beta = beta @ b % 9
    teich = {0: np.zeros((e, e), dtype=np.int64)}
    x = np.eye(e, dtype=np.int64)
    for _ in range(q - 1):
        teich[int(x[:, 0] % 3 @ 3 ** np.arange(e))] = x  # column 0: the coefficients of x
        x = x @ beta % 9
    assert len(teich) == q and np.array_equal(x, np.eye(e, dtype=np.int64))
    return teich


def _reference_exp_sum_gr(c: int, e: int) -> CycInt:
    """sum over x in T of zeta_9^Tr(x^3 + 3*T(c)*x), Tr the matrix trace."""
    teich = _teichmueller_matrices(e)
    hist = [0] * 9
    for x in teich.values():
        y = (x @ x @ x + 3 * teich[c] @ x) % 9
        hist[int(np.trace(y)) % 9] += 1
    return CycInt.from_histogram(cyc_spec(9), hist)


@pytest.fixture(scope="session")
def teichmueller():
    """teichmueller(e): definition-level Teichmueller set of GR(9, e)."""
    return _teichmueller_matrices


@pytest.fixture(scope="session")
def gr_sum_reference():
    """gr_sum_reference(c, e): the GR(9, e) cubic sum by literal ring arithmetic."""
    return _reference_exp_sum_gr


def _zeta(spec: cyclo.CycSpec, k: int = 1) -> CycInt:
    hist = [0] * spec.n
    hist[k % spec.n] = 1
    return CycInt.from_histogram(spec, hist)


@pytest.fixture(scope="session")
def zeta():
    """zeta(cspec, k=1): zeta_n^k as a CycInt."""
    return _zeta


def _schoolbook_mul(x: CycInt, y: CycInt) -> CycInt:
    """x * y in Z[zeta_n] by the definition: each coefficient product a_i*b_j
    lands on zeta^(i+j), and the exponent histogram is reduced."""
    n = x.spec.n
    hist = [0] * n
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            hist[(i + j) % n] += a * b
    return CycInt.from_histogram(x.spec, hist)


@pytest.fixture(scope="session")
def cyc_mul_reference():
    """cyc_mul_reference(x, y): the product in Z[zeta_n], computed term by term."""
    return _schoolbook_mul


def _girth_reference(adj: graphs.AdjacencyStructure, g: int = 8) -> bool:
    """True iff the graph has no cycle shorter than g (BFS to depth (g-1)//2)."""
    depth = (g - 1) // 2
    nb = adj.neighbors
    dist = np.full(adj.n, -1, dtype=np.int32)
    parent = np.full(adj.n, -1, dtype=np.int64)
    for root in range(adj.n):
        seen = [root]
        dist[root] = 0
        parent[root] = -1
        frontier = [root]
        ok = True
        for level in range(depth + 1):
            nxt = []
            for x in frontier:
                for y in nb[x]:
                    y = int(y)
                    if y == parent[x]:
                        continue
                    if dist[y] >= 0:
                        # non-tree edge closes a cycle of length <= sum + 1
                        if dist[y] + level + 1 < g:
                            ok = False
                            break
                    elif level < depth:
                        dist[y] = level + 1
                        parent[y] = x
                        seen.append(y)
                        nxt.append(y)
                if not ok:
                    break
            if not ok:
                break
            frontier = nxt
        dist[seen] = -1
        if not ok:
            return False
    return True


@pytest.fixture(scope="session")
def girth_reference():
    """girth_reference(adj, g): the girth test by a scalar BFS from every vertex."""
    return _girth_reference


def _components_reference(adj: graphs.AdjacencyStructure):
    """(component count, sizes in decreasing order) by a scalar BFS."""
    comp = [-1] * adj.n
    sizes = []
    for start in range(adj.n):
        if comp[start] >= 0:
            continue
        comp[start] = len(sizes)
        queue = [start]
        for x in queue:
            for y in adj.neighbors[x].tolist():
                if comp[y] < 0:
                    comp[y] = len(sizes)
                    queue.append(y)
        sizes.append(len(queue))
    return len(sizes), sorted(sizes, reverse=True)


@pytest.fixture(scope="session")
def components_reference():
    """components_reference(adj): connected components by a scalar BFS."""
    return _components_reference


def _two_switch(adj: graphs.AdjacencyStructure) -> graphs.AdjacencyStructure:
    """adj with edges a-b, c-d replaced by a-c, b-d: still regular and
    symmetric, but no longer invariant under the (c3, c4) translations.  No
    vertex with c3 = c4 = 0 is touched, so the shear orbits' representatives'
    rows, from which the blocks are built, stay as they were."""
    nb, q = adj.neighbors, adj.q

    def free(v):
        return v % q ** 4 >= q * q

    a = adj.n - 1
    b = next(b for b in nb[a].tolist() if free(b))
    c, d = next((c, d) for c in range(adj.n) for d in nb[c].tolist()
                if len({a, b, c, d}) == 4 and free(c) and free(d)
                and c not in nb[a] and d not in nb[b])
    rows = [set(r) for r in nb.tolist()]
    for u, old, new in ((a, b, c), (b, a, d), (c, d, a), (d, c, b)):
        rows[u].remove(old)
        rows[u].add(new)
    out = graphs.AdjacencyStructure(adj.name, adj.q, adj.n,
                                    np.array([sorted(r) for r in rows], dtype=np.int32))
    assert out.validate()
    return out


@pytest.fixture(scope="session")
def two_switch():
    """two_switch(adj): adj with one 2-switch that breaks (c3, c4) translation invariance."""
    return _two_switch


def _sheared(adj, spec, f):
    """adj with every vertex (c1, c2, c3, c4) renamed (c1, c2, c3 + f(c2), c4):
    isomorphic and still invariant under the (c3, c4) translations, but for
    nonlinear f no longer under the c2 shear of the built coordinates."""
    q = spec.q
    v = np.arange(adj.n)
    c2, c3 = v // q % q, v // q ** 2 % q
    rename = v + q * q * (spec.add(c3, f(c2)) - c3)
    nb = np.empty_like(adj.neighbors)
    nb[rename] = rename[adj.neighbors]
    nb.sort(axis=1)
    out = graphs.AdjacencyStructure(adj.name, q, adj.n, nb)
    assert out.validate()
    return out


@pytest.fixture(scope="session")
def sheared():
    """sheared(adj, spec, f): adj renamed by c3 -> c3 + f(c2), a mutant for K's check."""
    return _sheared


def _coset_switch(adj, spec):
    """adj with the 2-switch a-b, c-d -> a-c, b-d made at h(a), h(b), h(c), h(d)
    for every h in H = F_p^3, the shears whose digits all have weight 1.  No
    representative is in the four H-cosets, so their rows stay as they were."""
    q, q3, p = spec.q, spec.q ** 3, spec.p
    orbit, k = graphs.shear_orbits(adj)
    vertex = np.empty(adj.n, dtype=np.int64)
    vertex[orbit * q3 + k] = np.arange(adj.n)
    hs = [(b, x, y) for b in range(p) for x in range(p) for y in range(p)]

    def coset(v):
        return [int(vertex[orbit[v] * q3 + sum(q ** i * spec.add(int(k[v]) // q ** i % q, h[i])
                                               for i in range(3))]) for h in hs]

    def far(*vs):  # pairwise distinct H-cosets, none holding a representative
        return len({frozenset(coset(v)) for v in vs}) == len(vs) and all(
            max(int(k[v]) // q ** i % q for i in range(3)) >= p for v in vs)

    nb = adj.neighbors
    a = adj.n - 1
    b = next(b for b in nb[a].tolist() if far(a, b))
    c, d = next((c, d) for c in range(adj.n) for d in nb[c].tolist()
                if c not in nb[a] and d not in nb[b] and far(a, b, c, d))
    rows = [set(r) for r in nb.tolist()]
    for ha, hb, hc, hd in zip(coset(a), coset(b), coset(c), coset(d)):
        for u, old, new in ((ha, hb, hc), (hb, ha, hd), (hc, hd, ha), (hd, hc, hb)):
            rows[u].remove(old)
            rows[u].add(new)
    out = graphs.AdjacencyStructure(adj.name, adj.q, adj.n,
                                    np.array([sorted(r) for r in rows], dtype=np.int32))
    assert out.validate()
    return out


@pytest.fixture(scope="session")
def coset_switch():
    """coset_switch(adj, spec): adj 2-switched on every F_p^3 translate of four
    vertices, a mutant that only a weight-p generator of K refuses."""
    return _coset_switch


def _swapped_field(q: int) -> ff.FieldSpec:
    """An uncached GF(q) whose powers g^1 and g^2 trade places in ``exp``
    (both copies), so that ``mul`` is wrong while every table keeps its size."""
    spec = ff.FieldSpec(*ff._prime_power(q))
    n = q - 1
    for i, j in (1, 2), (n + 1, n + 2):
        spec.exp[[i, j]] = spec.exp[[j, i]]
    return spec


@pytest.fixture(scope="session")
def swapped_field():
    """swapped_field(q): a broken GF(q) for mutant checks."""
    return _swapped_field


# The graph builders as column loops: one pass of field arithmetic over all
# q^4 vertices per neighbour column.

def _coord_cols(q: int):
    idx = np.arange(q ** 4, dtype=np.int64)
    return idx % q, (idx // q) % q, (idx // q ** 2) % q, (idx // q ** 3) % q


def _connection_index_tuples(spec: ff.FieldSpec):
    out = []
    for ti in range(1, spec.q):
        for ri in range(spec.q):
            u = spec.mul(ri, ti)
            v = spec.neg(spec.mul(u, ti))
            w = spec.mul(spec.mul(ri, ri), ti)
            out.append((ti, u, v, w))
    return out


def _build_gamma_reference(spec: ff.FieldSpec) -> graphs.AdjacencyStructure:
    q = spec.q
    add, sub, mul = spec.add, spec.sub, spec.mul
    P1, P2, P3, P4 = _coord_cols(q)
    n = q ** 4
    nb = np.empty((n, q * (q - 1)), dtype=np.int32)
    col = 0
    for d in range(1, q):  # d = p1' - p1 != 0
        ivd = spec.inv(d)
        Q1 = add(P1, d)
        P2Q1 = mul(P2, Q1)
        for b in range(q):  # b = p2'
            e2 = sub(P2, b)
            Q4 = add(P4, mul(ivd, mul(e2, e2)))
            Q3 = sub(P3, sub(P2Q1, mul(P1, b)))
            nb[:, col] = Q1 + q * b + q * q * Q3 + q ** 3 * Q4
            col += 1
    nb.sort(axis=1)
    return graphs.AdjacencyStructure("GAMMA4", q, n, nb)


def _build_d4_reference(spec: ff.FieldSpec) -> graphs.AdjacencyStructure:
    q = spec.q
    sub, mul = spec.sub, spec.mul
    C1, C2, C3, C4 = _coord_cols(q)
    n4 = q ** 4
    nb_pts = np.empty((n4, q), dtype=np.int32)
    nb_lns = np.empty((n4, q), dtype=np.int32)
    for a in range(q):
        # lines through each point, parameterized by l1 = a
        L2 = sub(mul(C1, a), C2)
        L3 = sub(mul(C1, L2), C3)
        L4 = sub(mul(C2, a), C4)
        nb_pts[:, a] = n4 + (a + q * L2 + q * q * L3 + q ** 3 * L4)
        # points on each line, parameterized by p1 = a
        P2 = sub(mul(C1, a), C2)
        P3 = sub(mul(C2, a), C3)
        P4 = sub(mul(P2, C1), C4)
        nb_lns[:, a] = a + q * P2 + q * q * P3 + q ** 3 * P4
    nb = np.vstack([nb_pts, nb_lns])
    nb.sort(axis=1)
    return graphs.AdjacencyStructure("D4", q, 2 * n4, nb)


def _build_cayley_reference(spec: ff.FieldSpec) -> graphs.AdjacencyStructure:
    q = spec.q
    add, sub, mul = spec.add, spec.sub, spec.mul
    T, U, V, W = _coord_cols(q)
    n = q ** 4
    two = 2 % spec.p
    nb = np.empty((n, q * (q - 1)), dtype=np.int32)
    for col, (ts, us, vs, ws) in enumerate(_connection_index_tuples(spec)):
        # left multiplication: s*g = (ts+t, us+u, vs+v-2*ts*u, ws+w)
        T2 = add(T, ts)
        U2 = add(U, us)
        V2 = sub(add(V, vs), mul(two, mul(ts, U)))
        W2 = add(W, ws)
        nb[:, col] = T2 + q * U2 + q * q * V2 + q ** 3 * W2
    nb.sort(axis=1)
    return graphs.AdjacencyStructure("CAYLEY4", q, n, nb)


def _cayley_vertex_map_reference(spec: ff.FieldSpec) -> np.ndarray:
    q = spec.q
    T, U, V, W = _coord_cols(q)
    VP = spec.add(V, spec.mul(T, U))
    return (T + q * U + q * q * VP + q ** 3 * W).astype(np.int64)


@pytest.fixture(scope="session")
def builders_reference():
    """The graph builders, Cayley vertex map and connection-set index tuples
    as column loops over full-length coordinate columns."""
    return types.SimpleNamespace(
        build_gamma=_build_gamma_reference, build_d4=_build_d4_reference,
        build_cayley=_build_cayley_reference,
        cayley_vertex_map=_cayley_vertex_map_reference,
        connection_index_tuples=_connection_index_tuples)


def _eps2q(eps: CycInt, q: int) -> closedform.ExactValue:
    """The value eps^2 - q of one CycInt eps, squared by CycInt arithmetic."""
    e2 = eps * eps
    return closedform.ExactValue.eps2q(eps.spec, np.array(eps.coeffs, dtype=np.int64),
                                       np.array(e2.coeffs, dtype=np.int64),
                                       cyclo.embed(e2).real, q)


@pytest.fixture(scope="session")
def eps2q():
    """eps2q(eps, q): ExactValue.eps2q of a CycInt eps and its CycInt square."""
    return _eps2q


def _orbit_grid(orbits: closedform.EpsilonOrbits) -> np.ndarray:
    """The (rows x q) grid of orbit ids: row i, column c holds ``ids(rows[i], c)``."""
    return orbits.ids(np.array(orbits.rows)[:, None], np.arange(orbits.spec.q))


@pytest.fixture(scope="session")
def orbit_grid():
    """orbit_grid(orbits): the orbit id of every position of an orbit table."""
    return _orbit_grid


# The epsilons table as one dict per row, written by csv.DictWriter: every
# cell of every row formatted and CSV-quoted at that row.

def _epsilons_reference(q: int, fmt: str):
    """``epsilons --q q --format fmt --no-timestamp`` output, one line per row, lazily:
    the table is never held, so the check reaches q whose output fills gigabytes."""
    spec = ff.field_for(q)
    prime_field = spec.e == 1 and spec.p >= 5
    reps_set = closedform.representatives(spec.p) if prime_field else None
    columns: dict = {}  # eps -> its columns, shared by the positions of an orbit
    orbits = closedform.epsilon_orbits(spec)

    def rows():
        for a, ks in closedform.epsilon_family(orbits):
            for c, k in enumerate(ks):
                eps = CycInt(orbits.bases[0].spec, orbits.eps[k])
                cols = columns.get(eps)
                if cols is None:
                    cols = columns[eps] = {
                        "family": "class of %d*t^3+%d*t" % reps_set.representative_of(a, c)
                        if reps_set is not None else "a*t^3+c*t",
                        "eps_exact": f"{list(eps.coeffs)}@{eps.spec.n}",
                        "eps_float": f"{cyclo.embed(eps).real:.10g}",
                        "eps_sq_minus_q": _eps2q(eps, q).serial(),
                        "weil_margin": f"{2 * float(q) ** 0.5 - abs(cyclo.embed(eps)):.10g}",
                        "fiber_profile": "|".join(
                            str(x) for x in closedform.fiber_profile([0, c, 0, a], spec))
                        if prime_field else "-",
                    }
                row = {"a": a, "c": c, **cols}
                if spec.p == 3:
                    row["family"] = "t^3+3*c*t over GR(9,e), c = teich[%d]" % c
                yield row

    if fmt == "csv":  # a write that returns its line makes each writerow return it
        writer = csv.DictWriter(types.SimpleNamespace(write=str), fieldnames=cli.EPSILON_COLUMNS)
        yield writer.writeheader()
        yield from map(writer.writerow, rows())
    else:
        widths = {k: len(k) for k in cli.EPSILON_COLUMNS}
        for r in rows():  # a first pass for the widths, a second to write
            for k in widths:
                widths[k] = max(widths[k], len(str(r[k])))
        yield "  ".join(k.ljust(widths[k]) for k in cli.EPSILON_COLUMNS) + "\n"
        for r in rows():
            yield "  ".join(str(r[k]).ljust(widths[k]) for k in cli.EPSILON_COLUMNS) + "\n"


@pytest.fixture(scope="session")
def epsilons_reference():
    """epsilons_reference(q, 'csv'|'table'): the epsilons output built one
    row dict at a time and written by csv.DictWriter, as an iterator of lines."""
    return _epsilons_reference


# The paper's derivation steps, from D(4,q)'s incidence to the eigenvalues of
# G's degree-q representations, which the closed form and the oracle are
# checked against.

def _incident(spec: ff.FieldSpec, P, L):
    """Point P(p1..p4) lies on line L(l1..l4): p2 + l2 = p1*l1, p3 + l3 = p1*l2,
    p4 + l4 = p2*l1 (ints or broadcast arrays of element indices)."""
    (p1, p2, p3, p4), (l1, l2, l3, l4) = P, L
    add, mul = spec.add, spec.mul
    return ((add(p2, l2) == mul(p1, l1)) & (add(p3, l3) == mul(p1, l2))
            & (add(p4, l4) == mul(p2, l1)))


@pytest.fixture(scope="session")
def incident():
    """incident(spec, P, L): D(4,q)'s incidence equations."""
    return _incident


def _trace_over_s(spec: ff.FieldSpec, *weights) -> np.ndarray:
    """tr(w1*t + w2*u + w3*v + w4*w) at every element (t, u, v, w) of S."""
    return spec.tr(functools.reduce(spec.add, map(spec.mul, weights,
                                                  graphs.connection_set(spec))))


def _linear_char_value(spec: ff.FieldSpec, alpha: int, beta: int, gamma: int) -> int:
    """Character sum over S for odd q: (m-1)*q with m = #roots of
    alpha + beta*r + gamma*r^2 (m = q for the trivial character)."""
    if spec.q % 2 == 0:
        raise ValueError("linear_char_value is the odd-q form")
    r = np.arange(spec.q)
    m = int(np.count_nonzero(spec.add(alpha, spec.mul(r, spec.add(beta, spec.mul(gamma, r))))
                             == 0))
    return (m - 1) * spec.q


def _linear_char_sum_direct(spec: ff.FieldSpec, alpha: int, beta: int, gamma: int) -> CycInt:
    """The same sum evaluated literally over S."""
    cspec, scale = _char_spec(spec)
    hist = np.bincount(scale * _trace_over_s(spec, alpha, beta, 0, gamma) % cspec.n,
                       minlength=cspec.n)
    return CycInt.from_histogram(cspec, hist.tolist())


def _even_char_value(spec: ff.FieldSpec, alpha: int, beta: int, gamma: int, eta: int) -> int:
    """Even-q character sum over S, computed directly and checked against the
    reduced form q * sum_{t != 0, beta^2 t + gamma^2 t^3 = eta} (-1)^tr(alpha*t)."""
    q = spec.q
    if q % 2:
        raise ValueError("even_char_value needs even q")
    total = int(np.sum(1 - 2 * _trace_over_s(spec, alpha, beta, gamma, eta)))
    t, mul = np.arange(1, q), spec.mul
    t = t[spec.add(mul(mul(beta, beta), t), mul(mul(gamma, gamma), spec.pow(t, 3))) == eta]
    reduced = int(np.sum(1 - 2 * spec.tr(mul(alpha, t))))
    assert total == q * reduced, "direct and reduced character sums disagree"
    return total


@dataclass(eq=False)
class RepMatrix:
    """q x q matrix over Z[zeta_n], rows/cols in element order, held as
    exponent histograms: hist[i, j, k] counts the zeta^k terms of entry (i, j)."""

    cspec: cyclo.CycSpec
    hist: np.ndarray  # int64, shape (q, q, n)

    def entry(self, i: int, j: int) -> CycInt:
        return CycInt.from_histogram(self.cspec, self.hist[i, j].tolist())

    def conj_transpose(self) -> "RepMatrix":
        n = self.cspec.n
        return RepMatrix(self.cspec, self.hist.transpose(1, 0, 2)[..., -np.arange(n) % n])

    def __matmul__(self, other: "RepMatrix") -> "RepMatrix":
        # the zeta^s terms of self times other shift other's exponents by s
        out = np.zeros_like(other.hist)
        for s in range(self.cspec.n):
            out += np.roll(np.einsum("ik,kjt->ijt", self.hist[:, :, s], other.hist), s, axis=2)
        return RepMatrix(self.cspec, out)

    def __eq__(self, other):
        return (isinstance(other, RepMatrix) and other.cspec.n == self.cspec.n
                and np.array_equal(cyclo.reduce_rows(self.cspec, self.hist),
                                   cyclo.reduce_rows(other.cspec, other.hist)))

    def is_hermitian(self) -> bool:
        return self == self.conj_transpose()

    def trace_sum(self) -> CycInt:
        return CycInt.from_histogram(self.cspec, np.trace(self.hist).tolist())


def _scatter(spec: ff.FieldSpec, cols: np.ndarray, k: np.ndarray) -> RepMatrix:
    """Sum zeta^k[i, s] into entry (i, cols[i, s]) over all s, with one bincount."""
    cspec, scale = _char_spec(spec)
    q, n = spec.q, cspec.n
    flat = (np.arange(q)[:, None] * q + cols) * n + scale * k
    return RepMatrix(cspec, np.bincount(flat.ravel(), minlength=q * q * n).reshape(q, q, n))


def _rep_sum(spec: ff.FieldSpec, alpha: int, beta: int, t, u, v, w) -> RepMatrix:
    """Sum of M[alpha,beta](g) over the elements g with index columns (t, u, v, w):
    row i of M(g) holds zeta^tr(alpha*(v - 2*i*u) + beta*w) at column i + t."""
    add, mul = spec.add, spec.mul
    i = np.arange(spec.q)[:, None]
    k = spec.tr(add(mul(alpha, spec.sub(v, mul(2 % spec.p, mul(i, u)))), mul(beta, w)))
    return _scatter(spec, add(i, t), k)


def _rep_matrix(spec: ff.FieldSpec, alpha: int, beta: int, g) -> RepMatrix:
    """M[alpha,beta](g) for a single group element."""
    return _rep_sum(spec, alpha, beta, *(np.array([x]) for x in g))


def _build_M(spec: ff.FieldSpec, alpha: int, beta: int) -> RepMatrix:
    """M[alpha,beta](S) = sum over the connection set, exact."""
    if spec.q % 2 == 0:
        raise ValueError("the degree-q representations need odd q")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    return _rep_sum(spec, alpha, beta, *graphs.connection_set(spec))


def _build_U(spec: ff.FieldSpec, alpha: int, beta: int) -> RepMatrix:
    """U[alpha,beta][i,j] = zeta^tr(alpha*i^2*j - beta*i*j^2)."""
    mul = spec.mul
    i, j = np.arange(spec.q)[:, None], np.arange(spec.q)
    ij = mul(i, j)
    k = spec.tr(spec.sub(mul(alpha, mul(ij, i)), mul(beta, mul(ij, j))))
    return _scatter(spec, j, k)


def _m_from_u(spec: ff.FieldSpec, alpha: int, beta: int) -> RepMatrix:
    """U * U^adj - q*I, the factored form of M[alpha,beta](S)."""
    u = _build_U(spec, alpha, beta)
    prod = u @ u.conj_transpose()
    d = np.arange(spec.q)
    prod.hist[d, d, 0] -= spec.q
    return prod


def _zeta_pow(spec: ff.FieldSpec, k: int) -> CycInt:
    cspec, scale = _char_spec(spec)
    return _zeta(cspec, scale * (k % spec.p))


def _psi_value(spec: ff.FieldSpec, alpha: int, beta: int, g) -> CycInt:
    """Character of M[alpha,beta]: q * zeta^tr(alpha v + beta w) on the
    centre (t = u = 0), zero elsewhere."""
    t, u, v, w = g
    if t or u:
        return CycInt.integer(_char_spec(spec)[0], 0)
    return spec.q * _zeta_pow(spec, spec.tr(spec.add(spec.mul(alpha, v), spec.mul(beta, w))))


def _eigen_via_epsilon(orbits: closedform.EpsilonOrbits, alpha: int,
                       beta: int) -> closedform.SpectrumMultiset:
    """Exact eigenvalue multiset {eps_f^2 - q} of M[alpha,beta](S): the
    ``closedform.eps_classes`` pairs of the orbits of the positions (a', c), c in F,
    a' = 1/(3*alpha*beta) (a' = 1 for p = 3), each carrying its count of positions."""
    spec = orbits.spec
    q = spec.q
    if alpha == 0 or beta == 0:
        raise ValueError("the eps route needs alpha*beta != 0")
    a = 1 if spec.p == 3 else spec.inv(spec.mul(3, spec.mul(alpha, beta)))
    counts = Counter(orbits.ids(a, np.arange(q)).tolist())  # orbit -> positions, in c order
    pairs = closedform.eps_classes(orbits)
    return closedform.SpectrumMultiset.assemble(
        f"M[{alpha},{beta}]", q, [(pairs[k][0], m) for k, m in counts.items()],
        expected_total=q)


@pytest.fixture(scope="session")
def reps_ref():
    """G's characters and degree-q representations by their definitions: the
    character sums over S, the matrices M[a,b](g), M[a,b](S) and U, the
    character psi[a,b], and M[a,b](S)'s exact eigenvalues from the orbit table."""
    return types.SimpleNamespace(
        linear_char_value=_linear_char_value, linear_char_sum_direct=_linear_char_sum_direct,
        even_char_value=_even_char_value, rep_matrix=_rep_matrix, build_M=_build_M,
        build_U=_build_U, m_from_u=_m_from_u, zeta_pow=_zeta_pow, psi_value=_psi_value,
        eigen_via_epsilon=_eigen_via_epsilon)
