import csv
import functools
import io
import types

import numpy as np
import pytest
import scipy.linalg

from luspec import cli, closedform, cyclo, ff, graphs, oracle
from luspec.cyclo import CycInt, cyc_spec

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
    """dense_reference(adj): the spectrum without the translation blocks."""
    return _dense_reference


@pytest.fixture(scope="session")
def field():
    return ff.field_for


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
        teich[F.coeffs_index(x[:, 0] % 3)] = x  # column 0: the coefficients of x
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
    symmetric, but no longer invariant under the translations.  No orbit
    representative (c3 = c4 = 0) is touched, so the representatives' rows,
    from which the translation blocks are built, stay as they were."""
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
    """two_switch(adj): adj with one 2-switch that breaks translation invariance."""
    return _two_switch


def _swapped_field(q: int) -> ff.FieldSpec:
    """An uncached GF(q) whose powers g^1 and g^2 trade places in ``exp``
    (both copies), so that ``mul`` is wrong while every table keeps its size."""
    spec = ff.FieldSpec(*ff.prime_power(q))
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


# The epsilons table as one dict per row, written by csv.DictWriter: every
# cell of every row formatted and CSV-quoted at that row.

def _epsilons_reference(q: int, fmt: str) -> str:
    """``epsilons --q q --format fmt --no-timestamp`` output, row by row."""
    spec = ff.field_for(q)
    prime_field = spec.e == 1 and spec.p >= 5
    reps_set = closedform.representatives(spec.p) if prime_field else None
    rows = []
    columns: dict = {}  # eps -> its columns, shared by the positions of an orbit
    for (a, c), eps, _mult in closedform.epsilon_family(spec):
        cols = columns.get(eps)
        if cols is None:
            cols = columns[eps] = {
                "family": "class of %d*t^3+%d*t" % reps_set.representative_of(a, c)
                if reps_set is not None else "a*t^3+c*t",
                "eps_exact": f"{list(eps.coeffs)}@{eps.spec.n}",
                "eps_float": f"{cyclo.embed(eps).real:.10g}",
                "eps_sq_minus_q": closedform.ExactValue.eps_shift(eps, q).serial(),
                "weil_margin": f"{cyclo.weil_check(eps, q).margin:.10g}",
                "fiber_profile": "|".join(
                    str(x) for x in closedform.fiber_profile([0, c, 0, a], spec))
                if prime_field else "-",
            }
        row = {"a": a, "c": c, **cols}
        if spec.p == 3:
            row["family"] = "t^3+3*c*t over GR(9,e), c = teich[%d]" % c
        rows.append(row)
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.DictWriter(buf, fieldnames=cli.EPSILON_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    else:
        widths = {k: max(len(k), *(len(str(r[k])) for r in rows))
                  for k in cli.EPSILON_COLUMNS}
        buf.write("  ".join(k.ljust(widths[k]) for k in cli.EPSILON_COLUMNS) + "\n")
        for r in rows:
            buf.write("  ".join(str(r[k]).ljust(widths[k])
                                for k in cli.EPSILON_COLUMNS) + "\n")
    return buf.getvalue()


@pytest.fixture(scope="session")
def epsilons_reference():
    """epsilons_reference(q, 'csv'|'table'): the epsilons output built one
    row dict at a time and written by csv.DictWriter."""
    return _epsilons_reference
