import io
import json
import random
import tracemalloc

import numpy as np
import pytest

from luspec import ff, graphs
from luspec.graphs import (GroupElem, PointCoords, act_point, collinear, connection_set,
                           group_commutator, group_inv, group_matrix, group_mul,
                           matrix_mul, vertex_coords, vertex_index)

IDENTITY = GroupElem(0, 0, 0, 0)


def test_incident_examples(incident):
    F3 = ff.ff_make(3, 1)
    assert incident(F3, PointCoords(0, 0, 0, 0), (0, 0, 0, 0))
    assert not incident(F3, PointCoords(1, 1, 0, 1), (1, 0, 1, 2))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_each_point_meets_q_lines(q, incident):
    spec = ff.field_for(q)
    lines = vertex_coords(q, np.arange(q ** 4))  # every line, as arrays
    for i in random.Random(7).sample(range(q ** 4), 10):
        assert np.count_nonzero(incident(spec, vertex_coords(q, i), lines)) == q


def test_collinear_examples():
    F3 = ff.ff_make(3, 1)
    assert not collinear(F3, PointCoords(0, 0, 0, 0), PointCoords(0, 1, 0, 0))
    assert collinear(F3, PointCoords(0, 0, 0, 0), PointCoords(1, 1, 0, 1))


def test_collinear_symmetric_q3():
    F3 = ff.ff_make(3, 1)
    a, b = vertex_coords(3, np.arange(81)[:, None]), vertex_coords(3, np.arange(81))
    assert np.array_equal(collinear(F3, a, b), collinear(F3, b, a))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_collinear_iff_common_line(q, graph):
    # adjacency in Gamma == sharing an incident line in D (for distinct points)
    nb = graph("d4", q).neighbors
    gam = graph("gamma", q)
    n4 = q ** 4
    # each point's q lines and each line's q points, the point itself dropped
    reach = nb[nb[:n4]].reshape(n4, q * q)
    shared = reach[reach != np.arange(n4)[:, None]].reshape(n4, q * (q - 1))
    # girth 8: no two lines through a point meet again, so no point repeats
    assert np.array_equal(np.sort(shared, axis=1), gam.neighbors)


def test_validate_rejects(graph):
    gam = graph("gamma", 3)
    assert gam.validate()

    def with_rows(nb):
        return graphs.AdjacencyStructure(gam.name, gam.q, gam.n, nb)

    swapped = gam.neighbors.copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]
    looped = gam.neighbors.copy()
    looped[0, 0] = 0  # vertex 0's first neighbour is above 0, so the row still increases
    moved = gam.neighbors.copy()  # the arc 0 -> 62 moved to 0 -> 63; 63's row lacks 0
    moved[0, -1] += 1
    for nb, message in ((swapped, "strictly increasing"), (looped, "loops"),
                        (moved, "not symmetric")):
        with pytest.raises(ValueError, match=message):
            with_rows(nb).validate()


def test_validate_rejects_a_decreasing_unsigned_row():
    # np.diff of unsigned rows wraps, so 3 -> 1 would read as an increase
    nb = np.array([[3, 1], [0, 2], [1, 3], [0, 2]], dtype=np.uint16)
    with pytest.raises(ValueError, match="strictly increasing"):
        graphs.AdjacencyStructure("C4", 2, 4, nb).validate()


@pytest.mark.parametrize("q,n,m,deg", [(2, 32, 32, 2), (3, 162, 243, 3),
                                       (5, 1250, 3125, 5)])
def test_d4_counts(q, n, m, deg, graph):
    d4 = graph("d4", q)
    assert (d4.n, d4.num_edges, d4.degree) == (n, m, deg)
    d4.validate()


@pytest.mark.parametrize("q,n,deg", [(2, 16, 2), (3, 81, 6), (5, 625, 20)])
def test_gamma_counts(q, n, deg, graph):
    gam = graph("gamma", q)
    assert (gam.n, gam.degree) == (n, deg)
    gam.validate()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_builders_match_column_loops(q, builders_reference):
    spec = ff.field_for(q)
    for name in ("build_gamma", "build_d4", "build_cayley"):
        got = getattr(graphs, name)(spec)
        want = getattr(builders_reference, name)(spec)
        assert (got.name, got.q, got.n) == (want.name, want.q, want.n)
        assert got.neighbors.dtype == graphs.INDEX_DTYPE, name
        assert np.array_equal(got.neighbors, want.neighbors), name
    # the dtype of the neighbour matrices it indexes (the loop gave int64)
    sigma = graphs.cayley_vertex_map(spec)
    assert sigma.dtype == graphs.INDEX_DTYPE
    assert np.array_equal(sigma, builders_reference.cayley_vertex_map(spec))


def test_index_dtype_holds_every_vertex_index():
    # D(4,q) has 2*q^4 vertices; raising the graph bound past the dtype must fail here
    assert 2 * graphs.DEFAULT_MAX_GRAPH_Q ** 4 <= np.iinfo(graphs.INDEX_DTYPE).max + 1


def test_build_gamma_peak_memory():
    # no temporary spans the full (q^4, degree) grid in int64
    spec = ff.field_for(13)
    tracemalloc.start()
    try:
        nb = graphs.build_gamma(spec).neighbors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * nb.nbytes


def test_build_cayley_peak_memory():
    # the slabs are written into one preallocated matrix, never stacked
    spec = ff.field_for(13)
    tracemalloc.start()
    try:
        nb = graphs.build_cayley(spec).neighbors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * nb.nbytes


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_cayley_slabs_tile_build_cayley(q, builders_reference):
    # p = 2 drops the 2*ts*u term; q = 9 is the first odd q with e = 2
    spec = ff.field_for(q)
    want = builders_reference.build_cayley(spec).neighbors
    n3 = q ** 3
    low, high = graphs.cayley_slabs(spec)
    assert low.dtype == high.dtype == graphs.INDEX_DTYPE
    assert low.shape == (n3, q * q - q) and high.shape == (q, q * q - q)
    assert low.max() < n3 and high.max() < q
    for w in range(q):
        slab = low + n3 * high[w]
        assert np.array_equal(np.sort(slab, axis=1), want[w * n3:(w + 1) * n3])
    # the identity's row is S itself, in connection_set order
    assert (low[0] + n3 * high[0]).tolist() == vertex_index(q, connection_set(spec)).tolist()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_gamma_columns_follow_the_cayley_slabs(q):
    # Gamma's column (t, r) at sigma(g) is sigma(s*g), s = S's (t, r) element.
    # cayley_matches_gamma checks it on the digit grids of the two slab pairs.
    # p = 2 drops the 2*ts*u term, q = 4, 8, 9 have e > 1
    spec, n3 = ff.field_for(q), q ** 3
    sigma = graphs.cayley_vertex_map(spec)
    (low, high), (glow, ghigh) = graphs.cayley_slabs(spec), graphs.gamma_slabs(spec)
    assert glow.dtype == ghigh.dtype == graphs.INDEX_DTYPE
    assert glow.shape == (n3, q * q - q) and ghigh.shape == (q, q * q - q)
    assert glow.max() < n3 and ghigh.max() < q
    assert graphs.cayley_matches_gamma(spec, (glow, ghigh))
    # the same identity on the full rows that slab_rows builds, slab by slab
    rows = graphs.slab_rows(glow, ghigh)
    assert rows.dtype == graphs.INDEX_DTYPE and rows.shape == (q ** 4, q * q - q)
    for w in range(q):
        assert np.array_equal(sigma[low + n3 * high[w]], rows[sigma[w * n3:(w + 1) * n3]])


def test_size_budget():
    F16 = ff.field_for(16)
    with pytest.raises(ff.SizeBudgetError):
        graphs.build_gamma(F16)
    # the point maps encode q^4 indices in INDEX_DTYPE too, which q = 16 would overflow
    with pytest.raises(ff.SizeBudgetError):
        graphs.cayley_vertex_map(F16)
    with pytest.raises(ff.SizeBudgetError):
        graphs.action_permutation(F16, IDENTITY)


# ---- group law ----

def _equal_matrices(A, B):
    return all(np.array_equal(*np.broadcast_arrays(x, y))
               for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def test_group_law_matches_matrices_exhaustive_q3():
    # every pair (g, h) at once: g runs down the rows, h along the columns
    F3 = ff.ff_make(3, 1)
    g, h = vertex_coords(3, np.arange(81)[:, None]), vertex_coords(3, np.arange(81))
    assert _equal_matrices(group_matrix(F3, group_mul(F3, g, h)),
                           matrix_mul(F3, group_matrix(F3, g), group_matrix(F3, h)))


@pytest.mark.parametrize("q", [2, 4, 5])
def test_group_law_matches_matrices_sampled(q):
    spec = ff.field_for(q)
    rng = random.Random(11)
    idx = [rng.randrange(q ** 4) for _ in range(40)]
    for i in idx:
        for j in idx[:10]:
            g, h = vertex_coords(q, i), vertex_coords(q, j)
            assert group_matrix(spec, group_mul(spec, g, h)) == \
                matrix_mul(spec, group_matrix(spec, g), group_matrix(spec, h))


def test_identity_and_commutator():
    F5 = ff.ff_make(5, 1)
    g = GroupElem(1, 2, 3, 4)
    assert group_mul(F5, g, IDENTITY) == g
    c = group_commutator(F5, GroupElem(1, 0, 0, 0), GroupElem(0, 1, 0, 0))
    assert c == GroupElem(0, 0, F5.neg(2), 0)


def test_commutator_formula_random():
    # [g, h] = g(0, 0, 2*(t_h*u_g - t_g*u_h), 0)
    F7 = ff.ff_make(7, 1)
    rng = random.Random(3)
    for _ in range(50):
        g = GroupElem(*vertex_coords(7, rng.randrange(7 ** 4)))
        h = GroupElem(*vertex_coords(7, rng.randrange(7 ** 4)))
        want = GroupElem(0, 0, F7.mul(2, F7.sub(F7.mul(h.t, g.u), F7.mul(g.t, h.u))), 0)
        assert group_commutator(F7, g, h) == want


def test_even_q_elementary_abelian():
    F4 = ff.ff_make(2, 2)
    g = GroupElem(1, 0, 1, 0)
    assert group_mul(F4, g, g) == IDENTITY
    h = GroupElem(2, 3, 1, 2)
    assert group_mul(F4, g, h) == group_mul(F4, h, g)


def test_inverse_exhaustive_q3():
    F3 = ff.ff_make(3, 1)
    for i in range(81):
        g = vertex_coords(3, i)
        assert group_mul(F3, g, group_inv(F3, g)) == IDENTITY
        assert group_mul(F3, group_inv(F3, g), g) == IDENTITY


# ---- connection set / Cayley ----

def _elements(cols):
    """The (t, u, v, w) tuples of index columns."""
    return list(zip(*(c.tolist() for c in cols)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_connection_set_properties(q):
    spec = ff.field_for(q)
    S = connection_set(spec)
    sset = set(_elements(S))
    assert len(_elements(S)) == q * (q - 1)
    assert len(sset) == q * (q - 1)
    assert IDENTITY not in sset
    assert set(_elements(group_inv(spec, S))) == sset


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_connection_indices_follow_connection_set(q, builders_reference):
    # S's index columns, against S's definition as a loop over (t, r)
    spec = ff.field_for(q)
    assert _elements(connection_set(spec)) == builders_reference.connection_index_tuples(spec)


def test_connection_set_contains_example():
    F3 = ff.ff_make(3, 1)
    assert GroupElem(1, 1, F3.neg(1), 1) in _elements(connection_set(F3))


def test_connection_set_is_origin_neighborhood():
    F5 = ff.ff_make(5, 1)
    origin = PointCoords(0, 0, 0, 0)
    assert np.all(collinear(F5, origin, act_point(F5, origin, connection_set(F5))))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_cayley_isomorphic_to_gamma(q, graph):
    spec = ff.field_for(q)
    cay = graph("cayley", q)
    gam = graph("gamma", q)
    sigma = graphs.cayley_vertex_map(spec)
    assert np.array_equal(np.sort(sigma[cay.neighbors], axis=1),
                          gam.neighbors[sigma])


def test_cayley_identity_neighbors_are_s():
    F5 = ff.ff_make(5, 1)
    cay = graphs.build_cayley(F5)
    want = sorted(vertex_index(5, connection_set(F5)).tolist())
    assert [int(x) for x in cay.neighbors[0]] == want


def test_action_preserves_adjacency_exhaustive_q3(graph):
    F3 = ff.ff_make(3, 1)
    gam = graph("gamma", 3)
    for i in range(81):
        pi = graphs.action_permutation(F3, vertex_coords(3, i))
        assert np.array_equal(np.sort(pi[gam.neighbors], axis=1),
                              gam.neighbors[pi])


@pytest.mark.parametrize("q", [5, 7])
def test_action_preserves_adjacency_sampled(q, graph):
    spec = ff.field_for(q)
    gam = graph("gamma", q)
    rng = random.Random(13)
    for _ in range(8):
        pi = graphs.action_permutation(spec, vertex_coords(q, rng.randrange(q ** 4)))
        assert np.array_equal(np.sort(pi[gam.neighbors], axis=1),
                              gam.neighbors[pi])


def test_action_matches_act_point():
    F5 = ff.ff_make(5, 1)
    rng = random.Random(17)
    for _ in range(20):
        g = vertex_coords(5, rng.randrange(625))
        pi = graphs.action_permutation(F5, g)
        assert pi.dtype == graphs.INDEX_DTYPE
        i = rng.randrange(625)
        assert vertex_index(5, act_point(F5, vertex_coords(5, i), g)) == pi[i]


# ---- components / girth / exports ----

@pytest.mark.parametrize("q,count", [(2, 4), (3, 1), (4, 4), (5, 1)])
def test_component_counts(q, count, graph):
    ncomp, sizes = graphs.connected_components(graph("gamma", q).neighbors)
    assert ncomp == count
    assert sum(sizes) == q ** 4


def test_d4_components_q2(graph):
    ncomp, sizes = graphs.connected_components(graph("d4", 2).neighbors)
    assert ncomp == 4 and sizes == [8, 8, 8, 8]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_d4_no_short_cycles(q, graph, girth_reference):
    # girth 8 at every buildable q but 3, where it is 12
    girth, adj = 12 if q == 3 else 8, graph("d4", q)
    assert graphs.girth_at_least(adj, girth) and not graphs.girth_at_least(adj, girth + 1)
    if q <= 5:  # the scalar BFS from every vertex agrees
        assert girth_reference(adj, girth) and not girth_reference(adj, girth + 1)


def test_girth_detects_squares():
    # C4: 4 vertices in a cycle
    nb = np.array([[1, 3], [0, 2], [1, 3], [0, 2]], dtype=np.int32)
    c4 = graphs.AdjacencyStructure("C4", 2, 4, nb)
    assert graphs.girth_at_least(c4, 4)
    assert not graphs.girth_at_least(c4, 5)


def _from_rows(name, rows):
    nb = np.sort(np.array(rows, dtype=np.int32), axis=1)
    return graphs.AdjacencyStructure(name, 0, len(rows), nb)


def _cycle(n):
    return _from_rows(f"C{n}", [[(i - 1) % n, (i + 1) % n] for i in range(n)])


def _petersen():
    rows = [[(i - 1) % 5, (i + 1) % 5, i + 5] for i in range(5)]
    rows += [[i, 5 + (i + 2) % 5, 5 + (i - 2) % 5] for i in range(5)]
    return _from_rows("PETERSEN", rows)


def _girth_cases():
    yield from (_cycle(n) for n in range(3, 10))
    yield _petersen()
    yield graphs.build_gamma(ff.field_for(3))
    yield from (graphs.build_d4(ff.field_for(q)) for q in (2, 3, 4, 5))


@pytest.mark.parametrize("g", range(3, 11))
def test_girth_matches_scalar_bfs(g, girth_reference):
    for adj in _girth_cases():
        assert graphs.girth_at_least(adj, g) == girth_reference(adj, g), adj.name


def test_girth_one_root_per_chunk(monkeypatch, girth_reference):
    monkeypatch.setattr(graphs, "_CHUNK", 1)
    for adj in _girth_cases():
        for g in range(3, 11):
            assert graphs.girth_at_least(adj, g) == girth_reference(adj, g), adj.name


def test_d4_q7_girth_is_eight(graph):
    for g in range(3, 14):
        assert graphs.girth_at_least(graph("d4", 7), g) == (g <= 8), g


def _walked_roots(monkeypatch, adj, g):
    """(girth_at_least(adj, g), the number of roots it walks from), read from
    the n slots per root of each chunk's count table."""
    slots, bincount = [], np.bincount

    def spy(x, minlength=0):
        slots.append(minlength)
        return bincount(x, minlength=minlength)

    with monkeypatch.context() as m:
        m.setattr(np, "bincount", spy)
        answer = graphs.girth_at_least(adj, g)
    return answer, sum(slots) // adj.n


@pytest.mark.parametrize("kind, q", [("d4", 2), ("d4", 5), ("d4", 9), ("gamma", 4),
                                     ("gamma", 7), ("cayley", 3), ("cayley", 8)])
def test_girth_walks_one_root_per_shear_orbit(kind, q, graph, monkeypatch):
    # at g = 3 every chunk is walked: no simple graph has a shorter cycle
    roots = 2 * q if kind == "d4" else q
    assert _walked_roots(monkeypatch, graph(kind, q), 3) == (True, roots)
    if kind == "d4":
        assert _walked_roots(monkeypatch, graph(kind, q), 8) == (True, roots)


def test_girth_of_unshearable_mutants_walks_every_root(graph, field, sheared, coset_switch,
                                                       girth_reference, monkeypatch):
    # the coset switch leaves the representatives' rows as they were but makes
    # 4-cycles through other vertices: walked from the representatives alone,
    # D(4,4)'s mutant would pass girth 5 to 8
    F3, d4 = field(3), graph("d4", 4)
    mutants = [sheared(graph("d4", 3), F3, lambda c2: F3.mul(c2, c2)),
               coset_switch(d4, field(4))]
    rep = graphs.shear_orbits(d4)[1] == 0
    assert np.array_equal(mutants[1].neighbors[rep], d4.neighbors[rep])
    for adj in mutants:
        assert graphs.shear_orbits(adj) is None
        assert _walked_roots(monkeypatch, adj, 3) == (True, adj.n)
        for g in range(3, 11):
            assert graphs.girth_at_least(adj, g) == girth_reference(adj, g), (adj.q, g)
    assert not graphs.girth_at_least(mutants[1], 5)


@pytest.mark.parametrize("q", [5, 7])
def test_girth_peak_memory(q):
    # walk ends and the per-root count table each stay within _CHUNK entries
    adj = graphs.build_d4(ff.field_for(q))
    tracemalloc.start()
    try:
        assert graphs.girth_at_least(adj, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def _cycles_and_paths():
    """Cycles and paths of assorted lengths, vertices shuffled; a path's end
    vertices repeat their one neighbour to fill the row of two."""
    rows, lo = [], 0
    for n in (3, 4, 50, 200, 500):
        rows += [[lo + (i - 1) % n, lo + (i + 1) % n] for i in range(n)]
        lo += n
    for n in (2, 7, 300):
        rows += [[lo + (i - 1 if i else 1), lo + (i + 1 if i < n - 1 else n - 2)]
                 for i in range(n)]
        lo += n
    perm = np.random.default_rng(6).permutation(lo)
    shuffled = [None] * lo
    for v, row in enumerate(rows):
        shuffled[perm[v]] = [perm[w] for w in row]
    return _from_rows("CYCLES+PATHS", shuffled)


def test_components_match_scalar_bfs(components_reference):
    # several components: the BFS may stop early only in the last one.  The
    # 5-cycles 0-1-3-4-2 and 0-3-1-2-4 go bottom-up at the far pair, which meets
    # the frontier only in its first column, or only in its last
    cases = [_cycles_and_paths(),
             _from_rows("C5", [[1, 2], [0, 3], [0, 4], [1, 4], [2, 3]]),
             _from_rows("C5", [[3, 4], [2, 3], [1, 4], [0, 1], [0, 2]])]
    cases += [graphs.build_d4(ff.field_for(q)) for q in (2, 3, 4, 5, 7)]
    cases += [graphs.build_gamma(ff.field_for(q)) for q in (2, 3, 4, 5, 7, 8, 9)]
    for adj in cases:
        assert graphs.connected_components(adj.neighbors) == components_reference(adj)


def test_components_one_vertex_per_slice(monkeypatch, components_reference):
    monkeypatch.setattr(graphs, "_CHUNK", 1)
    monkeypatch.setattr(graphs, "_BLOCK", 1)  # one column per bottom-up block
    for adj in (_cycles_and_paths(), graphs.build_gamma(ff.field_for(3)),
                graphs.build_gamma(ff.field_for(4))):
        assert graphs.connected_components(adj.neighbors) == components_reference(adj)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_components_of_gamma_slabs_match_scalar_bfs(q, monkeypatch, components_reference):
    # verify's form: the BFS reads Gamma's rows through its slab pair (glow, ghigh)
    spec = ff.field_for(q)
    slabs = graphs.gamma_slabs(spec)
    expected = components_reference(graphs.build_gamma(spec))
    assert graphs.connected_components(slabs) == expected
    monkeypatch.setattr(graphs, "_CHUNK", 1)  # one frontier vertex per gather
    monkeypatch.setattr(graphs, "_BLOCK", 1)  # one column per bottom-up block
    assert graphs.connected_components(slabs) == expected


def test_edge_list_export(graph):
    gam = graph("gamma", 3)
    buf = io.StringIO()
    graphs.write_edge_list(gam, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# graph=GAMMA4 q=3 vertices=81 edges=243 indexing=base-q"
    pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert len(pairs) == 243
    assert all(u < v for u, v in pairs)
    assert pairs == sorted(pairs)


def test_coordinate_dict_roundtrip(graph):
    d4 = graph("d4", 2)
    buf = io.StringIO()
    graphs.write_coordinate_dict(d4, buf)
    doc = json.loads(buf.getvalue())
    assert doc["graph"] == "D4" and doc["q"] == 2
    assert len(doc["coords"]) == 32
    # base-q encoding: index 16 + 1 is the line with l1 = 1
    assert doc["coords"]["17"] == [1, 0, 0, 0]
    assert doc["coords"]["5"] == [1, 0, 1, 0]
