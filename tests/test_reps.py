import random
from collections import Counter

import numpy as np
import pytest

from luspec import closedform, cyclo, ff, gr9, graphs, reps
from luspec.cyclo import CycInt, cyc_spec


def F(q):
    return ff.field_for(q)


def test_linear_char_examples(reps_ref):
    F5 = F(5)
    assert reps_ref.linear_char_value(F5, 0, 0, 0) == 20
    # alpha + r^2 with -alpha a nonresidue: no roots, value -q
    assert reps_ref.linear_char_value(F5, 2, 0, 1) == -5
    # gamma = 0, beta != 0: unique root, value 0
    assert reps_ref.linear_char_value(F5, 1, 2, 0) == 0


@pytest.mark.parametrize("q", [3, 5])
def test_linear_char_direct_agreement(q, reps_ref):
    spec = F(q)
    for a in range(q):
        for b in range(q):
            for g in range(q):
                want = reps_ref.linear_char_value(spec, a, b, g)
                direct = reps_ref.linear_char_sum_direct(spec, a, b, g)
                assert direct.is_rational and direct.as_int == want
                assert want in (-q, 0, q, q * (q - 1))


def test_even_char_examples(reps_ref):
    F2, F4 = F(2), F(4)
    assert reps_ref.even_char_value(F2, 0, 0, 0, 1) == 0
    assert reps_ref.even_char_value(F4, 0, 0, 0, 0) == 12


def test_even_char_multiset_matches_closed_form(reps_ref):
    F4 = F(4)
    got = Counter()
    for a in range(4):
        for b in range(4):
            for g in range(4):
                for h in range(4):
                    got[reps_ref.even_char_value(F4, a, b, g, h)] += 1
    want = Counter({e.value.ival: e.multiplicity
                    for e in closedform.spectrum_even(F4).entries})
    assert got == want


def test_build_u_q3_display(reps_ref, zeta):
    F3 = F(3)
    u = reps_ref.build_U(F3, 1, 1)
    c9 = cyc_spec(9)
    z = zeta(c9, 3)  # zeta_3 inside the conductor-9 lattice
    one = CycInt.integer(c9, 1)
    want = [[one, one, one], [one, one, z], [one, z * z, one]]
    assert all(u.entry(i, j) == want[i][j] for i in range(3) for j in range(3))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_uustar_diagonal_is_q(q, reps_ref):
    spec = F(q)
    u = reps_ref.build_U(spec, 1, 2 % q if q > 3 else 1)
    prod = u @ u.conj_transpose()
    for i in range(q):
        assert prod.entry(i, i) == q


def test_u_reindexing_similarity_q5(reps_ref):
    # U[c^2 d a, c d^2 b][i, j] == U[a, b][c*i, d*j]
    spec = F(5)
    rng = random.Random(5)
    for _ in range(4):
        a, b = rng.randrange(1, 5), rng.randrange(1, 5)
        c, d = rng.randrange(1, 5), rng.randrange(1, 5)
        mul = spec.mul
        u1 = reps_ref.build_U(spec, a, b)
        u2 = reps_ref.build_U(spec, mul(mul(mul(c, c), d), a), mul(mul(mul(c, d), d), b))
        for i in range(5):
            for j in range(5):
                ci = spec.mul(c, i)
                dj = spec.mul(d, j)
                assert u2.entry(i, j) == u1.entry(ci, dj)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_m_factorization_and_shape(q, reps_ref):
    spec = F(q)
    for ai in range(1, q):
        for bi in range(q):
            m = reps_ref.build_M(spec, ai, bi)
            assert m == reps_ref.m_from_u(spec, ai, bi)
            assert m.is_hermitian()
            tr = m.trace_sum()
            assert tr.is_rational and tr.as_int == 0


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_build_m_is_the_sum_over_the_connection_set(q, reps_ref):
    spec = F(q)
    S = list(zip(*(c.tolist() for c in graphs.connection_set(spec))))
    for a, b in [(1, 0), (1, 1), (q - 1, 2)]:
        want = sum(reps_ref.rep_matrix(spec, a, b, s).hist for s in S)
        assert np.array_equal(reps_ref.build_M(spec, a, b).hist, want)


def test_build_m_rejects(reps_ref):
    F5 = F(5)
    with pytest.raises(ValueError):
        reps_ref.build_M(F5, 0, 1)
    with pytest.raises(ValueError):
        reps_ref.build_M(F(4), 1, 1)


def test_homomorphism_exhaustive_q3(reps_ref):
    F3 = F(3)
    mats = [reps_ref.rep_matrix(F3, 1, 1, graphs.vertex_coords(3, i)) for i in range(81)]
    for i in range(81):
        g = graphs.vertex_coords(3, i)
        for j in range(81):
            gh = graphs.group_mul(F3, g, graphs.vertex_coords(3, j))
            assert (mats[i] @ mats[j]) == mats[graphs.vertex_index(3, gh)]


@pytest.mark.parametrize("q", [5, 7])
def test_homomorphism_sampled(q, reps_ref):
    spec = F(q)
    rng = random.Random(q)
    for _ in range(12):
        g = graphs.vertex_coords(q, rng.randrange(q ** 4))
        h = graphs.vertex_coords(q, rng.randrange(q ** 4))
        lhs = reps_ref.rep_matrix(spec, 1, 2, g) @ reps_ref.rep_matrix(spec, 1, 2, h)
        assert lhs == reps_ref.rep_matrix(spec, 1, 2, graphs.group_mul(spec, g, h))


def test_identity_maps_to_identity(reps_ref):
    F5 = F(5)
    m = reps_ref.rep_matrix(F5, 1, 3, graphs.GroupElem(0, 0, 0, 0))
    for i in range(5):
        for j in range(5):
            assert m.entry(i, j) == (1 if i == j else 0)


def test_psi_closed_form_vs_trace_exhaustive_q3(reps_ref):
    F3 = F(3)
    for i in range(81):
        g = graphs.vertex_coords(3, i)
        assert reps_ref.rep_matrix(F3, 1, 2, g).trace_sum() == reps_ref.psi_value(F3, 1, 2, g)


def test_psi_examples(reps_ref):
    F3 = F(3)
    gid = graphs.GroupElem(0, 0, 0, 0)
    assert reps_ref.psi_value(F3, 1, 0, gid) == 3
    assert reps_ref.psi_value(F3, 1, 0, graphs.GroupElem(1, 0, 0, 0)) == 0


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_psi_orthogonality(q):
    assert reps.psi_orthogonality(F(q))


@pytest.mark.parametrize("q", [3, 5])
def test_psi_exponent_table_matches_psi_value(q, reps_ref):
    spec = F(q)
    labels, K = reps._psi_exponents(spec)
    elems = [graphs.GroupElem(*graphs.vertex_coords(q, i)) for i in range(q ** 4)]
    for (a, b), row in zip(labels, K.tolist()):
        for g in elems:
            if g.t or g.u:
                assert reps_ref.psi_value(spec, a, b, g) == 0
            else:
                want = q * reps_ref.zeta_pow(spec, row[g.v + q * g.w])
                assert reps_ref.psi_value(spec, a, b, g) == want


def test_psi_orthogonality_detects_a_wrong_exponent(monkeypatch):
    exponents = reps._psi_exponents

    def corrupted(spec):
        labels, K = exponents(spec)
        K[len(labels) // 2, 3] = (K[len(labels) // 2, 3] + 1) % spec.p
        return labels, K

    monkeypatch.setattr(reps, "_psi_exponents", corrupted)
    assert not reps.psi_orthogonality(F(5))


def test_psi_orthogonality_size_cap(monkeypatch):
    with pytest.raises(ValueError):
        reps.psi_orthogonality(F(4))
    monkeypatch.setattr(graphs, "DEFAULT_MAX_GRAPH_Q", 5)
    with pytest.raises(ValueError):
        reps.psi_orthogonality(F(7))


@pytest.mark.parametrize("q", [3, 5])
def test_conjugacy_classes(q):
    count, hist = reps.conjugacy_class_data(F(q))
    assert count == q ** 3 + q ** 2 - q
    assert hist == {1: q * q, q: q ** 3 - q}


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_eigen_via_epsilon_matches_numeric(q, reps_ref):
    spec = F(q)
    orbits = closedform.epsilon_orbits(spec)
    for a in range(1, q):
        for b in range(1, q):
            m = reps_ref.build_M(spec, a, b)
            numeric = np.linalg.eigvalsh(m.hist @ np.array(m.cspec.roots))  # ascending
            exact = reps_ref.eigen_via_epsilon(orbits, a, b).expand()
            assert np.abs(numeric - exact).max() < 1e-9


def _eigen_per_position(spec, alpha, beta, eps2q):
    """M[alpha,beta](S)'s multiset by one sum and one square per position c in F."""
    q = spec.q
    if spec.p == 3:
        ring = gr9.gr9_make(spec.e)  # Teichmueller index c -> field element g^(c-1)
        sums = [cyclo.exp_sum_gr(int(spec.exp[c - 1]) if c else 0, ring) for c in range(q)]
    else:
        a = spec.pow(spec.mul(3 % spec.p, spec.mul(alpha, beta)), -1)
        sums = [cyclo.exp_sum_field([0, c, 0, a], spec) for c in range(q)]
    pairs = [(eps2q(eps, q), 1) for eps in sums]
    return closedform.SpectrumMultiset.assemble(f"M[{alpha},{beta}]", q, pairs,
                                                expected_total=q)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_eigen_via_epsilon_is_the_per_position_route(q, eps2q, reps_ref):
    # exact values, serials, floats, multiplicities and order, at every block
    spec = F(q)
    orbits = closedform.epsilon_orbits(spec)
    for a in range(1, q):
        for b in range(1, q):
            got = reps_ref.eigen_via_epsilon(orbits, a, b).to_json_dict()
            assert got == _eigen_per_position(spec, a, b, eps2q).to_json_dict(), (a, b)


@pytest.mark.parametrize("q", [7, 11, 13, 61])
def test_eigen_via_epsilon_makes_one_sum_and_one_square_per_galois_orbit(q, monkeypatch,
                                                                         reps_ref):
    calls = {"sum": 0, "mul": 0}
    real_sum, real_mul = cyclo.exp_sum_field, cyclo.CycInt.__mul__

    def counted_sum(*args):
        calls["sum"] += 1
        return real_sum(*args)

    def counted_mul(*args):
        calls["mul"] += 1
        return real_mul(*args)

    for module in (cyclo, closedform, reps):
        monkeypatch.setattr(module, "exp_sum_field", counted_sum)
    monkeypatch.setattr(cyclo.CycInt, "__mul__", counted_mul)
    orbits = closedform.epsilon_orbits(F(q))
    assert calls == {"sum": 3, "mul": 0}  # the table: one sum per Galois orbit
    reps_ref.eigen_via_epsilon(orbits, 2, q - 1)
    assert calls == {"sum": 3, "mul": 3}  # the first block: one square per Galois orbit
    reps_ref.eigen_via_epsilon(orbits, 1, 1)
    assert calls == {"sum": 3, "mul": 3}  # later blocks reuse the table's squares


def test_eigen_via_epsilon_c0_rule(reps_ref):
    # q = 2 mod 3: the c = 0 cubic permutes the field, eps = 0, eigenvalue -q
    s = reps_ref.eigen_via_epsilon(closedform.epsilon_orbits(F(5)), 1, 1)
    assert s.multiplicity_of(closedform.ExactValue.integer(-5)) >= 1


def test_eigen_via_epsilon_rejects(reps_ref):
    with pytest.raises(ValueError):  # no cubic family, so no table, for p = 2
        reps_ref.eigen_via_epsilon(closedform.epsilon_orbits(F(4)), 1, 1)
    with pytest.raises(ValueError):
        reps_ref.eigen_via_epsilon(closedform.epsilon_orbits(F(5)), 0, 1)
