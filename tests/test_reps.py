import random
from collections import Counter

import numpy as np
import pytest

from luspec import closedform, cyclo, ff, gr9, graphs, reps
from luspec.cyclo import CycInt, cyc_spec, zeta


def F(q):
    return ff.field_for(q)


def test_linear_char_examples():
    F5 = F(5)
    assert reps.linear_char_value(F5.zero, F5.zero, F5.zero).value == 20
    # alpha + r^2 with -alpha a nonresidue: no roots, value -q
    assert reps.linear_char_value(F5.element(2), F5.zero, F5.one).value == -5
    # gamma = 0, beta != 0: unique root, value 0
    assert reps.linear_char_value(F5.one, F5.element(2), F5.zero).value == 0


@pytest.mark.parametrize("q", [3, 5])
def test_linear_char_direct_agreement(q):
    spec = F(q)
    for a in range(q):
        for b in range(q):
            for g in range(q):
                want = reps.linear_char_value(
                    spec.element(a), spec.element(b), spec.element(g))
                direct = reps.linear_char_sum_direct(
                    spec.element(a), spec.element(b), spec.element(g))
                assert direct.is_rational and direct.as_int == want.value
                assert want.value in (-q, 0, q, q * (q - 1))


def test_even_char_examples():
    F2, F4 = F(2), F(4)
    assert reps.even_char_value(F2.zero, F2.zero, F2.zero, F2.one).value == 0
    assert reps.even_char_value(F4.zero, F4.zero, F4.zero, F4.zero).value == 12


def test_even_char_multiset_matches_closed_form():
    F4 = F(4)
    got = Counter()
    for a in range(4):
        for b in range(4):
            for g in range(4):
                for h in range(4):
                    got[reps.even_char_value(F4.element(a), F4.element(b),
                                             F4.element(g), F4.element(h)).value] += 1
    want = Counter({e.value.ival: e.multiplicity
                    for e in closedform.spectrum_even(F4).entries})
    assert got == want


def test_build_u_q3_display():
    F3 = F(3)
    u = reps.build_U(F3.one, F3.one, F3)
    c9 = cyc_spec(9)
    z = zeta(c9, 3)  # zeta_3 inside the conductor-9 lattice
    one = CycInt.integer(c9, 1)
    want = [[one, one, one], [one, one, z], [one, z * z, one]]
    assert all(u.entry(i, j) == want[i][j] for i in range(3) for j in range(3))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_uustar_diagonal_is_q(q):
    spec = F(q)
    u = reps.build_U(spec.one, spec.element(2 % q if q > 3 else 1), spec)
    prod = u @ u.conj_transpose()
    for i in range(q):
        assert prod.entry(i, i) == q


def test_u_reindexing_similarity_q5():
    # U[c^2 d a, c d^2 b][i, j] == U[a, b][c*i, d*j]
    spec = F(5)
    rng = random.Random(5)
    for _ in range(4):
        a, b = spec.element(rng.randrange(1, 5)), spec.element(rng.randrange(1, 5))
        c, d = spec.element(rng.randrange(1, 5)), spec.element(rng.randrange(1, 5))
        u1 = reps.build_U(a, b, spec)
        u2 = reps.build_U(c * c * d * a, c * d * d * b, spec)
        for i in range(5):
            for j in range(5):
                ci = spec.mul(c.i, i)
                dj = spec.mul(d.i, j)
                assert u2.entry(i, j) == u1.entry(ci, dj)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_m_factorization_and_shape(q):
    spec = F(q)
    for ai in range(1, q):
        for bi in range(q):
            a, b = spec.element(ai), spec.element(bi)
            m = reps.build_M(a, b, spec)
            assert m == reps.m_from_u(a, b, spec)
            assert m.is_hermitian()
            tr = m.trace_sum()
            assert tr.is_rational and tr.as_int == 0


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_build_m_is_the_sum_over_the_connection_set(q):
    spec = F(q)
    S = graphs.connection_set(spec)
    for ai, bi in [(1, 0), (1, 1), (q - 1, 2)]:
        a, b = spec.element(ai), spec.element(bi)
        want = sum(reps.rep_matrix(a, b, s).hist for s in S)
        assert np.array_equal(reps.build_M(a, b, spec).hist, want)


def test_build_m_rejects():
    F5 = F(5)
    with pytest.raises(ValueError):
        reps.build_M(F5.zero, F5.one, F5)
    with pytest.raises(ValueError):
        reps.build_M(F(4).one, F(4).one, F(4))


def test_homomorphism_exhaustive_q3():
    F3 = F(3)
    a, b = F3.one, F3.one
    mats = [reps.rep_matrix(a, b, graphs.group_elem_from_index(F3, i))
            for i in range(81)]
    for i in range(81):
        g = graphs.group_elem_from_index(F3, i)
        for j in range(81):
            h = graphs.group_elem_from_index(F3, j)
            gh = graphs.group_mul(g, h)
            assert (mats[i] @ mats[j]) == mats[graphs.group_elem_index(gh)]


@pytest.mark.parametrize("q", [5, 7])
def test_homomorphism_sampled(q):
    spec = F(q)
    a, b = spec.one, spec.element(2)
    rng = random.Random(q)
    for _ in range(12):
        g = graphs.group_elem_from_index(spec, rng.randrange(q ** 4))
        h = graphs.group_elem_from_index(spec, rng.randrange(q ** 4))
        lhs = reps.rep_matrix(a, b, g) @ reps.rep_matrix(a, b, h)
        assert lhs == reps.rep_matrix(a, b, graphs.group_mul(g, h))


def test_identity_maps_to_identity():
    F5 = F(5)
    m = reps.rep_matrix(F5.one, F5.element(3), graphs.group_identity(F5))
    for i in range(5):
        for j in range(5):
            assert m.entry(i, j) == (1 if i == j else 0)


def test_psi_closed_form_vs_trace_exhaustive_q3():
    F3 = F(3)
    a, b = F3.one, F3.element(2)
    for i in range(81):
        g = graphs.group_elem_from_index(F3, i)
        assert reps.rep_matrix(a, b, g).trace_sum() == reps.psi_value(a, b, g)


def test_psi_examples():
    F3 = F(3)
    gid = graphs.group_identity(F3)
    assert reps.psi_value(F3.one, F3.zero, gid) == 3
    g = graphs.GroupElem(F3.one, F3.zero, F3.zero, F3.zero)
    assert reps.psi_value(F3.one, F3.zero, g) == 0


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_psi_orthogonality(q):
    assert reps.psi_orthogonality(F(q))


@pytest.mark.parametrize("q", [3, 5])
def test_psi_exponent_table_matches_psi_value(q):
    spec = F(q)
    labels, K = reps._psi_exponents(spec)
    elems = [graphs.group_elem_from_index(spec, i) for i in range(q ** 4)]
    for (a, b), row in zip(labels, K.tolist()):
        alpha, beta = spec.element(a), spec.element(b)
        for g in elems:
            if g.t.i or g.u.i:
                assert reps.psi_value(alpha, beta, g) == 0
            else:
                want = q * reps._zeta_pow(spec, row[g.v.i + q * g.w.i])
                assert reps.psi_value(alpha, beta, g) == want


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
def test_eigen_via_epsilon_matches_numeric(q):
    spec = F(q)
    for ai in range(1, q):
        for bi in range(1, q):
            a, b = spec.element(ai), spec.element(bi)
            m = reps.build_M(a, b, spec)
            numeric = np.sort(m.eigenvalues())
            exact = reps.eigen_via_epsilon(a, b).expand()
            assert np.abs(numeric - exact).max() < 1e-9


def _eigen_per_position(alpha, beta):
    """M[alpha,beta](S)'s multiset by one sum and one square per position c in F."""
    spec = alpha.spec
    q = spec.q
    if spec.p == 3:
        ring = gr9.gr9_make(spec.e)  # Teichmueller index c -> field element g^(c-1)
        sums = [cyclo.exp_sum_gr(int(spec.exp[c - 1]) if c else 0, ring) for c in range(q)]
    else:
        a = (spec.element([3 % spec.p] + [0] * (spec.e - 1)) * alpha * beta) ** (-1)
        sums = [cyclo.exp_sum_field([0, c, 0, a.i], spec) for c in range(q)]
    pairs = [(closedform.ExactValue.eps_shift(eps, q), 1) for eps in sums]
    return closedform.SpectrumMultiset.assemble(f"M[{alpha.i},{beta.i}]", q, pairs,
                                                expected_total=q)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_eigen_via_epsilon_is_the_per_position_route(q):
    # exact values, serials, floats, multiplicities and order, at every block
    spec = F(q)
    for ai in range(1, q):
        for bi in range(1, q):
            a, b = spec.element(ai), spec.element(bi)
            got = reps.eigen_via_epsilon(a, b).to_json_dict()
            assert got == _eigen_per_position(a, b).to_json_dict(), (ai, bi)


@pytest.mark.parametrize("q", [7, 11, 13, 61])
def test_eigen_via_epsilon_makes_one_sum_and_one_square_per_galois_orbit(q, monkeypatch):
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
    spec = F(q)
    reps.eigen_via_epsilon(spec.element(2), spec.element(q - 1))
    assert calls == {"sum": 3, "mul": 3}


def test_eigen_via_epsilon_c0_rule():
    # q = 2 mod 3: the c = 0 cubic permutes the field, eps = 0, eigenvalue -q
    F5 = F(5)
    s = reps.eigen_via_epsilon(F5.one, F5.one)
    assert s.multiplicity_of(closedform.ExactValue.integer(-5)) >= 1


def test_eigen_via_epsilon_rejects():
    with pytest.raises(ValueError):
        reps.eigen_via_epsilon(F(4).one, F(4).one)
    F5 = F(5)
    with pytest.raises(ValueError):
        reps.eigen_via_epsilon(F5.zero, F5.one)
