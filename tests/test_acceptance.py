"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The extended numeric runs at Gamma(4,11) and D(4,9) run by default.  The
full numeric spectrum of D(4,13), compared with the lifted closed form, is
marked slow and deselected; enable it with `pytest -m slow`.
"""

import math
import random
import time

import numpy as np
import pytest

from luspec import closedform, cyclo, ff, graphs, oracle, reps
from luspec.closedform import ExactValue, SpectrumMultiset


def _report(n, label, t0):
    print(f"\n[criterion {n:>2}] {label}: PASS ({time.time() - t0:.2f}s)")


def test_criterion_1_exact_vs_oracle_q3(graph):
    t0 = time.time()
    s = closedform.spectrum_odd(ff.ff_make(3, 1))
    ns = oracle.numeric_spectrum(graph("gamma", 3))
    rep = oracle.compare_spectra(s, ns, tol=1e-8)
    assert rep.passed and not rep.mismatches
    # x^18 (x-6) (x-3)^12 (x+3)^14 (x^3-9x-9)^12
    ints = {e.value.ival: e.multiplicity for e in s.entries
            if e.value.kind == "int"}
    assert ints == {6: 1, 3: 12, 0: 18, -3: 14}
    assert time.time() - t0 < 1.0
    _report(1, "Gamma(4,3) closed form vs 81-vertex oracle", t0)


def test_criterion_2_exact_vs_oracle_q5(graph):
    t0 = time.time()
    s = closedform.spectrum_odd(ff.ff_make(5, 1))
    ns = oracle.numeric_spectrum(graph("gamma", 5))
    rep = oracle.compare_spectra(s, ns, tol=1e-7)
    assert rep.passed and not rep.mismatches
    ints = {e.value.ival: e.multiplicity for e in s.entries
            if e.value.kind == "int"}
    assert ints == {20: 1, 5: 80, 0: 220, -5: 164}
    assert time.time() - t0 < 10.0
    _report(2, "Gamma(4,5) closed form vs 625-vertex oracle", t0)


def test_criterion_3_even_q(graph):
    t0 = time.time()
    expected_components = {2: 4, 4: 4, 8: 1}
    for q in (2, 4, 8):
        spec = ff.field_for(q)
        s = closedform.spectrum_even(spec)
        rep = oracle.compare_spectra(s, oracle.numeric_spectrum(graph("gamma", q)))
        assert rep.passed and not rep.mismatches, q
        ncomp, _ = graphs.connected_components(graph("gamma", q).neighbors)
        assert ncomp == expected_components[q]
        assert s.largest.multiplicity == ncomp
    assert time.time() - t0 < 30.0
    _report(3, "even q in {2,4,8}: closed form, oracle, components 4/4/1", t0)


def test_criterion_4_q7_and_q9(graph):
    t0 = time.time()
    for q in (7, 9):
        spec = ff.field_for(q)
        s = closedform.spectrum_odd(spec)
        rep = oracle.compare_spectra(s, oracle.numeric_spectrum(graph("gamma", q)),
                                     tol=1e-6)
        assert rep.passed and not rep.mismatches, q
    assert len(closedform.spectrum_odd(ff.field_for(7)).entries) == 13
    assert time.time() - t0 < 600.0
    _report(4, "q=7 (13 distinct roots) and q=9 (GR(9,2) route) vs oracle", t0)


def test_criterion_5_exponent_arbitration_q5(numeric, eps2q):
    t0 = time.time()
    q = 5
    spec = ff.ff_make(5, 1)
    # corrected per-class exponent q(q-1)^2: totals q^4 and matches the oracle
    good = closedform.spectrum_odd(spec)
    assert good.total == 625
    assert oracle.compare_spectra(good, numeric("gamma", 5)).passed
    # the displayed per-class exponent q(q-1) undercounts the spectrum
    pairs = [(ExactValue.integer(q * (q - 1)), 1),
             (ExactValue.integer(q), q * (q - 1) ** 2),
             (ExactValue.integer(0), 3 * q * (q - 1)),
             (ExactValue.integer(-q), (q - 1) * (2 * q * q - 2 * q + 1))]
    for c in range(1, q):
        eps = cyclo.exp_sum_field([0, c, 0, 1], spec)
        pairs.append((eps2q(eps, q), q * (q - 1)))
    displayed = SpectrumMultiset.assemble("GAMMA4", q, pairs, expected_total=385)
    assert displayed.total == 385
    with pytest.raises(oracle.TotalMismatchError, match="385 vs 625"):
        oracle.compare_spectra(displayed, numeric("gamma", 5))
    _report(5, "exponent arbitration at q=5 (q(q-1)^2 passes, q(q-1) fails 385!=625)", t0)


def test_criterion_6_bipartite_lift(graph):
    t0 = time.time()
    for q in (2, 3, 5):
        spec = ff.field_for(q)
        s = closedform.spectrum_closed(spec)
        lifted = closedform.lift_to_bipartite(s, q)
        ns = oracle.numeric_spectrum(graph("d4", q))
        rep = oracle.compare_spectra(lifted, ns, tol=1e-7)
        assert rep.passed and not rep.mismatches, q
        # 0-doubling rule: multiplicity of 0 in D is twice that of -q in Gamma
        m_minus_q = s.multiplicity_of(ExactValue.integer(-q))
        assert lifted.multiplicity_of(ExactValue.integer(0)) == 2 * m_minus_q
    _report(6, "D(4,q) numeric equals bipartite lift for q in {2,3,5}", t0)


def test_criterion_7_weil_sweep():
    t0 = time.time()
    swept = []
    for q in range(3, 50, 2):
        if ff._prime_power(q) is None:
            continue
        # every position lies on an orbit of the table: one margin per orbit
        table = closedform.epsilon_orbits(ff.field_for(q))
        cspec = table.bases[0].spec
        eps = cyclo.reduce_rows(cspec, table.permute(table.base_hist))
        assert cyclo.weil_check(cspec, eps, q).min() >= -1e-9, q
        swept.append(q)
    assert swept == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37,
                     41, 43, 47, 49]
    _report(7, f"Weil sweep over odd prime powers {swept[0]}..{swept[-1]}: "
               "zero violations", t0)


def test_criterion_8_ramanujan_verdicts():
    t0 = time.time()
    r13 = oracle.expansion_report(13)
    assert abs(r13.lambda2 - 6.9533) <= 1e-3
    assert 2 * math.sqrt(12) < r13.lambda2 < 2 * math.sqrt(13)
    assert not r13.ramanujan
    for q in (19, 37):
        assert not oracle.expansion_report(q).ramanujan, q
    for q in (5, 7, 11):
        r = oracle.expansion_report(q)
        # verdict must agree with the closed-form maximum below the degree
        lifted = closedform.lift_to_bipartite(
            closedform.spectrum_closed(ff.field_for(q)), q)
        lam2 = max(e.approx for e in lifted.entries if e.approx < q - 1e-9)
        assert r.lambda2 == pytest.approx(lam2, abs=1e-12)
        assert r.ramanujan == (lam2 <= 2 * math.sqrt(q - 1) + 1e-12)
        assert r.near_ramanujan
    _report(8, "Ramanujan verdicts: q=13 fails by 0.0251, q=19/37 fail, "
               "q=5/7/11 consistent", t0)


def test_criterion_9_root_count_profiles():
    t0 = time.time()
    # dict equality: the closed forms total q^3 - 1 and have no key 2 for cubics
    for q in (2, 3, 4, 5, 7, 9):
        assert (ff.quadratic_root_profile(ff.field_for(q))
                == ff.quadratic_profile_expected(q)), q
    for q in (2, 4, 8):
        assert (ff.cubic_root_profile_even(ff.field_for(q))
                == ff.cubic_even_profile_expected(q)), q
    _report(9, "root-count profiles by enumeration match the closed forms", t0)


def test_criterion_10_structure_suite(graph, reps_ref):
    t0 = time.time()
    # Cayley realization == collinearity graph, q <= 7
    for q in (2, 3, 4, 5, 7):
        spec = ff.field_for(q)
        sigma = graphs.cayley_vertex_map(spec)
        assert sorted(sigma) == list(range(q ** 4))  # the action is regular
        cay, gam = graph("cayley", q), graph("gamma", q)
        assert np.array_equal(np.sort(sigma[cay.neighbors], axis=1),
                              gam.neighbors[sigma]), q

    # exhaustive q=3: every group element acts as a Gamma automorphism
    F3 = ff.ff_make(3, 1)
    gam3 = graph("gamma", 3)
    for i in range(81):
        pi = graphs.action_permutation(F3, graphs.vertex_coords(3, i))
        assert np.array_equal(np.sort(pi[gam3.neighbors], axis=1),
                              gam3.neighbors[pi])

    # psi-orthogonality and conjugacy census, q = 3 and 5
    for q in (3, 5):
        spec = ff.field_for(q)
        assert reps.psi_orthogonality(spec)
        count, hist = reps.conjugacy_class_data(spec)
        assert count == q ** 3 + q ** 2 - q
        assert hist == {1: q * q, q: q ** 3 - q}

    # representation homomorphism spot checks (exhaustive run in test_reps)
    for q in (3, 5, 7):
        spec = ff.field_for(q)
        a, b = 1, q - 1
        rng = random.Random(q)
        for _ in range(6):
            g = graphs.vertex_coords(q, rng.randrange(q ** 4))
            h = graphs.vertex_coords(q, rng.randrange(q ** 4))
            assert (reps_ref.rep_matrix(spec, a, b, g) @ reps_ref.rep_matrix(spec, a, b, h)
                    == reps_ref.rep_matrix(spec, a, b, graphs.group_mul(spec, g, h)))

    # no 4- or 6-cycles in D(4,q), q <= 5
    for q in (2, 3, 4, 5):
        assert graphs.girth_at_least(graph("d4", q), 8)
    _report(10, "structure suite (Cayley iso, regular action, characters, girth)", t0)


def test_extended_exponent_arbitration_q11():
    # full numeric spectrum at q=11: 14641 vertices, 121 blocks of order 121
    spec = ff.field_for(11)
    s = closedform.spectrum_odd(spec)
    assert s.total == 11 ** 4
    gam = graphs.build_gamma(spec)
    rep = oracle.compare_spectra(s, oracle.numeric_spectrum(gam), tol=1e-6)
    assert rep.passed and not rep.mismatches


def test_extended_bipartite_lift_q9():
    # D(4,9): 13122 vertices, 81 blocks of order 162, GR(9,2) closed form
    spec = ff.field_for(9)
    lifted = closedform.lift_to_bipartite(closedform.spectrum_closed(spec), 9)
    rep = oracle.compare_spectra(lifted, oracle.numeric_spectrum(graphs.build_d4(spec)),
                                 tol=1e-6)
    assert rep.passed and not rep.mismatches


@pytest.mark.slow
def test_extended_bipartite_lift_q13():
    # D(4,13): 57122 vertices, 169 blocks of order 338, about 0.5 GB at peak
    spec = ff.field_for(13)
    lifted = closedform.lift_to_bipartite(closedform.spectrum_closed(spec), 13)
    ns = oracle.numeric_spectrum(graphs.build_d4(spec), max_dense_n=2 * 13 ** 4)
    rep = oracle.compare_spectra(lifted, ns, tol=1e-6)
    assert rep.passed and not rep.mismatches
    assert ns.values[-2] == pytest.approx(6.95328, abs=1e-4)
