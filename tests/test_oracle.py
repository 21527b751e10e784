import math

import numpy as np
import pytest

from luspec import closedform, ff, graphs, oracle
from luspec.closedform import ExactValue, SpectrumMultiset


def test_numeric_spectrum_q2(numeric):
    ns = numeric("gamma", 2)
    vals, counts = np.unique(np.round(ns.values, 9), return_counts=True)
    assert dict(zip(vals.tolist(), counts.tolist())) == {-2.0: 4, 0.0: 8, 2.0: 4}


def test_numeric_moments(numeric, graph):
    ns = numeric("gamma", 3)
    ns.check_moments(graph("gamma", 3).num_edges)
    with pytest.raises(ValueError):
        ns.check_moments(999)


def test_budget_exceeded(graph):
    with pytest.raises(ff.SizeBudgetError):
        oracle.numeric_spectrum(graph("gamma", 5), max_dense_n=100)


def test_compare_identical_passes(numeric):
    s = closedform.spectrum_odd(ff.ff_make(3, 1))
    rep = oracle.compare_spectra(s, numeric("gamma", 3))
    assert rep.passed and rep.worst_dev < 1e-9
    assert not rep.mismatches
    assert rep.text().startswith("PASS")


def test_compare_total_mismatch_hard_fails(numeric):
    pairs = [(ExactValue.integer(0), 384), (ExactValue.integer(20), 1)]
    runt = SpectrumMultiset.assemble("GAMMA4", 5, pairs, expected_total=385)
    with pytest.raises(oracle.TotalMismatchError, match="385 vs 625"):
        oracle.compare_spectra(runt, numeric("gamma", 5))


def test_compare_detects_wrong_multiplicity(numeric):
    s = closedform.spectrum_odd(ff.ff_make(3, 1))
    pairs = [(e.value, e.multiplicity) for e in s.entries]
    # move one eigenvalue from the 0 class to the 3 class
    moved = []
    for v, m in pairs:
        if v == ExactValue.integer(0):
            moved.append((v, m - 1))
        elif v == ExactValue.integer(3):
            moved.append((v, m + 1))
        else:
            moved.append((v, m))
    bad = SpectrumMultiset.assemble("GAMMA4", 3, moved, expected_total=81)
    rep = oracle.compare_spectra(bad, numeric("gamma", 3))
    assert not rep.passed
    assert any(m.expected != m.observed for m in rep.mismatches)
    assert rep.text().startswith("FAIL")


def test_bipartite_numeric_symmetry(numeric):
    ns = numeric("d4", 3)
    assert np.allclose(ns.values, -ns.values[::-1], atol=1e-9)


def test_d4_extreme_eigenvalues_bounded(numeric):
    # everything but +-q sits inside 2*sqrt(q)
    for q in (2, 3, 5):
        ns = numeric("d4", q)
        inner = ns.values[(ns.values < q - 1e-6) & (ns.values > -q + 1e-6)]
        assert np.abs(inner).max() <= 2 * math.sqrt(q) + 1e-6


def test_lambda2_sparse_matches_closed(graph):
    got = oracle.lambda2_sparse(graph("d4", 5))
    want = oracle.expansion_report(5, source="closed").lambda2
    assert got == pytest.approx(want, abs=1e-8)


def test_expansion_report_q13():
    r = oracle.expansion_report(13)
    assert r.lambda2 == pytest.approx(6.9533, abs=1e-3)
    assert 2 * math.sqrt(12) < r.lambda2 < 2 * math.sqrt(13)
    assert not r.ramanujan and r.near_ramanujan
    assert r.margin_ramanujan == pytest.approx(-0.0251, abs=2e-4)
    assert "NOT Ramanujan" in r.verdict()


def test_expansion_report_q5():
    r = oracle.expansion_report(5)
    assert r.ramanujan
    assert r.lambda2 == pytest.approx(math.sqrt(5 + (5 + math.sqrt(125)) / 2))
    assert r.isoperimetric_lower <= r.isoperimetric_upper
    assert r.isoperimetric_lower == pytest.approx((5 - r.lambda2) / 2)
    assert r.isoperimetric_upper == pytest.approx(
        math.sqrt(2 * 5 * (5 - r.lambda2)))


def test_expansion_report_sources_agree():
    rc = oracle.expansion_report(3, source="closed")
    rn = oracle.expansion_report(3, source="numeric")
    assert rc.lambda2 == pytest.approx(rn.lambda2, abs=1e-8)
    with pytest.raises(ValueError):
        oracle.expansion_report(3, source="psychic")


def test_report_exports():
    rs = [oracle.expansion_report(q) for q in (5, 13)]
    table = oracle.expansion_table(rs)
    assert "lambda2" in table.splitlines()[0]
    assert len(table.splitlines()) == 3
    import json
    docs = json.loads(oracle.reports_to_json(rs))
    assert docs[1]["q"] == 13 and docs[1]["ramanujan"] is False
