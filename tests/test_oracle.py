import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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


@pytest.mark.parametrize("kind, q", [("gamma", q) for q in (2, 3, 4, 5, 7)]
                         + [("d4", q) for q in (2, 3, 4, 5)]
                         + [("cayley", 3), ("cayley", 4)])
def test_blocks_match_dense_reference(kind, q, graph, numeric, dense_reference):
    # p = 2 (real characters), e > 1 (digit-wise addition) and both sides of D4
    want = dense_reference(graph(kind, q))
    assert np.abs(numeric(kind, q).values - want).max() <= 1e-10


def test_block_stack_peak_memory(graph, field):
    # a (q^2, m, m) complex stack would be 16 n^2 / q^2 bytes; for odd q only
    # (q + 1) / 2 of its q character rows are built, so that part, the float
    # counts and the row-translation check (in row blocks) stay under 1.4 of it
    adj = graph("gamma", 11)
    field(11)
    tracemalloc.start()
    try:
        oracle.numeric_spectrum(adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * 16 * adj.n ** 2 / 11 ** 2


def test_untranslatable_graph_is_refused(graph, two_switch):
    with pytest.raises(oracle.VerificationError, match="not automorphisms"):
        oracle.numeric_spectrum(two_switch(graph("gamma", 3)))


def test_untranslatable_graph_is_refused_under_O(graph, two_switch, tmp_path):
    path = tmp_path / "switched.npy"
    np.save(path, two_switch(graph("gamma", 3)).neighbors)
    code = ("import numpy as np\n"
            "from luspec import graphs, oracle\n"
            f"nb = np.load({str(path)!r})\n"
            "oracle.numeric_spectrum(graphs.AdjacencyStructure('GAMMA4', 3, 81, nb))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(graphs.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "VerificationError" in proc.stderr and "not automorphisms" in proc.stderr


def test_asymmetric_translation_invariant_graph_is_refused():
    # v -> tau_(1,0) v: every row is the translate of its representative's,
    # but the counts are not symmetric
    v = np.arange(81)
    nb = (v % 9 + 9 * ((v // 9 + 1) % 3) + 27 * (v // 27)).astype(np.int32)
    adj = graphs.AdjacencyStructure("GAMMA4", 3, 81, nb[:, None])
    with pytest.raises(oracle.VerificationError, match="not automorphisms"):
        oracle.numeric_spectrum(adj)


def test_translation_orbits_are_a_bijection(graph, field):
    for kind, q in (("gamma", 4), ("d4", 3), ("cayley", 5)):
        adj, q2 = graph(kind, q), q * q
        orbit, h = graphs.translation_orbits(adj, field(q))
        assert sorted(orbit * q2 + h) == list(range(adj.n))
        # h = 0 exactly on the orbit representatives, c3 = c4 = 0
        assert np.array_equal(h == 0, np.arange(adj.n) % q ** 4 < q2)


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
