import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from luspec import cli, closedform, cyclo, ff, gr9
from luspec.closedform import (ExactValue, SpectrumMultiset, _abs_eps_pairs,
                               lift_to_bipartite, spectrum_closed, spectrum_even,
                               spectrum_odd)


def entries_dict(s):
    return {e.value.key: e.multiplicity for e in s.entries}


def int_entries(s):
    return {e.value.ival: e.multiplicity for e in s.entries
            if e.value.kind == "int"}


def elementary_symmetric(values):
    """e_1, ..., e_n of exact cyclotomic values."""
    spec = values[0].spec
    es = [cyclo.CycInt.integer(spec, 1)]
    for v in values:
        es = [es[0]] + [(es[k] if k < len(es) else 0) + es[k - 1] * v
                        for k in range(1, len(es) + 1)]
    return es[1:]


def eps_of(v):
    """The CycInt eps of an eps^2 - q or +-|eps| value, from its row."""
    return cyclo.CycInt(v.cspec, v.row.tolist())


def shifted_values(entries):
    return [eps_of(e.value) * eps_of(e.value) - e.value.q for e in entries]


def test_exact_value_normalization(eps2q, zeta):
    assert ExactValue.sqrt(1, 9) == ExactValue.integer(3)
    assert ExactValue.sqrt(-1, 0) == ExactValue.integer(0)
    assert ExactValue.sqrt(1, 10) != ExactValue.sqrt(-1, 10)
    c5 = cyclo.cyc_spec(5)
    root5 = -(cyclo.CycInt.integer(c5, 1) + 2 * zeta(c5, 2)
              + 2 * zeta(c5, 3))  # sqrt(5) as a cyclotomic integer
    assert eps2q(root5, 5) == ExactValue.integer(0)
    _, neg = next(_abs_eps_pairs(c5, [root5.coeffs]))
    assert neg.kind == "eps" and neg.approx == pytest.approx(-math.sqrt(5))


def test_signed_abs_eps_sign_canonical():
    c5 = cyclo.cyc_spec(5)
    eps = cyclo.exp_sum_field([0, 1, 0, 1], ff.ff_make(5, 1))  # (5-sqrt5)/2 > 0
    (plus, minus_eps), (plus_neg, _) = _abs_eps_pairs(c5, [eps.coeffs, (-eps).coeffs])
    assert plus == plus_neg  # canonical |eps| ignores the sign of eps
    assert plus.approx > 0 > minus_eps.approx


def test_spectrum_even_q2():
    s = spectrum_even(ff.ff_make(2, 1))
    assert int_entries(s) == {2: 4, 0: 8, -2: 4}
    assert s.total == 16
    assert s.largest.multiplicity == 4  # q(q-1) = q merge: 4 components


def test_spectrum_even_q4():
    s = spectrum_even(ff.field_for(4))
    assert int_entries(s) == {12: 4, 4: 72, 0: 96, -4: 84}
    assert s.total == 256


def test_spectrum_even_q8_connected():
    s = spectrum_even(ff.field_for(8))
    assert s.largest.value == ExactValue.integer(56)
    assert s.largest.multiplicity == 1
    assert s.total == 8 ** 4


def test_spectrum_even_trace_zero():
    for q in (2, 4, 8, 16):
        s = spectrum_even(ff.field_for(q))
        assert sum(e.value.ival * e.multiplicity for e in s.entries) == 0
        assert sum(e.value.ival ** 2 * e.multiplicity
                   for e in s.entries) == q ** 5 * (q - 1)


def test_spectrum_parity_dispatch():
    with pytest.raises(ValueError):
        spectrum_even(ff.ff_make(3, 1))
    with pytest.raises(ValueError):
        spectrum_odd(ff.ff_make(2, 1))


def test_spectrum_q3_explicit():
    # x^18 (x-6) (x-3)^12 (x+3)^14 (x^3-9x-9)^12
    s = spectrum_odd(ff.ff_make(3, 1))
    assert int_entries(s) == {6: 1, 3: 12, 0: 18, -3: 14}
    cubic = [e for e in s.entries if e.value.kind == "eps2q"]
    assert [e.multiplicity for e in cubic] == [12, 12, 12]
    roots = sorted(np.roots([1, 0, -9, -9]).real)
    got = sorted(e.approx for e in cubic)
    assert np.allclose(roots, got, atol=1e-9)
    assert elementary_symmetric(shifted_values(cubic)) == [0, -9, 9]


def test_spectrum_q5_explicit():
    # x^220 (x-20) (x-5)^80 (x+5)^164 (x^2-5x-25)^80
    s = spectrum_odd(ff.ff_make(5, 1))
    assert int_entries(s) == {20: 1, 5: 80, 0: 220, -5: 164}
    quad = [e for e in s.entries if e.value.kind == "eps2q"]
    assert [e.multiplicity for e in quad] == [80, 80]
    roots = sorted(np.roots([1, -5, -25]).real)
    assert np.allclose(roots, sorted(e.approx for e in quad), atol=1e-12)
    assert elementary_symmetric(shifted_values(quad)) == [5, -25]


def test_spectrum_q9_structure():
    spec = ff.field_for(9)
    (a, ks), = closedform.epsilon_family(closedform.epsilon_orbits(spec))
    assert a == 1 and len(ks) == 9  # one row: one class per Teichmueller parameter
    s = spectrum_odd(spec)
    assert s.total == 9 ** 4
    assert s.largest.value == ExactValue.integer(72)
    assert s.largest.multiplicity == 1


@pytest.mark.parametrize("q", [7, 13, 19, 25, 31, 49])
def test_epsilon_family_is_the_literal_sum_at_every_position(q):
    spec = ff.field_for(q)
    orbits = closedform.epsilon_orbits(spec)
    cspec, rows = orbits.bases[0].spec, list(closedform.epsilon_family(orbits))
    assert all(type(ks) is tuple for _, ks in rows)  # hashable: the tracer counts distinct rows
    fam = [((a, c), cyclo.CycInt(cspec, orbits.eps[k]), orbits.position_mult)
           for a, ks in rows for c, k in enumerate(ks)]
    want = [((a, c), cyclo.exp_sum_field([0, c, 0, a], spec), q * (q - 1))
            for a in range(1, q) for c in range(q)]
    assert fam == want
    # one sum per scaling orbit: (b, 1) for b != 0 and three cube cosets
    assert len(orbits.mults) == q + 2


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 25, 27, 31, 49, 121, 169, 343])
def test_epsilon_orbits_in_first_seen_order(q, orbit_grid):
    # the closed-form counts against a count over every position's orbit id
    orbits = closedform.epsilon_orbits(ff.field_for(q))
    flat = orbit_grid(orbits).ravel()
    k = len(orbits.mults)
    assert list(dict.fromkeys(flat.tolist())) == list(range(k))
    assert list(orbits.mults) == (np.bincount(flat) * orbits.position_mult).tolist()
    # the eps classes fill what the four integer eigenvalues leave of q^4
    assert sum(orbits.mults) == q ** 2 * (q - 1) ** 2


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25, 27, 31])
def test_spectrum_odd_matches_one_square_per_position(q, eps2q):
    # assemble's eps^2 merge of the orbit pairs must give what squaring every
    # position's eps gives, down to the eps each entry prints
    spec = ff.field_for(q)
    orbits = closedform.epsilon_orbits(spec)
    pairs = [(ExactValue.integer(q * (q - 1)), 1),
             (ExactValue.integer(q), q * (q - 1) ** 2),
             (ExactValue.integer(0), 3 * q * (q - 1)),
             (ExactValue.integer(-q), (q - 1) * (q * q - q + 1))]
    pairs += [(eps2q(cyclo.CycInt(orbits.bases[0].spec, orbits.eps[k]), q),
               orbits.position_mult)
              for _, ks in closedform.epsilon_family(orbits) for k in ks]
    want = SpectrumMultiset.assemble("GAMMA4", q, pairs, expected_total=q ** 4)
    assert spectrum_odd(spec).to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_weil_envelope(q):
    # every non-trivial eigenvalue is eps^2 - q with |eps| <= 2 sqrt(q)
    s = spectrum_odd(ff.field_for(q))
    for e in s.entries:
        if e.value.kind == "eps2q":
            assert abs(cyclo.embed(eps_of(e.value))) <= 2 * math.sqrt(q) + 1e-9
    trivially_ok = {q * (q - 1), q, 0, -q}
    for e in s.entries:
        if e.value.kind == "int" and e.value.ival not in trivially_ok:
            # merged eps class landed on an integer: still within the envelope
            assert abs(e.value.ival + q) <= 4 * q + 1e-9


def prime_spectrum_pairs(p, gr_sum_reference, eps2q):
    """The Gamma(4,p) classes assembled independently of epsilon_family:
    from the representative cubics for p >= 5, from literal GR(9,1)
    arithmetic for p = 3."""
    pairs = [(ExactValue.integer(p * (p - 1)), 1),
             (ExactValue.integer(p), p * (p - 1) ** 2),
             (ExactValue.integer(0), 3 * p * (p - 1)),
             (ExactValue.integer(-p), (p - 1) * (p * p - p + 1))]
    spec = ff.ff_make(p, 1)
    if p == 3:
        for c in range(3):
            pairs.append((eps2q(gr_sum_reference(c, 1), 3), 12))
        return pairs
    for a, c in closedform.representatives(p).members:
        eps = cyclo.exp_sum_field([0, c, 0, a], spec)
        mult = p * (p - 1) ** 2 // (3 if c == 0 and p % 3 == 1 else 1)
        pairs.append((eps2q(eps, p), mult))
    return pairs


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_spectrum_prime_consistent_with_odd(p, gr_sum_reference, eps2q):
    want = SpectrumMultiset.assemble("GAMMA4", p,
                                     prime_spectrum_pairs(p, gr_sum_reference, eps2q),
                                     expected_total=p ** 4)
    assert entries_dict(spectrum_odd(ff.ff_make(p, 1))) == entries_dict(want)


@pytest.mark.parametrize("p,count", [(7, 13), (11, 14), (13, 19)])
def test_spectrum_prime_distinct_roots(p, count):
    assert len(spectrum_odd(ff.ff_make(p, 1)).entries) == count


@pytest.mark.parametrize("p", [17, 19, 23, 29, 31, 37, 41, 43, 47])
def test_spectrum_prime_distinct_roots_larger(p):
    want = p + 3 if p % 3 == 2 else p + 6
    assert len(spectrum_odd(ff.ff_make(p, 1)).entries) == want


def test_spectrum_prime_rejects():
    # the odd-q path refuses p = 2; the representative cubics need a prime p >= 5
    with pytest.raises(ValueError):
        spectrum_odd(ff.ff_make(2, 1))
    with pytest.raises(ValueError):
        closedform.representatives(9)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27, 49, 64, 81,
                               125, 243])
def test_exact_moments(q):
    # sum m*lambda^k in Z[zeta] for k = 0..3: vertices, trace 0, twice the
    # edges, and six triangles for each 3-subset of each of the q^4 lines
    moments = [0, 0, 0, 0]
    for e in spectrum_closed(ff.field_for(q)).entries:
        v = e.value
        lam = v.ival if v.kind == "int" else eps_of(v) * eps_of(v) - v.q
        power = 1
        for k in range(4):
            moments[k] = moments[k] + e.multiplicity * power
            power = power * lam
    assert moments == [q ** 4, 0, q ** 5 * (q - 1), 6 * q ** 4 * math.comb(q, 3)]


def _odd_prime_powers(limit):
    return [q for q in range(3, limit + 1, 2) if ff._prime_power(q)]


def _base_squares(orbits):
    """One histogram per base of its sum's exact CycInt square (totals q^2)."""
    q = int(orbits.base_hist[0].sum())
    return cyclo.histogram_rows(orbits.bases[0].spec,
                                [(e * e).coeffs for e in orbits.bases], q * q)


def _check_orbit_table(q, orbit_grid):
    """Each orbit's permuted eps and eps^2 rows against its own sum, taken
    directly at the first position the family meets it, and that sum's CycInt
    square."""
    spec = ff.field_for(q)
    orbits = closedform.epsilon_orbits(spec)
    flat = orbit_grid(orbits).ravel()
    _, first = np.unique(flat, return_index=True)  # orbit k first meets (a, c)
    a, c = orbits.first
    assert np.array_equal(np.divmod(first + q, q), (a, c))
    if spec.p == 3:
        R = gr9.gr9_make(spec.e)
        want = [cyclo.exp_sum_gr(int(spec.exp[ck - 1]) if ck else 0, R) for ck in c]
    else:
        want = [cyclo.exp_sum_field([0, int(ck), 0, int(ak)], spec)
                for ak, ck in zip(a, c)]
    cspec = want[0].spec
    eps = orbits.permute(orbits.base_hist)
    eps_sq = orbits.permute(_base_squares(orbits))
    got = cyclo.reduce_rows(cspec, eps).tolist()
    got_sq = cyclo.reduce_rows(cspec, eps_sq).tolist()
    assert [tuple(r) for r in got] == [w.coeffs for w in want]
    assert [tuple(r) for r in got_sq] == [(w * w).coeffs for w in want]
    assert (eps.sum(axis=1) == q).all()
    assert (eps_sq.sum(axis=1) == q * q).all()
    if spec.p != 3:  # over GF(q) the eps rows are the literal trace counts
        assert all(np.array_equal(eps[k], cyclo.trace_histogram(
            [0, int(c[k]), 0, int(a[k])], spec)) for k in range(len(want)))


@pytest.mark.parametrize("q", _odd_prime_powers(343))
def test_orbit_table_matches_direct_sums(q, orbit_grid):
    _check_orbit_table(q, orbit_grid)


@pytest.mark.slow
@pytest.mark.parametrize("q", [q for q in _odd_prime_powers(1000) if q > 343])
def test_orbit_table_matches_direct_sums_to_1000(q, orbit_grid):
    _check_orbit_table(q, orbit_grid)


@pytest.mark.parametrize("q", [13, 81, 125, 257, 967])
def test_row_embeddings_are_embed_bit_for_bit(q):
    orbits = closedform.epsilon_orbits(ff.field_for(q))
    cspec = cyclo.cyc_spec(orbits.base_hist.shape[1])
    for hist in (orbits.base_hist, _base_squares(orbits)):
        coeffs = cyclo.reduce_rows(cspec, orbits.permute(hist))
        want = [cyclo.embed(cyclo.CycInt(cspec, row)).real for row in coeffs.tolist()]
        assert cyclo.embed_rows(cspec, coeffs).tolist() == want


@pytest.mark.parametrize("q", [61, 257, 967])
def test_prime_q_makes_one_sum_and_one_square_per_galois_orbit(q, monkeypatch):
    # the q + 2 (q = 1 mod 3) or q (q = 2 mod 3) scaling orbits of a prime
    # fall into three Galois orbits; the whole closed form, lift included,
    # makes one sum and one square for each
    calls = {"sum": 0, "mul": 0}
    real_sum, real_mul = closedform.exp_sum_field, cyclo.CycInt.__mul__

    def counted_sum(*args):
        calls["sum"] += 1
        return real_sum(*args)

    def counted_mul(*args):
        calls["mul"] += 1
        return real_mul(*args)

    monkeypatch.setattr(closedform, "exp_sum_field", counted_sum)
    monkeypatch.setattr(cyclo.CycInt, "__mul__", counted_mul)
    spec = ff.field_for(q)
    orbits = closedform.epsilon_orbits(spec)
    assert len(orbits.mults) == (q + 2 if q % 3 == 1 else q)
    assert len(orbits.base_hist) == 3
    lift_to_bipartite(spectrum_odd(spec, orbits), q)
    assert calls == {"sum": 3, "mul": 3}


def test_orbit_table_guards_raise(monkeypatch):
    spec = ff.field_for(13)
    real = closedform.trace_histogram
    monkeypatch.setattr(closedform, "trace_histogram", lambda f, s: np.roll(real(f, s), 1))
    with pytest.raises(RuntimeError, match="direct sum"):
        closedform.epsilon_orbits(spec)
    monkeypatch.setattr(closedform, "trace_histogram", real)
    # eps + 1 and eps^2 + 1: no multiple of 1 + zeta + ... + zeta^12 = 0 brings
    # their coefficient sums to q or q^2
    real_sum, real_mul = closedform.exp_sum_field, cyclo.CycInt.__mul__
    monkeypatch.setattr(closedform, "exp_sum_field", lambda f, s: real_sum(f, s) + 1)
    with pytest.raises(RuntimeError, match="does not sum to 13"):
        closedform.epsilon_orbits(spec)
    monkeypatch.setattr(closedform, "exp_sum_field", real_sum)
    orbits = closedform.epsilon_orbits(spec)
    monkeypatch.setattr(cyclo.CycInt, "__mul__", lambda x, y: real_mul(x, y) + 1)
    with pytest.raises(RuntimeError, match="does not sum to 169"):
        spectrum_odd(spec, orbits)


def test_orbit_table_guards_the_galois_assignment(monkeypatch):
    # an orbit met again under another base must raise, not be reassigned
    spec = ff.field_for(13)
    real_mul = ff.FieldSpec.mul  # then sigma_j(a, c) = (j, j), whatever the orbit
    monkeypatch.setattr(ff.FieldSpec, "mul",
                        lambda self, x, y: real_mul(self, x, np.ones_like(y)))
    with pytest.raises(RuntimeError, match=r"second \(base, j\)"):
        closedform.epsilon_orbits(spec)


_UNSEEN_ID = """
import numpy as np
from luspec import closedform, ff
real = closedform._raw_id
closedform._raw_id = lambda spec, a, c: np.maximum(real(spec, a, c), 1)  # never id 0
closedform.epsilon_orbits(ff.field_for({q}))
"""


@pytest.mark.parametrize("q", [11, 13])
def test_orbit_table_guards_an_unseen_orbit(q):
    # if the rows run out before every scaling orbit is met, the table raises,
    # also with asserts stripped
    env = {**os.environ, "PYTHONPATH": str(Path(closedform.__file__).resolve().parents[1])}
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", _UNSEEN_ID.format(q=q)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, (flags, proc.stderr)
        assert "RuntimeError: q=%d: a scaling orbit is met at no position" % q in proc.stderr


@pytest.mark.parametrize("q", [121, 343])
def test_orbit_table_reads_each_cube_cosets_first_row_only(q, monkeypatch):
    # row a meets exactly the orbits of a's cube coset, so the table reads at most
    # 3 full rows (a, arange(q)), each coset's first; a scan to the last new orbit
    # reads 14 rows at q = 121 and 11 at q = 343
    real, full_rows, galois_calls = closedform._raw_id, [], []

    def counted(spec, a, c):
        if np.shape(c) == (q,) and (np.asarray(c) == np.arange(q)).all():
            full_rows.append(np.broadcast(a, c).size // q)
        else:  # the Galois loop's images of one orbit
            galois_calls.append(np.size(c))
        return real(spec, a, c)

    monkeypatch.setattr(closedform, "_raw_id", counted)
    orbits = closedform.epsilon_orbits(ff.field_for(q))
    assert 0 < sum(full_rows) <= 3
    assert galois_calls and set(galois_calls) == {ff.field_for(q).p - 1}
    assert len(orbits.mults) == q + 2


# sha256 of json.dumps(spectrum_odd(GF(q)).to_json_dict()), recorded while eps_classes
# still merged on +-eps before assemble merged on eps^2
_SPECTRUM_ODD_DIGESTS = {
    81: "6a6578d53942a87841d889e08613c50f3473d1b0f0ddafa3d944ae6611c3782e",
    125: "1252bb32271d851cd4d05bca833442b79964df8c1d2bd70252de9f548ae62138",
    169: "a53ba0cc0199aea12d41a6da3ce4051a90952ecb8c0d133a90eb8eefe616ac49",
}


@pytest.mark.parametrize("q", sorted(_SPECTRUM_ODD_DIGESTS))
def test_eps_classes_leave_the_merge_to_assemble(q):
    # one pair per orbit: eps^2 = eps'^2 exactly when eps = +-eps', so assemble's
    # eps^2 merge alone gives the classes, first eps rows and entry order
    spec = ff.field_for(q)
    orbits = closedform.epsilon_orbits(spec)
    assert len(closedform.eps_classes(orbits)) == len(orbits.mults)
    doc = json.dumps(spectrum_odd(spec, orbits).to_json_dict()).encode()
    assert hashlib.sha256(doc).hexdigest() == _SPECTRUM_ODD_DIGESTS[q]


def _table_peak(q):
    """The tracemalloc peak of ``epsilon_orbits(GF(q))``, in MiB."""
    spec = ff.field_for(q)
    closedform.epsilon_orbits(spec)  # the field's and cyclotomic caches are built outside
    tracemalloc.start()
    try:
        closedform.epsilon_orbits(spec)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_orbit_table_holds_no_position_grid():
    # a q(q-1) grid of int64 ids alone is 128 MiB at q = 4093
    assert _table_peak(4093) < 16


@pytest.mark.slow
@pytest.mark.parametrize("q", [29929, 29989])  # 173^2: cube cosets lead at rows 1, 173, 174
def test_orbit_table_holds_no_position_grid_below_30000(q):
    assert _table_peak(q) < 64


# ---- representatives / fibers ----

def test_representatives_sizes():
    assert len(closedform.representatives(5).members) == 5
    assert len(closedform.representatives(11).members) == 11
    assert len(closedform.representatives(7).members) == 9
    assert len(closedform.representatives(13).members) == 15


def test_representatives_examples():
    r5 = closedform.representatives(5)
    assert r5.representative_of(2, 1) == (1, 2)
    assert r5.representative_of(1, 3) == (1, 3)
    r7 = closedform.representatives(7)
    assert r7.representative_of(3, 0) == (3, 0)  # omega = 3, coset index 1


def test_representatives_rejects():
    with pytest.raises(ValueError):
        closedform.representatives(3)
    with pytest.raises(ValueError):
        closedform.representatives(9)
    for p in (5, 7):  # a = 0 mod p is no cubic, for either residue of p mod 3
        for a in (0, p):
            with pytest.raises(ValueError):
                closedform.representatives(p).representative_of(a, 1)


@pytest.mark.parametrize("p", [5, 7, 13, 31])
def test_representative_labels_the_orbits(p, orbit_grid):
    # one label per orbit of the table, and distinct orbits get distinct labels
    reps_set = closedform.representatives(p)
    orbits = closedform.epsilon_orbits(ff.ff_make(p, 1))
    labels = {}
    for a, row in zip(orbits.rows, orbit_grid(orbits)):
        for c, k in enumerate(row.tolist()):
            label = reps_set.representative_of(a, c)
            assert labels.setdefault(k, label) == label
    assert len(set(labels.values())) == len(labels) == len(orbits.mults)


REPRESENTATIVE_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@pytest.mark.parametrize("p", REPRESENTATIVE_PRIMES)
def test_representative_preserves_eps(p):
    spec = ff.ff_make(p, 1)
    reps_set = closedform.representatives(p)
    members = set(reps_set.members)
    for a in range(1, p):
        for c in range(p):
            ra, rc = reps_set.representative_of(a, c)
            assert (ra, rc) in members
            assert cyclo.exp_sum_field([0, c, 0, a], spec) == \
                cyclo.exp_sum_field([0, rc, 0, ra], spec)


@pytest.mark.parametrize("p", REPRESENTATIVE_PRIMES)
def test_representative_sums_distinct(p):
    spec = ff.ff_make(p, 1)
    sums = [cyclo.exp_sum_field([0, c, 0, a], spec)
            for a, c in closedform.representatives(p).members]
    assert len({s.coeffs for s in sums}) == len(sums)


def test_fiber_profiles():
    F5 = ff.ff_make(5, 1)
    assert closedform.fiber_profile([0, 2, 0, 1], F5) == (1, 0, 2, 2, 0)
    assert closedform.fiber_profile([0, 3, 0, 1], F5) == (1, 2, 0, 0, 2)
    assert closedform.fiber_profile([0, 0, 0, 1], F5) == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        closedform.fiber_profile([0, 1], ff.field_for(9))


def test_fiber_profile_characterizes_eps_p7():
    # equal profiles <=> equal sums over a prime field
    F7 = ff.ff_make(7, 1)
    for c1 in range(7):
        for c2 in range(7):
            same_eps = (cyclo.exp_sum_field([0, c1, 0, 1], F7)
                        == cyclo.exp_sum_field([0, c2, 0, 1], F7))
            same_prof = (closedform.fiber_profile([0, c1, 0, 1], F7)
                         == closedform.fiber_profile([0, c2, 0, 1], F7))
            assert same_eps == same_prof


def test_bounded_fiber_cubics_p7():
    F7 = ff.ff_make(7, 1)
    good = [c for c in range(1, 7)
            if max(closedform.fiber_profile([0, c, 0, 1], F7)) <= 2]
    assert good == [1, 2, 4]
    for c in good:
        assert closedform.fiber_profile([0, c, 0, 1], F7) == (1, 0, 2, 1, 1, 2, 0)


def test_orbit_rows_are_scale_invariant(orbit_grid):
    # eps_{f(lambda t)} == eps_f: every position (a, c) of the family and its
    # scalings (a*l^3, c*l) have the trace histogram of their orbit's row
    for q in (5, 7, 13, 25):
        spec = ff.field_for(q)
        orbits = closedform.epsilon_orbits(spec)
        eps = orbits.permute(orbits.base_hist)
        for a, row in zip(orbits.rows, orbit_grid(orbits)):
            for c, k in enumerate(row.tolist()):
                for lam in (1, 2, 3, q - 1):
                    f = [0, spec.mul(c, lam), 0, spec.mul(a, spec.pow(lam, 3))]
                    assert np.array_equal(cyclo.trace_histogram(f, spec), eps[k])


# ---- bipartite lift ----

def test_lift_examples():
    q = 5
    s = spectrum_odd(ff.ff_make(5, 1))
    lifted = lift_to_bipartite(s, q)
    assert lifted.total == 2 * q ** 4
    # q(q-1) -> +-q with multiplicity 1
    assert lifted.multiplicity_of(ExactValue.integer(5)) == 1
    assert lifted.multiplicity_of(ExactValue.integer(-5)) == 1
    # -q -> 0 with doubled multiplicity, plus sqrt(q) pairs from 0-classes
    assert lifted.multiplicity_of(ExactValue.integer(0)) == 2 * 164
    assert lifted.multiplicity_of(ExactValue.sqrt(1, 5)) == 220
    # the (5+sqrt(125))/2 class lifts to +-3.618... with multiplicity 80
    vals = sorted((round(e.approx, 3), e.multiplicity) for e in lifted.entries)
    assert (3.618, 80) in vals and (-3.618, 80) in vals


def test_lift_negation_symmetry():
    for q in (2, 3, 4, 5, 7, 9):
        s = closedform.spectrum_closed(ff.field_for(q))
        lifted = lift_to_bipartite(s, q)
        up = sorted(round(e.approx, 9) for e in lifted.entries)
        down = sorted(-round(e.approx, 9) for e in lifted.entries)
        assert up == down
        for e in lifted.entries:
            neg = [x for x in lifted.entries
                   if abs(x.approx + e.approx) < 1e-9]
            assert neg and neg[0].multiplicity == e.multiplicity


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 13, 25, 27, 61, 125])
def test_lift_round_trip(q, eps2q):
    # lambda -> lambda^2 - q, in exact arithmetic, takes D(4,q) back to
    # Gamma(4,q): each +- pair, and 0 at doubled multiplicity, gives 2m
    gam = spectrum_closed(ff.field_for(q))
    back = {}
    for e in lift_to_bipartite(gam, q).entries:
        v = e.value
        if v.kind == "int":
            image = ExactValue.integer(v.ival ** 2 - q)
        elif v.kind == "sqrt":
            image = ExactValue.integer(v.radicand - q)
        else:  # +-|eps|: |eps| squared from its row
            image = eps2q(eps_of(v), q)
        back[image.key] = back.get(image.key, 0) + e.multiplicity
    assert back == {key: 2 * m for key, m in entries_dict(gam).items()}


@pytest.mark.parametrize("q", [5, 13, 25, 27])
def test_lifted_pair_shares_one_row_and_one_text(q):
    # +|eps| and -|eps| of one class hold the same row and coefficient text,
    # formatted once, and that text is |eps|'s coefficient list
    lifted = lift_to_bipartite(spectrum_odd(ff.field_for(q)), q)
    pairs = {}
    for e in lifted.entries:
        if e.value.kind == "eps":
            pairs.setdefault(e.value.key[2:], []).append(e.value)
    assert pairs
    for plus, minus in (sorted(p, key=lambda v: -v.sign) for p in pairs.values()):
        assert (plus.sign, minus.sign) == (1, -1) and plus.approx == -minus.approx > 0
        assert plus.row is minus.row
        assert plus.serial()[1:] == minus.serial()[1:]  # "+|eps|, ..." and "-|eps|, ..."
        assert plus.text is minus.text
        assert plus.text == str(list(eps_of(plus).coeffs))
        assert cyclo.embed(eps_of(plus)).real == pytest.approx(plus.approx)


def test_d4_spectrum_builds_no_cyc_int_per_class(monkeypatch):
    # the merged eps stay int64 rows from spectrum_odd to the JSON text: the
    # only CycInts are the three base sums of q = 257 and their three squares
    calls = {"init": 0}
    real = cyclo.CycInt.__init__

    def counted(self, spec, coeffs):
        calls["init"] += 1
        real(self, spec, coeffs)

    monkeypatch.setattr(cyclo.CycInt, "__init__", counted)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["spectrum", "--graph", "d4", "--q", "257", "--no-timestamp"]) == 0
    assert len(json.loads(out.getvalue())["entries"]) > 500
    assert calls == {"init": 6}


def test_lift_rejects():
    s = spectrum_odd(ff.ff_make(3, 1))
    with pytest.raises(ValueError):
        lift_to_bipartite(s, 5)  # wrong total
    lifted = lift_to_bipartite(s, 3)
    with pytest.raises(ValueError):
        lift_to_bipartite(lifted, 3)  # cannot lift twice
    corrupted = SpectrumMultiset.assemble(
        "GAMMA4", 3, [(ExactValue.integer(-4), 81)], expected_total=81)
    with pytest.raises(closedform.VerificationError):
        lift_to_bipartite(corrupted, 3)  # eigenvalue below -q


def test_exponent_variant_fails_degree_count(eps2q):
    # the per-class exponent q(q-1) instead of q(q-1)^2 undercounts: 385 != 625
    q = 5
    spec = ff.ff_make(5, 1)
    pairs = [(ExactValue.integer(q * (q - 1)), 1),
             (ExactValue.integer(q), q * (q - 1) ** 2),
             (ExactValue.integer(0), 3 * q * (q - 1)),
             (ExactValue.integer(-q), (q - 1) * (2 * q * q - 2 * q + 1))]
    for c in range(1, q):
        eps = cyclo.exp_sum_field([0, c, 0, 1], spec)
        pairs.append((eps2q(eps, q), q * (q - 1)))
    bad = SpectrumMultiset.assemble("GAMMA4", q, pairs, expected_total=385)
    assert bad.total == 385
    with pytest.raises(closedform.VerificationError):
        SpectrumMultiset.assemble("GAMMA4", q, pairs, expected_total=625)


def test_json_schema():
    s = spectrum_odd(ff.ff_make(5, 1))
    doc = s.to_json_dict()
    assert set(doc) == {"graph", "q", "entries", "total"}
    assert doc["total"] == 625
    for entry in doc["entries"]:
        assert set(entry) == {"value_exact", "value_float", "multiplicity"}
    text = json.dumps(doc)
    assert json.loads(text) == doc
    # exact eps serialization carries the power-basis vector
    eps_rows = [e for e in doc["entries"] if "eps" in e["value_exact"]]
    assert eps_rows and all("conductor=5" in e["value_exact"] for e in eps_rows)
