import tracemalloc

import numpy as np
import pytest

from luspec import ff, gr9


def test_e1_teichmueller_set():
    # GR(9,1) = Z/9 with T = {0, 1, 8}; the trace is the identity
    assert gr9.gr9_make(1).teich_trace.tolist() == [0, 1, 8]


def _check_against_definition(e, teichmueller):
    R = gr9.gr9_make(e)
    teich = teichmueller(e)
    assert sorted(teich) == list(range(R.q))
    want = [int(np.trace(teich[a])) % 9 for a in range(R.q)]
    assert R.teich_trace.tolist() == want


def test_e2_teichmueller_properties(teichmueller):
    _check_against_definition(2, teichmueller)


def test_e3_sanity(teichmueller):
    _check_against_definition(3, teichmueller)


def test_modulus_reduces_to_field_modulus():
    for e in (1, 2, 3):
        R = gr9.gr9_make(e)
        assert tuple(c % 3 for c in R.modulus) == R.field.modulus


def test_trace_examples():
    for e in range(1, 7):
        assert gr9.gr9_make(e).teich_trace[1] == e % 9  # Tr(1) = e
    assert gr9.gr9_make(1).teich_trace[2] == 8  # T(2) = -1


@pytest.mark.parametrize("e", range(1, 7))
def test_trace_reduces_to_field_trace(e):
    R = gr9.gr9_make(e)
    assert np.array_equal(R.teich_trace % 3, R.field.trace)


@pytest.mark.parametrize("e", range(1, 7))
def test_trace_additive_and_frobenius(e):
    R = gr9.gr9_make(e)
    a = np.arange(R.q)
    # x -> x^3 is the Frobenius on T and fixes the trace
    assert np.array_equal(R.teich_trace[R.field.pow(a, 3)], R.teich_trace)
    # Tr is additive and the (q-1)-th roots of unity sum to 0 (q > 2)
    assert R.teich_trace.sum() % 9 == 0


def test_size_bound():
    # the ring shares the field's budget: GF(3^12) fits 2^20, GF(3^13) does not
    assert gr9.gr9_make(12).teich_trace.shape == (3 ** 12,)
    with pytest.raises(ff.SizeBudgetError):
        gr9.gr9_make(13)
    with pytest.raises(ValueError):
        gr9.gr9_make(0)


def test_largest_ring_builds_in_linear_space():
    # the n x e coefficient rows are int8 and the doubling runs in int16, so
    # the build needs no int64 copy of them (it peaked at 128 bytes per
    # element with one)
    ff.ff_make(3, 12)  # the field is cached and not counted
    tracemalloc.start()
    try:
        R = gr9.GR9Spec(12)  # uncached
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert R.teich_trace.nbytes == 8 * R.q
    assert peak <= 6 * 8 * R.q


@pytest.mark.parametrize("corrupt, message", [
    (lambda F: F.exp.__setitem__(1, 0), "beta"),           # not a unit
    (lambda F: F.exp.__setitem__([2, 3], F.exp[[3, 2]]), "onto GF"),
    (lambda F: F.trace.__setitem__(1, (F.trace[1] + 1) % 3), "field trace"),
])
def test_construction_checks_raise(monkeypatch, corrupt, message):
    F = ff.ff_make(3, 2)
    monkeypatch.setattr(F, "exp", F.exp.copy())
    monkeypatch.setattr(F, "trace", F.trace.copy())
    corrupt(F)
    with pytest.raises(RuntimeError, match=message):
        gr9.GR9Spec(2)
