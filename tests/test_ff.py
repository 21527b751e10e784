import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luspec import ff


def primitive_element(spec):
    """The generator the field tables are built on: g = exp[1], the smallest
    element (index order) of multiplicative order q - 1."""
    return int(spec.exp[1])


def _index(spec, coeffs):
    """The index of a coefficient vector (constant term first), each taken mod p."""
    return sum(c % spec.p * spec.p ** i for i, c in enumerate(coeffs))


def test_modulus_examples():
    assert ff.ff_make(3, 1).modulus == (0, 1)          # prime field: x
    assert ff.ff_make(3, 2).modulus == (1, 0, 1)       # x^2 + 1
    assert ff.ff_make(2, 2).modulus == (1, 1, 1)       # x^2 + x + 1


def test_modulus_of_large_fields():
    assert ff._smallest_irreducible(5, 8) == (1, 0, 0, 0, 0, 1, 1, 0, 1)
    # x^20 + x^17 + 1
    assert ff._smallest_irreducible(2, 20) == (1,) + (0,) * 16 + (1, 0, 0, 1)


def test_make_rejects_bad_input():
    with pytest.raises(ValueError):
        ff.ff_make(4, 1)
    with pytest.raises(ValueError):
        ff.ff_make(6, 2)
    with pytest.raises(ValueError):
        ff.FieldSpec(5, 0)
    with pytest.raises(ff.SizeBudgetError):
        ff.ff_make(2, 21)


def test_prime_power():
    assert ff._prime_power(8) == (2, 3)
    assert ff._prime_power(49) == (7, 2)
    assert ff._prime_power(6) is None
    assert ff._prime_power(1) is None


def test_arith_examples():
    F5 = ff.ff_make(5, 1)
    assert F5.mul(2, 3) == 1
    F9 = ff.ff_make(3, 2)
    assert F9.index_coeffs(5) == (2, 1)
    x = _index(F9, [0, 1])
    assert F9.mul(x, x) == _index(F9, [2, 0])  # x^2 = -1 forced by the modulus
    F7 = ff.ff_make(7, 1)
    assert F7.pow(3, 6) == 1
    a, b = 3, 5
    assert F7.add(a, b) == 1
    assert F7.sub(a, b) == 5
    assert F7.mul(a, b) == 1
    assert F7.mul(a, F7.inv(b)) == 2
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)
    with pytest.raises(ZeroDivisionError):
        F7.pow(0, -1)


def test_trace_examples():
    F9 = ff.ff_make(3, 2)
    assert F9.tr(1) == 2
    assert F9.tr(_index(F9, [0, 1])) == 0  # x + x^3 = 0 with x^2 = -1
    F5 = ff.ff_make(5, 1)
    assert F5.tr(3) == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81])
def test_trace_additive_frobenius_surjective(q):
    spec = ff.field_for(q)
    p = spec.p
    tr = [spec.tr(i) for i in range(q)]
    # additive on all pairs
    for a in range(q):
        for b in range(q):
            assert (tr[a] + tr[b]) % p == tr[spec.add(a, b)]
    # Frobenius-invariant
    for a in range(q):
        assert tr[spec.pow(a, p)] == tr[a]
    # onto F_p with fibers of size q/p
    fibers = [0] * p
    for t in tr:
        fibers[t] += 1
    assert fibers == [q // p] * p


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
def test_primitive_element_generates(q):
    spec = ff.field_for(q)
    g = primitive_element(spec)
    powers = {spec.pow(g, k) for k in range(1, q)}
    assert powers == set(range(1, q))


def test_primitive_element_examples():
    assert primitive_element(ff.ff_make(5, 1)) == 2
    assert primitive_element(ff.ff_make(7, 1)) == 3
    assert primitive_element(ff.ff_make(3, 1)) == 2
    assert primitive_element(ff.ff_make(2, 1)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_moment_sums(q):
    # a self-test of the arithmetic: sum(a**k for a in GF(q)) lies in the
    # prime subfield, -1 when (q-1) | k, k >= 1, and 0 otherwise
    spec = ff.field_for(q)
    for k in range(0, 3 * (q - 1) + 2):
        acc = 0
        for i in range(spec.q):
            acc = spec.add(acc, spec.pow(i, k))
        value, *rest = spec.index_coeffs(acc)
        want = spec.p - 1 if (k >= 1 and k % (q - 1) == 0) else 0
        assert (value, any(rest)) == (want, False), k


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 127, 243, 256, 343, 1024])
def test_quadratic_root_profile(q):
    # equality covers the total q^3 - 1 and allows no root count but 0, 1, 2
    assert (ff.quadratic_root_profile(ff.field_for(q))
            == ff.quadratic_profile_expected(q))


def test_quadratic_profile_q2_example():
    assert ff.quadratic_root_profile(ff.ff_make(2, 1)) == {0: 2, 1: 4, 2: 1}


@pytest.mark.parametrize("q", [2, 4, 8, 256, 1024])
def test_cubic_root_profile_even(q):
    # equality also rules out a cubic with exactly 2 nonzero roots
    assert (ff.cubic_root_profile_even(ff.field_for(q))
            == ff.cubic_even_profile_expected(q))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_root_profiles_match_a_literal_loop(q):
    spec = ff.field_for(q)
    F = range(q)
    add, mul = spec.add, spec.mul

    def literal(points, lead):
        counts = {}
        for a in F:
            for b in F:
                for c in F:
                    if a or b or c:
                        k = sum(1 for t in points
                                if add(add(mul(a, lead(t)), mul(b, t)), c) == 0)
                        counts[k] = counts.get(k, 0) + 1
        return counts

    assert ff.quadratic_root_profile(spec) == literal(F, lambda t: mul(t, t))
    if q % 2 == 0:
        assert ff.cubic_root_profile_even(spec) == literal(F[1:], lambda t: mul(mul(t, t), t))


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_root_profile_catches_swapped_powers(q, swapped_field):
    assert (ff.quadratic_root_profile(swapped_field(q))
            != ff.quadratic_profile_expected(q))


def test_root_profile_peak_memory_is_a_few_row_blocks():
    # rows b are counted in blocks of about 2^16/q rows, so no q x q int64 array
    # is held (the whole (b, t) grid at once peaked at 28.6 MiB at q = 967)
    spec = ff.field_for(967)
    tracemalloc.start()
    try:
        profile = ff.quadratic_root_profile(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile == ff.quadratic_profile_expected(967)
    assert peak <= 8 * (1 << 16) * 8  # eight block-sized int64 arrays, 4 MiB


def test_cubic_profile_rejects_odd():
    with pytest.raises(ValueError):
        ff.cubic_root_profile_even(ff.ff_make(3, 1))


# ----------------------------------------------------------------------
# the O(q) arrays against the polynomial reference

REFERENCE_QS = [4, 9, 169, 243, 251, 256, 257, 343, 625]


class Reference:
    """Field arithmetic on element indices through polynomial tuples."""

    def __init__(self, spec, poly):
        self.spec, self.poly = spec, poly

    def _poly(self, a):
        return self.poly.trim(self.spec.index_coeffs(a))

    def add(self, a, b):
        s = self.spec
        return _index(s, [x + y for x, y in zip(s.index_coeffs(a), s.index_coeffs(b))])

    def sub(self, a, b):
        s = self.spec
        return _index(s, [x - y for x, y in zip(s.index_coeffs(a), s.index_coeffs(b))])

    def mul(self, a, b):
        s = self.spec
        return _index(s, self.poly.mulmod(self._poly(a), self._poly(b), s.modulus, s.p))

    def pow(self, a, k):
        s = self.spec
        if a and k < 0:
            k %= s.q - 1
        return _index(s, self.poly.pow(self._poly(a), k, s.modulus, s.p))

    def inv(self, a):
        return self.pow(a, self.spec.q - 2)

    def tr(self, a):
        acc, x = 0, a
        for _ in range(self.spec.e):  # a + a^p + ... + a^(p^(e-1))
            acc, x = self.add(acc, x), self.pow(x, self.spec.p)
        value, *rest = self.spec.index_coeffs(acc)
        assert not any(rest)
        return value


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_operations_match_polynomial_reference(poly, data):
    q = data.draw(st.sampled_from(REFERENCE_QS))
    spec, ref = ff.field_for(q), Reference(ff.field_for(q), poly)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    k = data.draw(st.integers(0, 3 * q))
    assert spec.add(a, b) == ref.add(a, b)
    assert spec.sub(a, b) == ref.sub(a, b)
    assert spec.neg(b) == ref.sub(0, b)
    assert spec.mul(a, b) == ref.mul(a, b)
    assert spec.pow(a, k) == ref.pow(a, k)
    assert spec.tr(a) == ref.tr(a)
    if a:
        assert spec.inv(a) == ref.inv(a)
        assert spec.pow(a, -k) == ref.pow(a, -k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_array_and_scalar_forms_agree(data):
    q = data.draw(st.sampled_from(REFERENCE_QS))
    spec = ff.field_for(q)
    n = data.draw(st.integers(1, 12))
    xs = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    ys = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    k = data.draw(st.integers(-q, 3 * q))
    xa, ya = np.array(xs), np.array(ys)
    cases = [(spec.add, (xa, ya), (xs, ys)), (spec.sub, (xa, ya), (xs, ys)),
             (spec.mul, (xa, ya), (xs, ys)), (spec.neg, (xa,), (xs,)),
             (spec.tr, (xa,), (xs,)), (spec.inv, (ya,), (ys,)),
             (lambda a: spec.pow(a, k), (ya,), (ys,)),
             (lambda a: spec.pow(a, abs(k)), (xa,), (xs,))]
    for op, arrays, scalars in cases:
        got = op(*arrays)
        want = [op(*args) for args in zip(*scalars)]
        assert all(type(w) is int for w in want)
        assert isinstance(got, np.ndarray) and got.tolist() == want


def test_zero_has_no_inverse_in_arrays():
    spec = ff.field_for(9)
    with pytest.raises(ZeroDivisionError):
        spec.inv(np.arange(9))
    with pytest.raises(ZeroDivisionError):
        spec.pow(np.arange(9), -1)
    assert spec.pow(np.arange(9), 0).tolist() == [1] * 9


@pytest.mark.parametrize("p,e", [(2, 20), (3, 12), (1048573, 1)])
def test_largest_fields_build_in_linear_space(p, e, poly):
    spec = ff.FieldSpec(p, e)  # uncached, so its arrays are freed afterwards
    q = spec.q
    assert spec.exp.nbytes + spec.log.nbytes + spec.trace.nbytes <= 6 * 8 * q
    g = primitive_element(spec)
    assert all(spec.pow(g, (q - 1) // r) != 1 for r in ff._factorize(q - 1))
    assert np.bincount(spec.trace, minlength=p).tolist() == [q // p] * p
    ref = Reference(spec, poly)
    for a, b in [(g, q - 1), (q // 3, q // 2 + 1), (q - 1, q - 2)]:
        assert spec.mul(a, b) == ref.mul(a, b)
        assert spec.add(a, b) == ref.add(a, b)
        assert spec.inv(a) == ref.inv(a)


def _monic(p, d):
    """Every monic polynomial of degree d over F_p, constant term first."""
    return [low + (1,) for low in itertools.product(range(p), repeat=d)]


@pytest.mark.parametrize("p, e", [(2, e) for e in range(2, 9)]
                         + [(3, e) for e in range(2, 6)] + [(5, 2), (5, 3), (7, 2)])
def test_irreducibility_matches_products_of_factors(p, e, poly):
    # a monic f of degree e is reducible iff it is the product of two monic
    # factors of degrees d and e - d for some 1 <= d <= e/2
    reducible = {poly.mul(f, g, p) for d in range(1, e // 2 + 1)
                 for f in _monic(p, d) for g in _monic(p, e - d)}
    assert [f for f in _monic(p, e) if ff._is_irreducible(f, p) == (f in reducible)] == []


@pytest.mark.parametrize("lo, hi", [(2, 1024),
                                    pytest.param(1025, 1 << 16, marks=pytest.mark.slow)])
def test_generator_and_trace_match_polynomial_reference(lo, hi, poly):
    for q in range(lo, hi + 1):
        pe = ff._prime_power(q)
        if pe is None:
            continue
        spec = ff.FieldSpec(*pe)  # uncached, so its arrays are freed afterwards
        ref, n, g = Reference(spec, poly), q - 1, primitive_element(spec)

        def primitive(a):
            return all(ref.pow(a, n // r) != 1 for r in ff._factorize(n))

        # g has order q - 1, and it is the smallest index that has
        assert ref.pow(g, n) == 1 and primitive(g), q
        assert not any(primitive(a) for a in range(1, g)), q
        sample = sorted({0, 1, g, n} | set(range(2, q, max(1, q // 7))))
        assert [spec.tr(a) for a in sample] == [ref.tr(a) for a in sample], q


def test_construction_checks_raise(monkeypatch):
    # a generator of order 1 repeats the element 1 instead of covering GF(q)*
    with monkeypatch.context() as m:
        m.setattr(ff.FieldSpec, "_find_generator", lambda self: 1)
        with pytest.raises(RuntimeError, match="exactly once"):
            ff.FieldSpec(5, 2)
    # over the reducible modulus x^2 the first index with no power 4 equal to 1
    # is x, and its powers 1, x, 0, ... reach zero
    monkeypatch.setattr(ff, "_smallest_irreducible", lambda p, e: (0, 0, 1))
    with pytest.raises(RuntimeError, match="exactly once"):
        ff.FieldSpec(3, 2)
