import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luspec import closedform, cyclo, ff, gr9
from luspec.cyclo import CycInt, cyc_spec, embed, exp_sum_field, exp_sum_gr


def test_arith_examples(zeta):
    c5 = cyc_spec(5)
    s = zeta(c5, 1) + zeta(c5, 2) + zeta(c5, 3) + zeta(c5, 4)
    assert s == -1
    assert zeta(c5, 1).conj() == zeta(c5, 4)
    c9 = cyc_spec(9)
    assert zeta(c9, 1) * zeta(c9, 8) == 1


def test_embed_examples(zeta):
    c3 = cyc_spec(3)
    assert abs(embed(CycInt.integer(c3, 1) + zeta(c3, 1) + zeta(c3, 2))) < 1e-12
    c5 = cyc_spec(5)
    golden = embed(zeta(c5, 1) + zeta(c5, 4)).real
    assert golden == pytest.approx(0.618034, abs=1e-6)


def test_conductor_restricted():
    with pytest.raises(ValueError):
        cyc_spec(4)
    with pytest.raises(ValueError):
        cyc_spec(15)


def test_mixed_conductors_rejected(zeta):
    with pytest.raises(ValueError):
        zeta(cyc_spec(5)) + zeta(cyc_spec(7))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 13])
def test_linear_sums_closed_form(q, zeta):
    # eps_{bt+c} = 0 for b != 0, else q * zeta^tr(c)
    spec = ff.field_for(q)
    cs = cyc_spec(spec.p)
    for b in range(q):
        for c in range(q):
            got = exp_sum_field([c, b], spec)
            if b:
                assert got == CycInt.integer(cs, 0)
            else:
                assert got == q * zeta(cs, spec.tr(c))


def test_cubic_examples_f5(zeta):
    F5 = ff.ff_make(5, 1)
    c5 = cyc_spec(5)
    assert exp_sum_field([1, 2], F5) == 0          # 2t + 1
    assert exp_sum_field([0, 0, 0, 1], F5) == 0    # t^3 permutes F_5
    got = exp_sum_field([0, 1, 0, 1], F5)          # t^3 + t
    assert got == CycInt.integer(c5, 3) + zeta(c5, 2) + zeta(c5, 3)
    assert embed(got).real == pytest.approx((5 - 5 ** 0.5) / 2)
    got2 = exp_sum_field([0, 2, 0, 1], F5)         # t^3 + 2t = -sqrt(5)
    assert got2 == CycInt.integer(c5, 1) + 2 * zeta(c5, 2) + 2 * zeta(c5, 3)
    assert embed(got2).real == pytest.approx(-2.23607, abs=1e-5)
    assert exp_sum_field([0, 3, 0, 1], F5) == -got2   # t^3 + 3t = +sqrt(5)


def test_f13_weil_margin():
    F13 = ff.ff_make(13, 1)
    eps = exp_sum_field([0, 0, 0, 4], F13)
    assert embed(eps).real == pytest.approx(-6.9533, abs=1e-4)
    (margin,) = cyclo.weil_check(eps.spec, np.array([eps.coeffs]), 13)
    assert margin == pytest.approx(2 * 13 ** 0.5 - 6.9533, abs=1e-4)


def test_weil_check_errors_and_trivial():
    c5 = cyc_spec(5)
    rows = np.array([CycInt.integer(c5, 0).coeffs, CycInt.integer(c5, 5).coeffs])
    # 0 keeps the whole envelope 2*sqrt(5); the integer 5 lies outside it
    assert cyclo.weil_check(c5, rows, 5).tolist() == [2 * 5 ** 0.5, 2 * 5 ** 0.5 - 5]
    with pytest.raises(ValueError):  # rows of phi(n) coefficients only
        cyclo.weil_check(c5, rows[:, :3], 5)


@pytest.mark.parametrize("q", [7, 13, 61, 81, 125, 243, 343])
def test_weil_margins_are_embed_bit_for_bit(q):
    # q = 81 and 243 take conductor 9 (GR(9,e)); the rest conductor p
    table = closedform.epsilon_orbits(ff.field_for(q))
    cspec = table.bases[0].spec
    rows = cyclo.reduce_rows(cspec, table.permute(table.base_hist))
    want = [2 * float(q) ** 0.5 - abs(embed(CycInt(cspec, r))) for r in rows.tolist()]
    assert cyclo.weil_check(cspec, rows, q).tolist() == want


@pytest.mark.parametrize("q", [5, 7, 11, 13, 25, 49])
def test_cubic_sums_real_and_weil_bounded(q):
    # all f = a*t^3 + c*t with a != 0: conj-invariant and within 2*sqrt(q)
    spec = ff.field_for(q)
    bound = 2 * q ** 0.5 + 1e-9
    for a in range(1, q):
        for c in range(q):
            eps = exp_sum_field([0, c, 0, a], spec)
            assert eps.conj() == eps
            assert abs(embed(eps)) <= bound


@pytest.mark.parametrize("e", [1, 2, 3])
def test_gr_sums_weil_bounded(e):
    R = gr9.gr9_make(e)
    bound = 2 * R.q ** 0.5 + 1e-9
    for c in range(R.q):
        eps = exp_sum_gr(c, R)
        assert eps.conj() == eps
        assert abs(embed(eps)) <= bound


@pytest.mark.parametrize("e", [1, 2, 3])
def test_gr_sums_match_ring_arithmetic(e, gr_sum_reference):
    R = gr9.gr9_make(e)
    for c in range(R.q):
        assert exp_sum_gr(c, R) == gr_sum_reference(c, e)


def test_gr_sums_q3_values(zeta):
    R = gr9.gr9_make(1)
    c9 = cyc_spec(9)
    one = CycInt.integer(c9, 1)
    # c = 0, 1, 2 give 3*T(c) = 0, 3, 6 in Z/9
    table = {0: one + zeta(c9, 1) + zeta(c9, 8),
             1: one + zeta(c9, 4) + zeta(c9, 5),
             2: one + zeta(c9, 2) + zeta(c9, 7)}
    for c, want in table.items():
        assert exp_sum_gr(c, R) == want


@pytest.mark.parametrize("q,f", [
    (5, [0, 1, 0, 1]), (5, [2, 3, 1, 4]), (9, [0, 4, 0, 1]),
    (13, [0, 0, 0, 4]), (13, [1, 2, 3, 4, 5]),
])
def test_exact_sum_matches_complex_summation(q, f, poly):
    spec = ff.field_for(q)
    exact = embed(exp_sum_field(f, spec))
    direct = 0j
    for a in range(q):
        t = spec.tr(poly.eval(spec, f, a))
        direct += cmath.exp(2j * cmath.pi * t / spec.p)
    assert abs(exact - direct) < 1e-10


def test_histogram_reduction_n9(zeta):
    # zeta9^6 = -1 - zeta9^3 and friends
    c9 = cyc_spec(9)
    for k in range(3):
        lhs = zeta(c9, 6 + k)
        rhs = -CycInt.integer(c9, 1) * zeta(c9, k) - zeta(c9, 3 + k)
        assert lhs == rhs


def test_conductor9_embedding_cubes_to_zeta3(zeta):
    xi = embed(zeta(cyc_spec(9), 1))
    z3 = embed(zeta(cyc_spec(3), 1))
    assert abs(xi ** 3 - z3) < 1e-14


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_product_matches_schoolbook(data, cyc_mul_reference):
    spec = cyc_spec(data.draw(st.sampled_from([2, 3, 5, 9, 13, 61, 257])))
    coeff = st.one_of(st.integers(-2, 2), st.integers(-2 ** 20, 2 ** 20))
    x, y = (CycInt(spec, data.draw(st.lists(coeff, min_size=spec.phi,
                                            max_size=spec.phi)))
            for _ in range(2))
    assert x * y == cyc_mul_reference(x, y)
    assert x * y == y * x


def test_product_overflow_guard(cyc_mul_reference):
    c13 = cyc_spec(13)  # phi = 12
    below = CycInt(c13, [2 ** 29 - 1, 0, -(2 ** 29 - 1)] + [7] * 9)
    assert below * below == cyc_mul_reference(below, below)  # 12 (2^29-1)^2 < 2^62
    at = CycInt(c13, [2 ** 30] + [1] * 11)  # 12 * 2^60 >= 2^62
    with pytest.raises(OverflowError):
        at * at
    with pytest.raises(OverflowError):
        CycInt(cyc_spec(257), [2 ** 40] * 256) * CycInt(cyc_spec(257), [2 ** 20] * 256)
    # every conductor goes through the guarded convolution
    huge = CycInt(cyc_spec(5), [2 ** 70, 0, 0, -1])
    with pytest.raises(OverflowError):
        huge * huge
    assert huge * 2 == huge + huge  # scalar multiples stay in Python integers


@pytest.mark.parametrize("q", [7, 13, 25, 27, 81])
def test_histogram_rows_invert_reduce_rows(q):
    # a trace histogram is the one histogram of its sum with total q
    spec = ff.field_for(q)
    if spec.p == 3:
        R = gr9.gr9_make(spec.e)
        sums = [exp_sum_gr(c, R) for c in range(q)]
        hists = np.array([np.bincount((R.teich_trace + 3 * spec.tr(spec.mul(c, np.arange(q))))
                                      % 9, minlength=9) for c in range(q)])
    else:
        hists = np.array([cyclo.trace_histogram([0, c, 0, 1], spec) for c in range(q)])
        sums = [exp_sum_field([0, c, 0, 1], spec) for c in range(q)]
    cspec = sums[0].spec
    coeffs = [e.coeffs for e in sums]
    assert cyclo.reduce_rows(cspec, hists).tolist() == [list(c) for c in coeffs]
    if spec.p != 3:  # over GF(q) the histogram with total q is unique
        assert np.array_equal(cyclo.histogram_rows(cspec, coeffs, q), hists)
    rows = cyclo.histogram_rows(cspec, coeffs, q)
    assert (rows.sum(axis=1) == q).all()
    assert cyclo.reduce_rows(cspec, rows).tolist() == [list(c) for c in coeffs]
    with pytest.raises(RuntimeError, match="does not sum"):
        cyclo.histogram_rows(cspec, coeffs, q + 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_format_rows_matches_str_of_list(data):
    # the lookup-table text of each row is str(list(row)), for rows with
    # negative, zero, single-valued and large (up to +-q^2) entries
    q = data.draw(st.sampled_from([3, 5, 13, 61]))
    value = st.integers(-q * q, q * q)
    shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(0, 12)))
    kind = data.draw(st.sampled_from(["any", "zero", "single", "extremes"]))
    if kind == "zero":
        rows = np.zeros(shape, dtype=np.int64)
    elif kind == "single":
        rows = np.full(shape, data.draw(value), dtype=np.int64)
    else:
        elements = st.sampled_from([-q * q, -1, 0, 1, q * q]) if kind == "extremes" else value
        rows = np.array(data.draw(st.lists(st.lists(elements, min_size=shape[1],
                                                    max_size=shape[1]),
                                           min_size=shape[0], max_size=shape[0])),
                        dtype=np.int64).reshape(shape)
    assert cyclo.format_rows(rows) == [str(list(r)) for r in rows.tolist()]


@pytest.mark.parametrize("rows", [
    np.array([[-4], [0], [7], [-4]]),  # conductor 2: phi = 1, one cell per row
    np.zeros((3, 0), dtype=np.int64),  # zero-width rows
    np.zeros((0, 5), dtype=np.int64),  # no rows
    np.random.default_rng(257).integers(-3, 4, (64, 256)),  # one lift block at q = 257
    np.array([[-61 ** 2, -1, 0, 9, 10, -10, 61 ** 2]]),  # a row spanning +-q^2
    np.array([[-10 ** 7, -10 ** 7 + 2], [-10 ** 7 + 1, -10 ** 7]]),  # cells over eight bytes
], ids=["conductor-2", "zero-width", "no-rows", "block-64x256", "plus-minus-q2", "wide"])
def test_format_rows_cases(rows):
    assert cyclo.format_rows(rows) == [str(list(r)) for r in rows.tolist()]
    # a second call reads the cached tables
    assert cyclo.format_rows(rows) == [str(list(r)) for r in rows.tolist()]


def test_format_rows_memory_follows_the_entries_not_the_range():
    # a cell table over [-10^7, 10^7] would take 640 MB
    rows = np.array([[-10 ** 7, 10 ** 7]])
    tracemalloc.start()
    try:
        text = cyclo.format_rows(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == ["[-10000000, 10000000]"] and peak < 64 * 1024
