"""The Galois ring GR(9, e), kept as its trace on the Teichmueller set.

GR(9, e) = (Z/9)[X]/(f), f the coefficientwise lift to Z/9 of the modulus of
GF(q), q = 3^e, from :mod:`luspec.ff`.  Its Teichmueller set T = {0} u
{x : x^(q-1) = 1} maps one to one onto GF(q) under reduction mod 3; T(a) is
the lift of a.  The spectra use the ring only through sums over T (see
:func:`luspec.cyclo.exp_sum_gr`), so a spec holds one O(q) vector,
``teich_trace[a] = Tr(T(a))`` in Z/9 for each field index a.

The ring is computed with the field's matrix arithmetic, taken mod 9:
``ff._x_powers`` gives the matrices of multiplication by X^j and
``ff._matpow`` raises them to powers.  Tr(y) is the trace of y's matrix, so
Tr(X^j) is the trace of X^j's matrix, and Tr is linear in the coefficients.
The units are T* x (1 + 3R) with 1 + 3R of order q, so for the lift b of
g = ``field.exp[1]`` (the matrix sum_j b_j X^j), beta = b^q = T(g) and
T(g^j) = beta^j.  The powers beta^j are built by block doubling, as in
``ff.FieldSpec._build``.
"""

from __future__ import annotations

import numpy as np

from . import ff


def _combine(rows: np.ndarray, weights) -> np.ndarray:
    """rows @ weights in int64, one column at a time, so that no int64 copy
    of the n x e matrix ``rows`` is made."""
    out = np.zeros(len(rows), dtype=np.int64)
    for col, w in zip(rows.T, weights):
        out += col * np.int64(w)
    return out


class GR9Spec:
    """GR(9, e) as the vector of traces of its Teichmueller elements."""

    __slots__ = ("e", "q", "field", "modulus", "teich_trace")

    def __init__(self, e: int):
        if e < 1:
            raise ValueError("e must be >= 1")
        self.field = ff.ff_make(3, e)  # enforces the field's size budget
        self.e, self.q = e, self.field.q
        self.modulus = tuple(self.field.modulus)  # coefficientwise lift to Z/9
        self._build()

    def _build(self):
        e, q, n, field = self.e, self.q, self.q - 1, self.field
        powers = ff._x_powers(self.modulus, 9)
        basis_trace = np.trace(powers, axis1=1, axis2=2) % 9  # Tr(X^j)
        b = field.index_coeffs(int(field.exp[1]))
        mat = ff._matpow(np.tensordot(b, powers, 1) % 9, q, 9)  # beta
        if not np.array_equal(ff._matpow(mat, n, 9), np.eye(e, dtype=np.int64)):
            raise RuntimeError("beta^(q-1) must be 1")
        # Entries are < 9 and e <= 12, so every dot product is at most 768:
        # the doubling runs in int16 and the rows are stored in int8.
        mat = mat.astype(np.int16)
        rows = np.zeros((n, e), dtype=np.int8)  # rows[j]: coefficients of beta^j
        rows[0, 0] = 1
        m = 1
        while m < n:  # here mat is the matrix of beta^m
            k = min(m, n - m)
            np.remainder(rows[:k] @ mat.T, 9, out=rows[m:m + k])
            mat = mat @ mat % 9
            m += k
        if not np.array_equal(_combine(rows % 3, 3 ** np.arange(e)), field.exp[:n]):
            raise RuntimeError("the Teichmueller set must map onto GF(q)")
        self.teich_trace = np.zeros(q, dtype=np.int64)
        self.teich_trace[field.exp[:n]] = _combine(rows, basis_trace) % 9
        if not np.array_equal(self.teich_trace % 3, field.trace):
            raise RuntimeError("Tr(T(a)) must reduce to the field trace of a")

    def __repr__(self):
        return f"GR9Spec(GR(9,{self.e}), q={self.q}, modulus={self.modulus})"


_SPEC_CACHE: dict[int, GR9Spec] = {}


def gr9_make(e: int) -> GR9Spec:
    """Cached GR(9, e) constructor."""
    spec = _SPEC_CACHE.get(e)
    if spec is None:
        spec = GR9Spec(e)
        _SPEC_CACHE[e] = spec
    return spec
