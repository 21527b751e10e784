"""Exact cyclotomic integers and the exponential sums of the spectra.

Values live in Z[zeta_n] for a restricted set of conductors: n = 2, an odd
prime, or 9 (the characteristic-9 route for q = 3^e).  Elements are integer
vectors in the power basis 1, zeta, ..., zeta^(phi(n)-1), reduced eagerly
modulo the n-th cyclotomic polynomial, so representations are unique and
equality is exact.

The reductions used:
  * n prime:  zeta^(n-1) = -(1 + zeta + ... + zeta^(n-2))
  * n = 9:    zeta^(6+k) = -zeta^k - zeta^(3+k)   (Phi_9 = x^6 + x^3 + 1)

Many sums at once are int64 coefficient rows.  embed_rows, weil_check and
format_rows act on a block of such rows, each bit for bit what embed, abs
of embed, and str give for one CycInt.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from . import ff, gr9


class CycSpec:
    """Conductor data: n, phi(n) and the complex embedding root."""

    __slots__ = ("n", "phi", "roots")

    def __init__(self, n: int):
        if not (n == 2 or n == 9 or (n > 2 and ff.is_prime(n))):
            raise ValueError(f"conductor {n} not supported (use 2, an odd prime, or 9)")
        self.n = n
        self.phi = 6 if n == 9 else n - 1
        self.roots = tuple(cmath.exp(2j * cmath.pi * k / n) for k in range(n))

    def __repr__(self):
        return f"CycSpec(n={self.n})"


@lru_cache(maxsize=None)
def cyc_spec(n: int) -> CycSpec:
    return CycSpec(n)


def reduce_rows(spec: CycSpec, hist: np.ndarray) -> np.ndarray:
    """Exponent histograms (length n, last axis) -> canonical power-basis coefficients."""
    top = hist[..., spec.phi:]  # the exponents >= phi fold onto the lower ones
    return hist[..., :spec.phi] - (np.concatenate((top, top), -1) if spec.n == 9 else top)


def histogram_rows(spec: CycSpec, coeffs, total: int) -> np.ndarray:
    """Coefficient rows -> histograms of total ``total``, adding t * (sum of roots)."""
    hist = np.pad(np.array(coeffs, dtype=np.int64), ((0, 0), (0, spec.n - spec.phi)))
    step = 3 if spec.n == 9 else 1
    hist[:, ::step] += (total - hist.sum(axis=1))[:, None] // (spec.n // step)
    if (hist.sum(axis=1) != total).any():
        raise RuntimeError(f"a histogram does not sum to {total}")
    return hist


class CycInt:
    """Exact element of Z[zeta_n] in reduced power-basis form."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: CycSpec, coeffs):
        self.spec = spec
        coeffs = tuple(map(int, coeffs))
        if len(coeffs) != spec.phi:
            raise RuntimeError(f"{len(coeffs)} coefficients, expected phi = {spec.phi}")
        self.coeffs = coeffs

    @classmethod
    def from_histogram(cls, spec: CycSpec, hist) -> "CycInt":
        h = list(hist)  # the exponents >= phi fold onto the lower ones, as in reduce_rows
        if len(h) != spec.n:
            raise RuntimeError(f"histogram of length {len(h)}, expected {spec.n}")
        top = h[spec.phi:] * (spec.phi // (spec.n - spec.phi))
        return cls(spec, [a - b for a, b in zip(h, top)])

    @classmethod
    def integer(cls, spec: CycSpec, n: int) -> "CycInt":
        return cls(spec, (n,) + (0,) * (spec.phi - 1))

    def _other(self, other):
        if isinstance(other, int):
            return CycInt.integer(self.spec, other)
        if not isinstance(other, CycInt):
            raise TypeError(f"cannot combine CycInt with {type(other).__name__}")
        if other.spec.n != self.spec.n:
            raise ValueError("mismatched conductors")
        return other

    def __add__(self, other):
        o = self._other(other)
        return CycInt(self.spec, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        return CycInt(self.spec, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return CycInt(self.spec, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.spec, [other * a for a in self.coeffs])
        o = self._other(other)
        spec, n = self.spec, self.spec.n
        # each product coefficient sums at most phi terms, and folding mod n
        # adds two of them, so this keeps the convolution inside int64
        bound = max(map(abs, self.coeffs)) * max(map(abs, o.coeffs)) * spec.phi
        if bound >= 1 << 62:
            raise OverflowError(f"coefficient products up to {bound} overflow int64")
        prod = np.convolve(self.coeffs, o.coeffs).tolist()  # exponents 0 .. 2*phi - 2
        hist = prod[:n] + [0] * (n - len(prod))
        for k, c in enumerate(prod[n:]):  # zeta^(n+k) = zeta^k
            hist[k] += c
        return CycInt.from_histogram(spec, hist)

    __rmul__ = __mul__

    def conj(self) -> "CycInt":
        n = self.spec.n
        hist = [0] * n
        for k, c in enumerate(self.coeffs):
            hist[(-k) % n] += c
        return CycInt.from_histogram(self.spec, hist)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational and self.coeffs[0] == other
        return (isinstance(other, CycInt)
                and other.spec.n == self.spec.n and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.spec.n, self.coeffs))

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    @property
    def as_int(self) -> int:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def __repr__(self):
        return f"CycInt(n={self.spec.n}, {list(self.coeffs)})"


def embed(a: CycInt) -> complex:
    """Evaluate at exp(2*pi*i/n) in double precision.

    Rounding error is at most about phi(n) * max|coeff| * 2**-50.
    """
    roots = a.spec.roots
    return sum(c * roots[k % a.spec.n] for k, c in enumerate(a.coeffs) if c)


def embed_rows(spec: CycSpec, coeffs: np.ndarray) -> np.ndarray:
    """Bit for bit ``embed(CycInt(spec, row)).real`` of each row: summed left to right."""
    return np.cumsum(coeffs * np.real(spec.roots[:spec.phi]), axis=-1)[..., -1]


@lru_cache(maxsize=64)
def _cells(lo: int, hi: int) -> np.ndarray:
    """Cells "[", "v, " and "v]\\n" (v = lo .. hi), NUL-padded to a width numpy gathers fast."""
    d, k = max(len(str(lo)), len(str(hi))), hi - lo + 1
    cells = np.zeros((2 * k + 1, 1 << (d + 1).bit_length()), np.uint8)
    cells[1:, :d] = np.tile(np.arange(lo, hi + 1).astype(f"S{d}").view(np.uint8), 2).reshape(-1, d)
    cells[:, d:d + 2] = np.frombuffer(b"[\0" + b", " * k + b"]\n" * k, np.uint8).reshape(-1, 2)
    return cells.view(f"V{cells.shape[1]}").ravel()


def format_rows(rows: np.ndarray) -> list:
    """``str(list(row))`` of each integer row: each entry becomes its cell from the
    table over the rows' [min, max], and one bytes pass drops the padding.  The
    table has two cells per value in that range, so a range wider than a few
    cells per entry takes ``str`` instead."""
    if not rows.size:
        return ["[]"] * len(rows)
    lo, hi = int(rows.min()), int(rows.max())
    if hi - lo > 4 * rows.size:
        return [str(row) for row in rows.tolist()]
    idx = np.zeros((len(rows), rows.shape[1] + 1), np.intp)  # column 0: "["
    np.subtract(rows, lo - 1, out=idx[:, 1:])
    idx[:, -1] += hi - lo + 1  # the last column's cells end the row
    return _cells(lo, hi).take(idx).tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def trace_histogram(f, spec: ff.FieldSpec) -> np.ndarray:
    """|{a in GF(q) : trace(f(a)) = s}| for s < p; ``f``: coefficients, constant first."""
    coeffs = [int(c) for c in f]
    n = spec.q - 1
    j = np.arange(n)  # a = g**j runs over the nonzero elements
    tr = np.full(spec.q, spec.tr(coeffs[0]) if coeffs else 0)  # tr[0]: a = 0
    for k, c in enumerate(coeffs[1:], start=1):
        if c:
            # c * a**k = g**(log c + k*j); the trace is additive over the terms
            tr[1:] += spec.tr(spec.exp[spec.log[c] + k * j % n])
    return np.bincount(tr % spec.p, minlength=spec.p)


def exp_sum_field(f, spec: ff.FieldSpec) -> CycInt:
    """sum over a in GF(q) of zeta_p^trace(f(a)), exact in Z[zeta_p]."""
    return CycInt.from_histogram(cyc_spec(spec.p), trace_histogram(f, spec).tolist())


def exp_sum_gr(c: int, spec: gr9.GR9Spec) -> CycInt:
    """sum over x in the Teichmueller set T of zeta_9^Tr(x^3 + 3*T(c)*x),
    exact in Z[zeta_9]; ``c`` is a field index.

    For x in T, x^3 is the Frobenius image of x, so Tr(x^3) = Tr(x); and
    3y mod 9 depends only on y mod 3, so Tr(3*T(c)*x) = 3*tr(c*(x mod 3)).
    """
    field = spec.field
    tr = spec.teich_trace + 3 * field.tr(field.mul(c, np.arange(spec.q)))
    hist = np.bincount(tr % 9, minlength=9)
    return CycInt.from_histogram(cyc_spec(9), hist.tolist())


def weil_check(spec: CycSpec, rows: np.ndarray, q: int) -> np.ndarray:
    """2*sqrt(q) - |eps| of each coefficient row eps: Weil's bound for a cubic f
    holds where the margin is >= 0, up to float error.  eps is summed left to
    right, as ``embed`` sums, so each |eps| is ``abs(embed(CycInt(spec, row)))``."""
    roots, size = np.array(spec.roots[:spec.phi]), np.empty(len(rows))
    for lo in range(0, len(rows), 64):  # the complex temporaries stay 64 rows small
        size[lo:lo + 64] = np.abs(np.cumsum(rows[lo:lo + 64] * roots, axis=-1)[:, -1])
    return 2 * float(q) ** 0.5 - size
