"""Arithmetic in the finite fields GF(p^e).

A field is described by a :class:`FieldSpec` holding the characteristic p,
the extension degree e, and a fixed monic irreducible modulus of degree e
over F_p.  Elements are residues of degree < e, and an element is nothing
but the index ``sum(c_i * p**i)`` of its coefficient vector
``(c_0, ..., c_{e-1})`` (``index_coeffs`` gives the vector back): 0 is zero,
1 is one, and there is no element object.  Index order is the canonical
element order used everywhere (vertex labels, the "smallest" primitive
element, array layouts).

The modulus is chosen deterministically: the lexicographically smallest
monic irreducible polynomial of degree e, comparing coefficient tuples
constant term first.  This keeps every derived object reproducible.

Every field, up to ``DEFAULT_MAX_Q``, has one representation of O(q) size:

  * ``exp[k] = g**k`` and ``log[a]`` for the smallest primitive element g.
    ``log[0]`` is a sentinel and ``exp`` is zero-padded past 2(q-1), so
    ``mul(a, b) = exp[log[a] + log[b]]`` needs no masking of zero;
  * the trace vector ``trace[a] = tr(a)``;
  * addition and subtraction digit by digit on the base-p indices (XOR
    for p = 2).

The operations ``add, sub, neg, mul, inv, pow, tr`` work elementwise on an
integer ndarray of indices or on a single Python int, which gives a Python
int back, so one formula written with them serves a scalar and a whole
coordinate array alike.

The arrays come from one matrix arithmetic, which :mod:`luspec.gr9` shares:
``_x_powers`` gives the e x e matrices of X^0, ..., X^(e-1) in (Z/m)[X]/(f),
and ``_matpow`` raises a matrix to a power mod m.  The modulus search runs
Rabin's irreducibility test on them; g is the smallest index whose matrix
sum_j a_j X^j has no power (q-1)/r equal to the identity, r a prime factor of
q - 1; tr(X^j) is the trace of X^j's matrix; and exp is built by block
doubling with the matrix of g^m.

The root-count profiles that ``verify`` checks the arithmetic with are plain
``{roots: count}`` dicts over every nonzero a*lead(t) + b*t + c, compared
with their closed forms by ``==``.  For a != 0 the polynomial has the roots
of the monic lead + (b/a)*t + c/a, and (b, c) -> (b/a, c/a) is a bijection
of F^2, so two q x q value histograms give the profile: a = 1, counted
q - 1 times, and a = 0.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

DEFAULT_MAX_Q = 1 << 20


class SizeBudgetError(ValueError):
    """Raised when a construction exceeds its size bound."""


def _check_size(q: int) -> None:
    if q > DEFAULT_MAX_Q:
        raise SizeBudgetError(f"q={q} exceeds the size bound {DEFAULT_MAX_Q}")


def is_prime(n: int) -> bool:
    return n >= 2 and _factorize(n) == {n: 1}


def _factorize(n: int) -> dict[int, int]:
    """Trial-division factorization, {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _prime_power(q: int):
    """Return (p, e) with q = p**e, or None if q is not a prime power."""
    if q < 2:
        return None
    f = _factorize(q)
    if len(f) != 1:
        return None
    [(p, e)] = f.items()
    return p, e


# ----------------------------------------------------------------------
# the ring (Z/m)[X]/(f) through e x e matrices of multiplication

def _x_powers(modulus, m: int) -> np.ndarray:
    """The matrices of the basis X^0, ..., X^(e-1) of (Z/m)[X]/(f), f =
    ``modulus`` (monic, constant term first) of degree e: column j of an
    element's matrix holds the coefficients of the element times X^j."""
    e = len(modulus) - 1
    comp = np.eye(e, k=-1, dtype=np.int64)  # multiplication by X
    comp[:, -1] = np.negative(modulus[:e]) % m
    powers = [np.eye(e, dtype=np.int64)]
    for _ in range(e - 1):
        powers.append(comp @ powers[-1] % m)
    return np.array(powers)


def _matpow(mat: np.ndarray, k: int, m: int) -> np.ndarray:
    """mat**k mod m."""
    out = np.eye(len(mat), dtype=np.int64)
    while k:
        if k & 1:
            out = out @ mat % m
        mat = mat @ mat % m
        k >>= 1
    return out


def _is_irreducible(modulus, p: int) -> bool:
    """Rabin's test for a monic polynomial f of degree e over F_p.

    f is irreducible iff X^(p^e) = X mod f and, for every prime r | e,
    h = X^(p^(e/r)) - X is a unit mod f.  Once X^(p^e) = X holds, f is
    squarefree with factors of degrees dividing e, so h is a unit iff
    h^(p^e - 1) = 1.
    """
    e = len(modulus) - 1
    if e == 1:
        return True
    x = _x_powers(modulus, p)[1]
    if not np.array_equal(_matpow(x, p ** e, p), x):
        return False
    eye = np.eye(e, dtype=np.int64)
    return all(np.array_equal(_matpow((_matpow(x, p ** (e // r), p) - x) % p,
                                      p ** e - 1, p), eye)
               for r in _factorize(e))


def _smallest_irreducible(p: int, e: int):
    """Lexicographically smallest monic irreducible of degree e over F_p
    (low-degree coefficients compared first)."""
    # for e >= 2 a zero constant term means the factor x: skip those candidates
    constant = range(1, p) if e > 1 else range(p)
    for low in itertools.product(constant, *[range(p)] * (e - 1)):
        cand = low + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {e} over F_{p}")


# ----------------------------------------------------------------------

def _out(x):
    """An operation's result: the array itself, or a Python int for a scalar."""
    return x if isinstance(x, np.ndarray) else int(x)


class FieldSpec:
    """GF(p^e) with a fixed defining polynomial; immutable and shareable."""

    __slots__ = ("p", "e", "q", "modulus", "exp", "log", "trace", "_weights")

    def __init__(self, p: int, e: int):
        if e < 1:
            raise ValueError(f"e={e} must be >= 1")
        q = p ** e
        _check_size(q)  # before is_prime(p), which trial-divides
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        self.p, self.e, self.q = p, e, q
        self.modulus = _smallest_irreducible(p, e)
        self._weights = [p ** j for j in range(e)]
        self._build()

    # -- index <-> coefficient vector

    def index_coeffs(self, i: int):
        p = self.p
        out = []
        for _ in range(self.e):
            i, r = divmod(i, p)
            out.append(r)
        return tuple(out)

    # -- construction

    def _build(self):
        p, e, q = self.p, self.e, self.q
        n = q - 1
        basis = _x_powers(self.modulus, p)
        # the trace is F_p-linear, and tr(X^j) is the trace of X^j's matrix:
        # accumulate it digit by digit
        idx = np.arange(q, dtype=np.int64)
        trace = np.zeros(q, dtype=np.int64)
        for w, t in zip(self._weights, np.trace(basis, axis1=1, axis2=2) % p):
            trace += idx // w % p * t
        self.trace = trace % p

        # block doubling: g^(m+i) = g^m * g^i, so one matrix product maps the
        # first m powers onto the next m
        mat = np.tensordot(self.index_coeffs(self._find_generator()), basis, 1) % p
        exp = np.ones(1, dtype=np.int64)
        while exp.size < n:
            exp = np.concatenate([exp, self._apply(mat, exp[:n - exp.size])])
            mat = mat @ mat % p
        hits = np.bincount(exp, minlength=q)
        if hits[0] or np.any(hits[1:] != 1):
            raise RuntimeError("powers of the generator must hit every "
                               "nonzero element exactly once")
        self.log = np.full(q, 2 * n, dtype=np.int64)
        self.log[exp] = np.arange(n)
        self.exp = np.concatenate([exp, exp, np.zeros(2 * n + 1, dtype=np.int64)])

    def _apply(self, mat: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Indices of mat applied to the coefficient vectors of the indices x.

        The map is linear, so it is tabulated separately on the low e//2
        and the high e - e//2 base-p digits, and the two images are added.
        A prime field has one digit and no table: mat is a scalar.
        """
        p, w = self.p, np.array(self._weights, dtype=np.int64)
        if self.e == 1:
            return x * mat[0, 0] % p
        split = p ** (self.e // 2)

        def image(v):
            digits = np.stack([v // wj % p for wj in self._weights], axis=1)
            return digits @ mat.T % p @ w

        low = image(np.arange(split, dtype=np.int64))
        high = image(np.arange(self.q // split, dtype=np.int64) * split)
        return self.add(low[x % split], high[x // split])

    def _find_generator(self) -> int:
        """The smallest index of multiplicative order q - 1: no power
        (q-1)/r of its matrix, r a prime factor of q - 1, is the identity."""
        p, n = self.p, self.q - 1
        basis = _x_powers(self.modulus, p)
        eye = np.eye(self.e, dtype=np.int64)
        cofactors = [n // r for r in _factorize(n)]
        for i in range(1, self.q):
            mat = np.tensordot(self.index_coeffs(i), basis, 1) % p
            if not any(np.array_equal(_matpow(mat, k, p), eye) for k in cofactors):
                return i
        raise RuntimeError("no generator found")  # pragma: no cover

    # -- operations on element indices (a Python int or an integer ndarray)

    def add(self, a, b):
        return self._digitwise(operator.add, a, b)

    def sub(self, a, b):
        return self._digitwise(operator.sub, a, b)

    def neg(self, a):
        return self.sub(0, a)

    def _digitwise(self, op, a, b):
        """op (+ or -) applied digit by digit to base-p indices, mod p."""
        p = self.p
        if p == 2:
            return _out(a ^ b)
        if self.e == 1:
            return _out(op(a, b) % p)
        s = 0
        for w in self._weights:
            # a // w and b // w agree with their digits at w modulo p
            s = s + op(a // w, b // w) % p * w
        return _out(s)

    def mul(self, a, b):
        return _out(self.exp[self.log[a] + self.log[b]])

    def inv(self, a):
        if not np.all(a != 0):
            raise ZeroDivisionError("division by zero in GF(q)")
        return _out(self.exp[-self.log[a] % (self.q - 1)])

    def pow(self, a, k: int):
        """a**k with 0**0 = 1."""
        nonzero = a != 0
        if k < 0 and not np.all(nonzero):
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        n = self.q - 1
        r = self.exp[self.log[a] * (k % n) % n]
        return _out(r * nonzero if k > 0 else r)

    def tr(self, a):
        """Absolute trace GF(p^e) -> F_p, as integers in [0, p)."""
        return _out(self.trace[a])

    def __repr__(self):
        return f"FieldSpec(GF({self.q}) = GF({self.p}^{self.e}), modulus={self.modulus})"


_SPEC_CACHE: dict[tuple[int, int], FieldSpec] = {}


def ff_make(p: int, e: int) -> FieldSpec:
    """Deterministic field constructor; instances are cached per (p, e)."""
    key = (p, e)
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, e)
        _SPEC_CACHE[key] = spec
    return spec


def field_for(q: int) -> FieldSpec:
    """Field of order q; rejects non prime powers."""
    _check_size(q)  # before _prime_power(q), which trial-divides
    pe = _prime_power(q)
    if pe is None:
        raise ValueError(f"q={q} is not a prime power; the graphs are defined "
                         "over the finite field GF(q)")
    return ff_make(*pe)


def _root_profile(spec: FieldSpec, t: np.ndarray, lead: np.ndarray) -> dict:
    """{roots: count} over the points t of every nonzero a*lead(t) + b*t + c."""
    q = spec.q
    step = max(1, (1 << 16) // q)  # rows b per block, so no q x q array is held
    tally = np.zeros(t.size + 1, dtype=np.int64)
    # a = 1 stands for every a != 0 (see the module doc).  a*lead + b*t + c has as
    # many roots as a*lead + b*t takes the value -c; -c runs over F with c, so row
    # b of the value histogram (taken over a block of rows b at once) holds the
    # root counts of all the constants c
    for lo in range(0, q, step):
        b = np.arange(lo, min(q, lo + step))[:, None]
        bt, offset = spec.mul(b, t), q * (b - lo)
        for values, weight in (spec.add(lead, bt), q - 1), (bt, 1):
            hist = np.bincount((offset + values).ravel(), minlength=b.size * q)
            tally += weight * np.bincount(hist, minlength=t.size + 1)
    tally[t.size] -= 1  # the zero polynomial vanishes everywhere
    return {k: int(m) for k, m in enumerate(tally) if m}


def quadratic_root_profile(spec: FieldSpec) -> dict:
    """Root-count profile of all nonzero a2*t^2 + a1*t + a0 over GF(q)."""
    t = np.arange(spec.q)
    return _root_profile(spec, t, spec.mul(t, t))


def cubic_root_profile_even(spec: FieldSpec) -> dict:
    """Nonzero-root profile of all nonzero a3*t^3 + a1*t + a0, q even."""
    if spec.q % 2:
        raise ValueError("even-characteristic profile requested for odd q")
    t = np.arange(1, spec.q)  # nonzero roots only
    return _root_profile(spec, t, spec.pow(t, 3))


def quadratic_profile_expected(q: int) -> dict:
    """Closed-form quadratic profile {k: n_k}."""
    return {0: (q - 1) * (q * q - q + 2) // 2,
            1: 2 * q * (q - 1),
            2: q * (q - 1) ** 2 // 2}


def cubic_even_profile_expected(q: int) -> dict:
    """Closed-form even-q cubic nonzero-root profile {k: n_k}, n_k > 0."""
    counts = {0: (q - 1) * (q * q + 8) // 3,
              1: (q - 1) ** 2 * (q + 4) // 2,
              3: (q - 1) ** 2 * (q - 2) // 6}
    return {k: n for k, n in counts.items() if n}  # q = 2: no cubic has 3 roots
