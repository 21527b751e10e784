"""Arithmetic in the finite fields GF(p^e).

A field is described by a :class:`FieldSpec` holding the characteristic p,
the extension degree e, and a fixed monic irreducible modulus of degree e
over F_p.  Elements are residues of degree < e, stored by the index
``sum(c_i * p**i)`` of their coefficient vector ``(c_0, ..., c_{e-1})``;
index order is the canonical element order used everywhere (vertex labels,
the "smallest" primitive element, array layouts).

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
int back.  The polynomial helpers below build the arrays and serve as the
reference the tests compare them against.

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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
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


def prime_power(q: int):
    """Return (p, e) with q = p**e, or None if q is not a prime power."""
    if q < 2:
        return None
    f = factorize(q)
    if len(f) != 1:
        return None
    [(p, e)] = f.items()
    return p, e


# ----------------------------------------------------------------------
# dense polynomial arithmetic over F_p (tuples, constant term first)

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _pmulmod(a, b, modulus, p):
    """a*b mod (modulus, p); modulus monic, full coefficient tuple."""
    if not a or not b:
        return ()
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] = (c[i + j] + ai * bj) % p
    e = len(modulus) - 1
    for k in range(len(c) - 1, e - 1, -1):
        ck = c[k]
        if ck:
            c[k] = 0
            for j in range(e):
                c[k - e + j] = (c[k - e + j] - ck * modulus[j]) % p
    return _ptrim(c)


def _ppow(a, n, modulus, p):
    result = (1,)
    base = a
    while n > 0:
        if n & 1:
            result = _pmulmod(result, base, modulus, p)
        base = _pmulmod(base, base, modulus, p)
        n >>= 1
    return result


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        r = list(a)
        db, da = len(b) - 1, len(r) - 1
        while da >= db and any(r):
            lead = r[da]
            if lead:
                f = (lead * inv_lead) % p
                for j in range(db + 1):
                    r[da - db + j] = (r[da - db + j] - f * b[j]) % p
            da -= 1
        a, b = b, _ptrim(r)
    return a


def is_irreducible(modulus, p: int) -> bool:
    """Monic polynomial irreducibility over F_p.

    Uses the standard criterion: x^(p^e) == x mod f, and for every prime
    r | e the polynomial x^(p^(e/r)) - x is coprime to f.
    """
    e = len(modulus) - 1
    if e == 1:
        return True
    x = (0, 1)
    t = x
    for _ in range(e):
        t = _ppow(t, p, modulus, p)
    if t != x:
        return False
    for r in factorize(e):
        t = x
        for _ in range(e // r):
            t = _ppow(t, p, modulus, p)
        diff = list(t) + [0] * max(0, 2 - len(t))
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(_ptrim(diff), modulus, p)
        if len(g) > 1:
            return False
    return True


def smallest_irreducible(p: int, e: int):
    """Lexicographically smallest monic irreducible of degree e over F_p
    (low-degree coefficients compared first)."""
    # for e >= 2 a zero constant term means the factor x: skip those candidates
    constant = range(1, p) if e > 1 else range(p)
    for low in itertools.product(constant, *[range(p)] * (e - 1)):
        cand = low + (1,)
        if is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {e} over F_{p}")


# ----------------------------------------------------------------------

def _out(x):
    """An operation's result: the array itself, or a Python int for a scalar."""
    return x if isinstance(x, np.ndarray) else int(x)


class FieldElem:
    """Immutable element of GF(p^e), identified by its index in the spec."""

    __slots__ = ("spec", "i")

    def __init__(self, spec: "FieldSpec", i: int):
        self.spec = spec
        self.i = i

    @property
    def coeffs(self):
        return self.spec.index_coeffs(self.i)

    def _other(self, other):
        if not isinstance(other, FieldElem):
            raise TypeError(f"cannot combine FieldElem with {type(other).__name__}")
        if other.spec.key != self.spec.key:
            raise ValueError("mismatched field specs")
        return other

    def __add__(self, other):
        o = self._other(other)
        return FieldElem(self.spec, self.spec.add(self.i, o.i))

    def __sub__(self, other):
        o = self._other(other)
        return FieldElem(self.spec, self.spec.sub(self.i, o.i))

    def __neg__(self):
        return FieldElem(self.spec, self.spec.neg(self.i))

    def __mul__(self, other):
        o = self._other(other)
        return FieldElem(self.spec, self.spec.mul(self.i, o.i))

    def __truediv__(self, other):
        o = self._other(other)
        return FieldElem(self.spec, self.spec.mul(self.i, self.spec.inv(o.i)))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return FieldElem(self.spec, self.spec.pow(self.i, n))

    def __eq__(self, other):
        return (isinstance(other, FieldElem)
                and other.spec.key == self.spec.key and other.i == self.i)

    def __hash__(self):
        return hash((self.spec.key, self.i))

    def __bool__(self):
        return self.i != 0

    def __repr__(self):
        return f"F{self.spec.q}({self.i})"


class FieldSpec:
    """GF(p^e) with a fixed defining polynomial; immutable and shareable."""

    __slots__ = ("p", "e", "q", "modulus", "key", "exp", "log", "trace",
                 "_weights")

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if e < 1:
            raise ValueError(f"e={e} must be >= 1")
        q = p ** e
        if q > DEFAULT_MAX_Q:
            raise SizeBudgetError(f"q={q} exceeds the size bound {DEFAULT_MAX_Q}")
        self.p, self.e, self.q = p, e, q
        self.modulus = smallest_irreducible(p, e)
        self.key = (p, e, self.modulus)
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

    def coeffs_index(self, coeffs) -> int:
        p = self.p
        i = 0
        for c in reversed(list(coeffs)):
            i = i * p + (c % p)
        return i

    def element(self, x) -> FieldElem:
        if isinstance(x, FieldElem):
            if x.spec.key != self.key:
                raise ValueError("mismatched field specs")
            return x
        if isinstance(x, (int, np.integer)):
            if self.e == 1:
                return FieldElem(self, int(x) % self.p)
            if 0 <= x < self.q:
                return FieldElem(self, int(x))
            raise ValueError(f"index {x} out of range for GF({self.q}); "
                             "pass a coefficient sequence instead")
        return FieldElem(self, self.coeffs_index(x))

    @property
    def zero(self) -> FieldElem:
        return FieldElem(self, 0)

    @property
    def one(self) -> FieldElem:
        return FieldElem(self, 1)

    def elements(self):
        return (FieldElem(self, i) for i in range(self.q))

    # -- construction

    def _build(self):
        p, e, q = self.p, self.e, self.q
        n = q - 1
        # the trace is F_p-linear: accumulate it digit by digit
        idx = np.arange(q, dtype=np.int64)
        trace = np.zeros(q, dtype=np.int64)
        for j, w in enumerate(self._weights):
            trace += idx // w % p * self._basis_trace(j)
        self.trace = trace % p

        # block doubling: g^(m+i) = g^m * g^i, so one matrix product maps the
        # first m powers onto the next m
        mat = self._mul_matrix(self._find_generator())
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

    def _mul_matrix(self, g: int) -> np.ndarray:
        """The e x e matrix over F_p of multiplication by g."""
        gpoly = _ptrim(self.index_coeffs(g))
        cols = [_pmulmod((0,) * j + (1,), gpoly, self.modulus, self.p)
                for j in range(self.e)]
        return np.array([c + (0,) * (self.e - len(c)) for c in cols],
                        dtype=np.int64).T

    def _apply(self, mat: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Indices of mat applied to the coefficient vectors of the indices x.

        The map is linear, so it is tabulated separately on the low e//2
        and the high e - e//2 base-p digits, and the two images are added.
        """
        p, w = self.p, np.array(self._weights, dtype=np.int64)
        split = p ** (self.e // 2)

        def image(v):
            digits = np.stack([v // wj % p for wj in self._weights], axis=1)
            return digits @ mat.T % p @ w

        low = image(np.arange(split, dtype=np.int64))
        high = image(np.arange(self.q // split, dtype=np.int64) * split)
        return self.add(low[x % split], high[x // split])

    def _basis_trace(self, j: int) -> int:
        base = _ptrim((0,) * j + (1,))
        t = base
        acc = list(base) + [0] * self.e
        for _ in range(self.e - 1):
            t = _ppow(t, self.p, self.modulus, self.p)
            for k, c in enumerate(t):
                acc[k] = (acc[k] + c) % self.p
        if any(acc[1:self.e]):
            raise RuntimeError("trace of a basis element must be scalar")
        return acc[0]

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        order_facts = list(factorize(self.q - 1))
        for i in range(1, self.q):
            a = _ptrim(self.index_coeffs(i))
            if all(_ppow(a, (self.q - 1) // r, self.modulus, self.p) != (1,)
                   for r in order_facts):
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

    def eval_poly(self, coeffs, a):
        """Horner evaluation of a polynomial given by element indices."""
        acc = 0
        for c in reversed(list(coeffs)):
            acc = self.add(self.mul(acc, a), c)
        return acc

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
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"q={q} is not a prime power; the graphs are defined "
                         "over the finite field GF(q)")
    return ff_make(*pe)


def trace(a: FieldElem) -> int:
    """Absolute trace GF(p^e) -> F_p, as an integer in [0, p)."""
    return a.spec.tr(a.i)


def _root_profile(spec: FieldSpec, t: np.ndarray, lead: np.ndarray) -> dict:
    """{roots: count} over the points t of every nonzero a*lead(t) + b*t + c."""
    q = spec.q
    b = np.arange(q)[:, None]
    bt, offset = spec.mul(b, t), q * b
    tally = np.zeros(t.size + 1, dtype=np.int64)
    # a = 1 stands for every a != 0 (see the module doc).  a*lead + b*t + c has as
    # many roots as a*lead + b*t takes the value -c; -c runs over F with c, so row
    # b of the value histogram (taken over every b at once) holds the root counts
    # of all the constants c
    for a, weight in (1, q - 1), (0, 1):
        hist = np.bincount((offset + spec.add(spec.mul(a, lead), bt)).ravel(), minlength=q * q)
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
