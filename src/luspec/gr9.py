"""The Galois ring GR(9, e): characteristic 9, residue field GF(3^e).

Elements are residues over Z/9Z modulo a monic degree-e polynomial whose
reduction mod 3 is the defining polynomial of the companion field GF(3^e)
from :mod:`luspec.ff`.  The ring carries the Teichmueller set T = {0} u <beta>
(beta of multiplicative order q - 1, q = 3^e), the unique 3-adic expansion
x = x0 + 3*x1 with x0, x1 in T, and the trace into Z/9Z built from the
Frobenius x -> x^3 on Teichmueller digits.

beta is obtained by one Teichmueller step: lift any generator w of GF(q)^* to
a unit b of the ring, then beta = b^q.  Since the unit group has order
q*(q - 1), beta^q = beta and beta^(q-1) = 1 hold exactly; both are asserted.
"""

from __future__ import annotations

from . import ff

DEFAULT_MAX_Q = 1 << 10


class GR9Spec:
    """GR(9, e) with Teichmueller set and 3-adic expansion table."""

    __slots__ = ("e", "q", "modulus", "field", "beta", "teich",
                 "_expand", "key")

    def __init__(self, e: int, max_q: int = DEFAULT_MAX_Q):
        if e < 1:
            raise ValueError("e must be >= 1")
        q = 3 ** e
        if q > max_q:
            raise ff.SizeBudgetError(f"q={q} exceeds the size bound {max_q}")
        self.e, self.q = e, q
        self.field = ff.ff_make(3, e)
        self.modulus = tuple(self.field.modulus)  # coefficientwise lift to Z/9
        self.key = (9, e, self.modulus)

        omega = ff.primitive_element(self.field)
        b = RingElem(self, tuple(omega.coeffs))
        beta = b ** q
        assert beta ** q == beta, "Teichmueller fixed point failed"
        assert beta ** (q - 1) == self.one
        self.beta = beta

        teich = [self.zero, self.one]
        t = self.one
        for _ in range(q - 2):
            t = t * beta
            teich.append(t)
        assert len({x.coeffs for x in teich}) == q, "Teichmueller set too small"
        for x in teich:
            assert x ** q == x, "x^q = x fails on the Teichmueller set"
        self.teich = tuple(teich)

        assert len({self.residue(x).i for x in self.teich}) == q, \
            "Teichmueller set must map onto the residue field"

        # unique 3-adic expansion, tabulated over T x T
        self._expand = {}
        for x0 in self.teich:
            for x1 in self.teich:
                val = x0 + x1 * self.element(3)
                self._expand[val.coeffs] = (x0, x1)
        assert len(self._expand) == q * q, "3-adic expansion is not a bijection"

    @property
    def zero(self) -> "RingElem":
        return RingElem(self, (0,) * self.e)

    @property
    def one(self) -> "RingElem":
        return RingElem(self, (1,) + (0,) * (self.e - 1))

    def element(self, x) -> "RingElem":
        if isinstance(x, RingElem):
            if x.spec.key != self.key:
                raise ValueError("mismatched ring specs")
            return x
        if isinstance(x, int):
            return RingElem(self, (x % 9,) + (0,) * (self.e - 1))
        coeffs = tuple(int(c) % 9 for c in x)
        if len(coeffs) != self.e:
            raise ValueError(f"expected {self.e} coefficients")
        return RingElem(self, coeffs)

    def elements(self):
        for i in range(9 ** self.e):
            out = []
            for _ in range(self.e):
                i, r = divmod(i, 9)
                out.append(r)
            yield RingElem(self, tuple(out))

    def residue(self, x: "RingElem") -> ff.FieldElem:
        """Reduction mod 3R, as an element of the companion field GF(3^e)."""
        return self.field.element(tuple(c % 3 for c in x.coeffs))

    def __repr__(self):
        return f"GR9Spec(GR(9,{self.e}), q={self.q}, modulus={self.modulus})"


class RingElem:
    """Immutable element of GR(9, e) as a length-e vector over Z/9Z."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: GR9Spec, coeffs):
        self.spec = spec
        self.coeffs = tuple(int(c) % 9 for c in coeffs)

    @property
    def index(self) -> int:
        i = 0
        for c in reversed(self.coeffs):
            i = i * 9 + c
        return i

    def _other(self, other):
        if not isinstance(other, RingElem):
            raise TypeError(f"cannot combine RingElem with {type(other).__name__}")
        if other.spec.key != self.spec.key:
            raise ValueError("mismatched ring specs")
        return other

    def __add__(self, other):
        o = self._other(other)
        return RingElem(self.spec, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def __sub__(self, other):
        o = self._other(other)
        return RingElem(self.spec, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return RingElem(self.spec, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._other(other)
        e = self.spec.e
        c = [0] * (2 * e - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(o.coeffs):
                    c[i + j] = (c[i + j] + ai * bj) % 9
        m = self.spec.modulus
        for k in range(len(c) - 1, e - 1, -1):
            ck = c[k]
            if ck:
                c[k] = 0
                for j in range(e):
                    c[k - e + j] = (c[k - e + j] - ck * m[j]) % 9
        return RingElem(self.spec, c[:e])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in GR(9,e)")
        result = self.spec.one
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, RingElem)
                and other.spec.key == self.spec.key and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.spec.key, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def is_constant(self) -> bool:
        return not any(self.coeffs[1:])

    def __repr__(self):
        return f"GR9({self.coeffs})"


_SPEC_CACHE: dict[int, GR9Spec] = {}


def gr9_make(e: int, max_q: int = DEFAULT_MAX_Q) -> GR9Spec:
    """Cached GR(9, e) constructor."""
    if e >= 1 and 3 ** e > max_q:
        raise ff.SizeBudgetError(f"q={3**e} exceeds the size bound {max_q}")
    spec = _SPEC_CACHE.get(e)
    if spec is None:
        spec = GR9Spec(e, max_q=max_q)
        _SPEC_CACHE[e] = spec
    return spec


def three_adic(x: RingElem):
    """The unique pair (x0, x1) in T x T with x = x0 + 3*x1."""
    return x.spec._expand[x.coeffs]


def frobenius(x: RingElem) -> RingElem:
    """The ring automorphism cubing both Teichmueller digits.

    Acts as a -> a^3 on the residue field; plain cubing in R is not a ring
    map in characteristic 9.
    """
    x0, x1 = three_adic(x)
    return x0 * x0 * x0 + (x1 * x1 * x1) * x.spec.element(3)


def gr_trace(x: RingElem) -> int:
    """Trace GR(9,e) -> Z/9Z via the 3-adic expansion and Frobenius cubing.

    Reducing domain and range mod 3 recovers the absolute field trace.
    """
    spec = x.spec
    x0, x1 = three_adic(x)
    s0, s1 = x0, x1
    t0, t1 = x0, x1
    for _ in range(spec.e - 1):
        t0 = t0 * t0 * t0
        t1 = t1 * t1 * t1
        s0 = s0 + t0
        s1 = s1 + t1
    total = s0 + s1 * spec.element(3)
    assert total.is_constant(), "trace must land in Z/9Z"
    return total.coeffs[0]
