"""Closed-form spectra of Gamma(4,q) and D(4,q) as exact multisets.

The characteristic polynomial of the collinearity graph Gamma(4,q) is
assembled from integer eigenvalues plus "error" classes of the form
eps^2 - q, where eps is an exact cyclotomic exponential sum:

  q even:      values {q(q-1), 3q, q, 0, -q} with polynomial exponents in q;
  q odd, p>=5: classes eps_f with f(t) = a*t^3 + c*t over GF(q);
  q = 3^e:     classes eps_f with f(t) = t^3 + 3*c*t over GR(9,e).

Two exponent choices deserve a remark, because near-miss variants exist
that conservation laws and the numeric oracle rule out:

  * even q: the multiplicity of 0 is q(q-1)(q^2+8)/3 and that of -q is
    3q(q-1)^2(q+2)/8 + (q-1); moving the trailing (q-1) from -q onto 0
    breaks trace(A) = 0 and the 16-vertex oracle at q = 2;
  * q = 2 mod 3, p >= 5: each class eps_{t^3+ct} carries exponent q(q-1)^2,
    not q(q-1) (total degree must be q^4: 385 != 625 at q = 5 otherwise).

Values are merged by exact equality of canonical cyclotomic forms, never by
float proximity.  The bipartite lift sends an eigenvalue m of Gamma to the
pair +-sqrt(q+m) of D(4,q), with -q mapping to 0 at doubled multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ff, gr9
from .cyclo import CycInt, embed, exp_sum_field, exp_sum_gr


class ExactValue:
    """Exact spectral value: integer, eps^2 - q, signed |eps|, or +-sqrt(m).

    Instances are normalized at construction (rational cyclotomics collapse
    to integers, perfect squares collapse to integers), so the merge key is
    simply the canonical payload.
    """

    __slots__ = ("kind", "ival", "eps", "q", "sign", "radicand", "key", "approx")

    def __init__(self, kind, key, approx, ival=0, eps=None, q=0, sign=1, radicand=0):
        self.kind = kind
        self.key = key
        self.approx = approx
        self.ival = ival
        self.eps = eps
        self.q = q
        self.sign = sign
        self.radicand = radicand

    @staticmethod
    def integer(n: int) -> "ExactValue":
        return ExactValue("int", ("int", n), float(n), ival=n)

    @staticmethod
    def eps_shift(eps: CycInt, q: int) -> "ExactValue":
        """The value eps^2 - q; collapses to an integer when eps^2 is rational."""
        e2 = eps * eps
        if e2.is_rational:
            return ExactValue.integer(e2.as_int - q)
        approx = embed(e2).real - q
        return ExactValue("eps2q", ("eps2q", e2.spec.n, e2.coeffs, q), approx,
                          eps=eps, q=q)

    @staticmethod
    def signed_abs_eps(eps: CycInt, sign: int) -> "ExactValue":
        """The value sign * |eps| for a real cyclotomic eps."""
        x = embed(eps).real
        canon = eps if x >= 0 else -eps
        if canon.is_rational:
            return ExactValue.integer(sign * abs(canon.as_int))
        return ExactValue("eps", ("eps", sign, canon.spec.n, canon.coeffs),
                          sign * abs(x), eps=canon, sign=sign)

    @staticmethod
    def sqrt(sign: int, radicand: int) -> "ExactValue":
        if radicand < 0:
            raise ValueError("negative radicand")
        r = math.isqrt(radicand)
        if r * r == radicand:
            return ExactValue.integer(sign * r)
        return ExactValue("sqrt", ("sqrt", sign, radicand),
                          sign * math.sqrt(radicand), sign=sign, radicand=radicand)

    def serial(self) -> str:
        if self.kind == "int":
            return str(self.ival)
        if self.kind == "eps2q":
            return (f"eps^2 - {self.q}, eps={list(self.eps.coeffs)}, "
                    f"conductor={self.eps.spec.n}")
        if self.kind == "eps":
            s = "+" if self.sign > 0 else "-"
            return (f"{s}|eps|, eps={list(self.eps.coeffs)}, "
                    f"conductor={self.eps.spec.n}")
        s = "+" if self.sign > 0 else "-"
        return f"{s}sqrt({self.radicand})"

    def __eq__(self, other):
        return isinstance(other, ExactValue) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"ExactValue({self.serial()})"


@dataclass(frozen=True, eq=False)
class SpectrumEntry:
    value: ExactValue
    multiplicity: int

    @property
    def approx(self) -> float:
        return self.value.approx


class SpectrumMultiset:
    """Eigenvalue multiset with exact values, floats and multiplicities."""

    __slots__ = ("graph", "q", "entries", "total")

    def __init__(self, graph: str, q: int, entries):
        self.graph = graph
        self.q = q
        self.entries = tuple(sorted(entries, key=lambda e: -e.approx))
        self.total = sum(e.multiplicity for e in self.entries)

    @classmethod
    def assemble(cls, graph: str, q: int, pairs, expected_total: int):
        """Merge (ExactValue, multiplicity) pairs by exact equality."""
        merged: dict = {}
        order: list = []
        for value, mult in pairs:
            if mult == 0:
                continue
            if value.key in merged:
                prev_val, prev_mult = merged[value.key]
                merged[value.key] = (prev_val, prev_mult + mult)
            else:
                merged[value.key] = (value, mult)
                order.append(value.key)
        entries = [SpectrumEntry(*merged[k]) for k in order]
        out = cls(graph, q, entries)
        if out.total != expected_total:
            raise ValueError(f"multiset totals {out.total}, expected {expected_total}")
        return out

    def expand(self) -> np.ndarray:
        """All eigenvalues as a float array in ascending order."""
        vals = np.concatenate([
            np.full(e.multiplicity, e.approx) for e in self.entries])
        vals.sort()
        return vals

    def multiplicity_of(self, value: ExactValue) -> int:
        for e in self.entries:
            if e.value == value:
                return e.multiplicity
        return 0

    @property
    def largest(self) -> SpectrumEntry:
        return self.entries[0]

    def to_json_dict(self) -> dict:
        return {"graph": self.graph, "q": self.q,
                "entries": [{"value_exact": e.value.serial(),
                             "value_float": e.approx,
                             "multiplicity": e.multiplicity}
                            for e in self.entries],
                "total": self.total}

    def __repr__(self):
        parts = ", ".join(f"{e.approx:.6g}^{e.multiplicity}" for e in self.entries)
        return f"SpectrumMultiset({self.graph}, q={self.q}: {parts})"


# ----------------------------------------------------------------------
# Gamma(4,q) spectra

def spectrum_even(spec: ff.FieldSpec) -> SpectrumMultiset:
    """Exact Gamma(4,q) spectrum for even q (corrected exponents, see module doc)."""
    q = spec.q
    if q % 2:
        raise ValueError("spectrum_even needs even q")
    pairs = [
        (ExactValue.integer(q * (q - 1)), 1),
        (ExactValue.integer(3 * q), q * (q - 1) ** 2 * (q - 2) // 24),
        (ExactValue.integer(q), q * (q - 1) ** 2 * (q + 4) // 4),
        (ExactValue.integer(0), q * (q - 1) * (q * q + 8) // 3),
        (ExactValue.integer(-q), 3 * q * (q - 1) ** 2 * (q + 2) // 8 + (q - 1)),
    ]
    return SpectrumMultiset.assemble("GAMMA4", q, pairs, expected_total=q ** 4)


@dataclass(frozen=True, eq=False)
class EpsilonOrbits:
    """The odd-q cubic family, one exponential sum per scaling orbit.

    The family's positions are (rows[i], c) for c = 0 .. q-1, row by row;
    ``orbit[i, c]`` numbers the orbit of that position.  Orbits are numbered
    in the order the family first meets them; ``sums[k]`` is orbit k's sum
    and ``mults[k]`` the multiplicity summed over its positions, each of
    which carries ``position_mult``.
    """

    rows: tuple
    orbit: np.ndarray
    sums: tuple
    mults: tuple
    position_mult: int


def epsilon_orbits(spec: ff.FieldSpec) -> EpsilonOrbits:
    """One sum per scaling orbit of the odd-q family.

    For p = 3 the family is t^3 + 3*c*t over GR(9,e), c the Teichmueller
    index; for q = 2 (mod 3) it is t^3 + c*t.  Both have one row, a = 1, and
    one orbit per c.  For q = 1 (mod 3) it is a*t^3 + c*t for a != 0, whose
    sums are constant on the orbits (a, c) -> (a*l^3, c*l): (g^k, 1) for
    k < q - 1 and (g^i, 0) for i = 0, 1, 2, with g = ``spec.exp[1]``.
    """
    q = spec.q
    if q % 2 == 0:
        raise ValueError("the cubic family exists for odd q only")
    n = q - 1
    if spec.p == 3:
        R = gr9.gr9_make(spec.e)
        # Teichmueller order 0, 1, beta, beta^2, ...: T[k] reduces to g^(k-1)
        rows, position_mult = (1,), q * (q - 1) ** 2
        raw = np.arange(q)[None, :]

        def raw_sum(k):
            return exp_sum_gr(int(spec.exp[k - 1]) if k else 0, R)
    elif q % 3 == 2:
        rows, position_mult = (1,), q * (q - 1) ** 2
        raw = np.arange(q)[None, :]

        def raw_sum(c):
            return exp_sum_field([0, c, 0, 1], spec)
    else:
        rows, position_mult = tuple(range(1, q)), q * (q - 1)
        log_a = spec.log[1:q, None].astype(np.int64)
        raw = np.empty((n, q), dtype=np.int64)
        # raw ids: k for the orbit of (g^k, 1), n + i for that of (g^i, 0);
        # (a, 0) lies on the orbit of (g^(log a mod 3), 0), and (a, c) on
        # that of (a*c^-3, 1)
        raw[:, :1] = n + log_a % 3
        raw[:, 1:] = (log_a - 3 * spec.log[None, 1:q]) % n

        def raw_sum(r):
            if r < n:
                return exp_sum_field([0, 1, 0, int(spec.exp[r])], spec)
            return exp_sum_field([0, 0, 0, int(spec.exp[r - n])], spec)
    ids, first = np.unique(raw, return_index=True)
    order = ids[np.argsort(first)]  # raw orbit ids in first-seen order
    rank = np.empty(raw.max() + 1, dtype=np.int64)
    rank[order] = np.arange(len(order))
    counts = np.bincount(raw.ravel())[order]
    return EpsilonOrbits(
        rows=rows, orbit=rank[raw],
        sums=tuple(raw_sum(int(r)) for r in order),
        mults=tuple(int(m) * position_mult for m in counts),
        position_mult=position_mult)


def epsilon_family(spec: ff.FieldSpec):
    """The (eps, multiplicity) classes carried by the odd-q spectrum.

    Yields ((a, c) label, eps, multiplicity) for each position of
    ``epsilon_orbits(spec)``; for p = 3 the label's c is the Teichmueller
    index of the GR(9,e) family t^3 + 3*c*t.  Every position of an orbit
    yields that orbit's CycInt object.
    """
    orbits = epsilon_orbits(spec)
    sums, mult = orbits.sums, orbits.position_mult
    for a, row in zip(orbits.rows, orbits.orbit):
        for c, k in enumerate(row.tolist()):
            yield (a, c), sums[k], mult


def spectrum_odd(spec: ff.FieldSpec,
                 orbits: EpsilonOrbits | None = None) -> SpectrumMultiset:
    """Exact Gamma(4,q) spectrum for odd q via exponential sums.

    Z[zeta] is an integral domain, so eps^2 = eps'^2 exactly when
    eps = +-eps': the orbit sums are merged on +-eps first, and each group,
    in first-seen family order with the eps it met first, is squared once.
    ``orbits`` is ``epsilon_orbits(spec)`` when the caller already has it.
    """
    q = spec.q
    if q % 2 == 0:
        raise ValueError("spectrum_odd needs odd q")
    pairs = [
        (ExactValue.integer(q * (q - 1)), 1),
        (ExactValue.integer(q), q * (q - 1) ** 2),
        (ExactValue.integer(0), 3 * q * (q - 1)),
        (ExactValue.integer(-q), (q - 1) * (q * q - q + 1)),
    ]
    groups: dict = {}  # max(eps, -eps) coefficients -> [first eps, multiplicity]
    if orbits is None:
        orbits = epsilon_orbits(spec)
    for eps, mult in zip(orbits.sums, orbits.mults):
        groups.setdefault(max(eps.coeffs, (-eps).coeffs), [eps, 0])[1] += mult
    pairs += [(ExactValue.eps_shift(eps, q), mult) for eps, mult in groups.values()]
    return SpectrumMultiset.assemble("GAMMA4", q, pairs, expected_total=q ** 4)


def spectrum_closed(spec: ff.FieldSpec,
                    orbits: EpsilonOrbits | None = None) -> SpectrumMultiset:
    """spectrum_even or spectrum_odd; ``orbits`` is passed on to the latter."""
    return spectrum_even(spec) if spec.q % 2 == 0 else spectrum_odd(spec, orbits)


# ----------------------------------------------------------------------
# representative cubics over prime fields

@dataclass(frozen=True)
class RepresentativeSet:
    """Canonical cubics a*t^3 + c*t whose exponential sums are pairwise distinct."""

    p: int
    members: tuple  # (a, c) element values

    def representative_of(self, a: int, c: int):
        """The unique member sharing its exponential sum with a*t^3 + c*t."""
        p = self.p
        spec = ff.ff_make(p, 1)
        a %= p
        c %= p
        if a == 0:
            raise ValueError("a must be nonzero")
        if p % 3 == 2:
            ainv3 = spec.inv(ff.cube_root(spec.element(a)).i)
            return (1, spec.mul(ainv3, c))
        if c != 0:
            return (spec.mul(a, spec.pow(c, -3)), 1)
        w = ff.primitive_element(spec).i
        for i in range(3):
            if spec.pow(spec.mul(a, spec.pow(w, -i)), (p - 1) // 3) == 1:
                return (spec.pow(w, i), 0)
        raise RuntimeError("cube coset classification failed")


def representatives(p: int) -> RepresentativeSet:
    """Canonical representative set: size p for p = 2 mod 3, p + 2 otherwise."""
    if not ff.is_prime(p) or p < 5:
        raise ValueError("representatives are defined for primes p >= 5")
    spec = ff.ff_make(p, 1)
    if p % 3 == 2:
        members = tuple((1, c) for c in range(p))
    else:
        w = ff.primitive_element(spec).i
        members = tuple((spec.pow(w, i), 0) for i in range(3)) + \
            tuple((a, 1) for a in range(1, p))
    return RepresentativeSet(p, members)


def fiber_profile(f, spec: ff.FieldSpec):
    """|f^-1(s)| for s = 0..p-1; prime fields only (where it determines eps)."""
    if spec.e != 1:
        raise ValueError("fiber profiles characterize sums over prime fields only")
    coeffs = [c.i if isinstance(c, ff.FieldElem) else int(c) % spec.p for c in f]
    values = spec.eval_poly(coeffs, np.arange(spec.p))
    return tuple(np.bincount(values, minlength=spec.p).tolist())


def scale_invariance_check(f, lam: ff.FieldElem) -> bool:
    """eps_{f(lambda t)} == eps_f exactly, for lambda != 0."""
    spec = lam.spec
    if lam.i == 0:
        raise ValueError("lambda must be nonzero")
    coeffs = [c.i if isinstance(c, ff.FieldElem) else int(c) for c in f]
    scaled = [spec.mul(c, spec.pow(lam.i, k)) for k, c in enumerate(coeffs)]
    return exp_sum_field(coeffs, spec) == exp_sum_field(scaled, spec)


def epsilon_square_coincidences(p: int):
    """Representative pairs whose sums are negatives (hence merge under eps^2)."""
    reps = representatives(p)
    spec = ff.ff_make(p, 1)
    sums = [((a, c), exp_sum_field([0, c, 0, a], spec)) for a, c in reps.members]
    out = []
    for i in range(len(sums)):
        for j in range(i + 1, len(sums)):
            if sums[i][1] == -sums[j][1]:
                out.append((sums[i][0], sums[j][0]))
    return out


# ----------------------------------------------------------------------
# bipartite lift

def lift_to_bipartite(s: SpectrumMultiset, q: int) -> SpectrumMultiset:
    """Spectrum of D(4,q) from the Gamma spectrum: m -> +-sqrt(q+m), with
    -q -> 0 at doubled multiplicity."""
    if s.total != q ** 4:
        raise ValueError(f"expected a Gamma multiset of total {q**4}, got {s.total}")
    pairs = []
    for e in s.entries:
        v, m = e.value, e.multiplicity
        if v.kind == "int":
            rad = q + v.ival
            if rad < 0:
                raise ValueError("eigenvalue below -q: corrupted input")
            if v.ival == -q:
                pairs.append((ExactValue.integer(0), 2 * m))
            else:
                pairs.append((ExactValue.sqrt(+1, rad), m))
                pairs.append((ExactValue.sqrt(-1, rad), m))
        elif v.kind == "eps2q":
            pairs.append((ExactValue.signed_abs_eps(v.eps, +1), m))
            pairs.append((ExactValue.signed_abs_eps(v.eps, -1), m))
        else:
            raise ValueError(f"cannot lift a value of kind {v.kind!r}")
    return SpectrumMultiset.assemble("D4", q, pairs, expected_total=2 * q ** 4)
