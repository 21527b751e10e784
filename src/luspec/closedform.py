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

For p >= 5, Gal(Q(zeta_p)/Q) = F_p^* acts by sigma_j(eps_{a,c}) = eps_{ja,jc}, i.e.
h'[j*s mod p] = h[s] on histograms (Washington, *Introduction to Cyclotomic Fields*,
ch. 2), so one sum and one exact square serve each Galois orbit.  RuntimeError guards
(kept under -O): every orbit met, with one (base, j); totals q, q^2; a row per base rechecked.

Values are merged by exact equality of canonical cyclotomic forms, never by
float proximity; a multiset whose total is not its degree count raises
VerificationError.  The bipartite lift sends an eigenvalue m of Gamma to the
pair +-sqrt(q+m) of D(4,q), with -q mapping to 0 at doubled multiplicity (a
value below -q raises VerificationError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cyclo, ff, gr9
from .cyclo import exp_sum_field, exp_sum_gr, trace_histogram


class VerificationError(ValueError):
    """A computed spectrum failed a check; the CLI exits 1, not 2, on it."""


class ExactValue:
    """Exact spectral value: integer, eps^2 - q, signed |eps|, or +-sqrt(m).

    Instances are normalized at construction (rational cyclotomics collapse
    to integers, perfect squares collapse to integers), so the merge key is
    simply the canonical payload.  eps is kept as its int64 coefficient ``row``
    in Z[zeta_n], n = ``cspec.n``, and the key holds the bytes of a row: eps^2's
    for eps^2 - q, |eps|'s for +-|eps|.  The coefficient ``text`` is formatted
    once; a lifted +- pair shares one row and one text.
    """

    __slots__ = ("kind", "ival", "row", "cspec", "q", "sign", "radicand", "key", "approx",
                 "text")

    def __init__(self, kind, key, approx, ival=0, row=None, cspec=None, q=0, sign=1,
                 radicand=0, text=None):
        self.kind = kind
        self.key = key
        self.approx = approx
        self.ival = ival
        self.row = row
        self.cspec = cspec
        self.q = q
        self.sign = sign
        self.radicand = radicand
        self.text = text

    @staticmethod
    def integer(n: int) -> "ExactValue":
        return ExactValue("int", ("int", n), float(n), ival=n)

    @staticmethod
    def eps2q(cspec: cyclo.CycSpec, row, sq, x: float, q: int) -> "ExactValue":
        """eps^2 - q from the int64 rows of eps and eps^2 and x = embed(eps^2).real;
        an integer when eps^2 is rational."""
        if not sq[1:].any():  # eps^2 is rational
            return ExactValue.integer(int(sq[0]) - q)
        return ExactValue("eps2q", ("eps2q", cspec.n, sq.tobytes(), q), x - q,
                          row=row, cspec=cspec, q=q)

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
        s = "+" if self.sign > 0 else "-"
        if self.kind == "int":
            return str(self.ival)
        if self.kind == "sqrt":
            return f"{s}sqrt({self.radicand})"
        if self.text is None:
            self.text = cyclo.format_rows(self.row[None])[0]
        head = f"eps^2 - {self.q}" if self.kind == "eps2q" else f"{s}|eps|"
        return f"{head}, eps={self.text}, conductor={self.cspec.n}"

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
        """Merge (ExactValue, multiplicity) pairs by exact equality, in first-seen order."""
        merged: dict = {}  # key -> [first value, summed multiplicity]
        for value, mult in pairs:
            if mult:
                merged.setdefault(value.key, [value, 0])[1] += mult
        entries = [SpectrumEntry(v, m) for v, m in merged.values()]
        out = cls(graph, q, entries)
        if out.total != expected_total:
            raise VerificationError(f"multiset totals {out.total}, expected {expected_total}")
        return out

    def expand(self) -> np.ndarray:
        """All eigenvalues, ascending: each entry (held descending) is a run of slots."""
        return np.repeat([e.approx for e in reversed(self.entries)],
                         [e.multiplicity for e in reversed(self.entries)])

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
    """The odd-q cubic family's scaling orbits, grouped into Galois orbits.

    Position (a, c) lies on orbit ``ids(a, c)`` (first-seen order over the
    positions (rows[i], c), c = 0 .. q-1).  Orbit k has multiplicity ``mults[k]``
    (``position_mult`` per position) and sum sigma_j(``bases[slot[k]]``), j^-1 =
    ``jinv[k]``, whose histogram is row k of ``permute(base_hist)`` and whose
    reduced row is ``eps[k]``.  ``first`` holds the arrays a and c of each
    orbit's first position (a, c), which lies in the first row of a's cube coset:
    row a meets exactly the orbits of that coset."""

    spec: ff.FieldSpec
    rows: tuple
    rank: np.ndarray  # raw id (``_raw_id``) -> orbit
    bases: tuple
    base_hist: np.ndarray
    slot: np.ndarray
    jinv: np.ndarray
    mults: tuple
    position_mult: int
    first: tuple

    def ids(self, a, c) -> np.ndarray:
        return self.rank[_raw_id(self.spec, a, c)]

    def permute(self, base_hist, ks=slice(None)) -> np.ndarray:
        """Rows ks from one histogram h per base: sigma_j(h)[s] = h[j^-1 * s]."""
        n = base_hist.shape[1]
        return base_hist[self.slot[ks, None], np.arange(n) * self.jinv[ks, None] % n]

    @cached_property
    def eps(self) -> np.ndarray:
        """Every orbit's reduced eps row, gathered once per table."""
        cspec = self.bases[0].spec
        eps = np.empty((len(self.mults), cspec.phi), np.int64)
        for lo in range(0, len(eps), 64):  # no full-size gather index or histogram is held
            eps[lo:lo + 64] = cyclo.reduce_rows(cspec, self.permute(self.base_hist,
                                                                    slice(lo, lo + 64)))
        return eps

    @cached_property
    def squares(self) -> np.ndarray:
        """The bases' squares as histograms: sigma_j(eps^2) = sigma_j(eps)^2."""
        return cyclo.histogram_rows(self.bases[0].spec, [(e * e).coeffs for e in self.bases],
                                    self.spec.q ** 2)

    def square_rows(self, ks) -> np.ndarray:
        """The reduced eps^2 rows of the orbits ks, from the bases' squares."""
        return cyclo.reduce_rows(self.bases[0].spec, self.permute(self.squares, ks))


def _raw_id(spec: ff.FieldSpec, a, c):
    """The scaling orbit of a*t^3 + c*t, a != 0 (arrays or ints), g = ``spec.exp[1]``.

    q = 1 (mod 3): k for the orbit of (a*c^-3, 1) = (g^k, 1), q - 1 + i for (g^i, 0).
    Otherwise: c' for the orbit of (1, c') = (1, c*a^(-1/3)).
    """
    n, la = spec.q - 1, spec.log[a]
    if spec.q % 3 == 1:
        return np.where(c == 0, n + la % 3, (la - 3 * spec.log[c]) % n)
    return np.where(c == 0, 0, spec.exp[(spec.log[c] - pow(3, -1, n) * la) % n])


def epsilon_orbits(spec: ff.FieldSpec) -> EpsilonOrbits:
    """The scaling and Galois orbits of the odd-q family (see the module doc).

    For p = 3 the family is t^3 + 3*c*t over GR(9,e), c the Teichmueller
    index; for q = 2 (mod 3) it is t^3 + c*t.  Both have one row, a = 1, and
    one orbit per c.  For q = 1 (mod 3) it is a*t^3 + c*t for a != 0, whose
    sums are constant on the orbits (a, c) -> (a*l^3, c*l) that ``_raw_id`` names.
    """
    q = spec.q
    if q % 2 == 0:
        raise ValueError("the cubic family exists for odd q only")
    if q % 3 == 1:  # positions per raw id: q - 1 per (g^k, 1), (q - 1)/3 per (g^i, 0)
        rows, position_mult = tuple(range(1, q)), q * (q - 1)
        counts = np.repeat([q - 1, (q - 1) // 3], [q - 1, 3])
    else:  # one position per c
        rows, position_mult, counts = (1,), q * (q - 1) ** 2, np.ones(q, int)
    rows_a = np.array(rows)  # row a meets exactly the ids of a's cube coset: read its least a
    lead = rows_a[np.sort(np.unique(spec.log[rows_a] % 3, return_index=True)[1])]
    ids, at = np.unique(_raw_id(spec, lead[:, None], np.arange(q)), return_index=True)
    if len(ids) < len(counts):
        raise RuntimeError(f"q={q}: a scaling orbit is met at no position")
    order = np.argsort(at)  # raw ids in first-seen order
    rank = np.argsort(order)
    a, c = lead[at[order] // q], at[order] % q  # each orbit's first position (a, c)
    base = list(range(len(order))) if spec.p == 3 else [-1] * len(order)
    j, js = [1] * len(order), np.arange(1, spec.p)  # p = 3: j = 1
    for k in range(len(order)):
        if base[k] < 0:  # orbit k is the base of a new Galois orbit
            img = rank[_raw_id(spec, spec.mul(js, int(a[k])),
                               spec.mul(js, int(c[k])))].tolist()
            if img[0] != k or any(base[r] >= 0 for r in img):  # sigma_1 fixes orbit k
                raise RuntimeError(f"q={q}: an orbit gets a second (base, j)")
            for jk, r in reversed(list(enumerate(img, 1))):  # sigma_jk(eps_k) = eps_r
                base[r], j[r] = k, jk  # the least such jk is set last
    bases = sorted(set(base))  # each Galois orbit's first orbit
    R = gr9.gr9_make(spec.e) if spec.p == 3 else None  # Teichmueller T[c] -> g^(c-1)
    sums = tuple(exp_sum_gr(int(spec.exp[c[k] - 1]) if c[k] else 0, R) if spec.p == 3
                 else exp_sum_field([0, int(c[k]), 0, int(a[k])], spec) for k in bases)
    hist = cyclo.histogram_rows(sums[0].spec, [e.coeffs for e in sums], q)
    orbits = EpsilonOrbits(spec, rows, rank, sums, hist, np.searchsorted(bases, base),
                           spec.inv(np.array(j)), tuple((position_mult * counts[order]).tolist()),
                           position_mult, (a, c))
    for b in range(0 if spec.p == 3 else len(bases)):  # one permuted row per base
        k = np.flatnonzero(orbits.slot == b)[-1]
        if (orbits.permute(hist, [k]) != trace_histogram([0, c[k], 0, a[k]], spec)).any():
            raise RuntimeError(f"q={q}: orbit {k}'s permuted row is not its direct sum")
    return orbits


def epsilon_family(orbits: EpsilonOrbits):
    """((a, c), k) for each position of ``orbits``, row by row: (a, c) lies on orbit k.
    For p = 3, c is the Teichmueller index of the GR(9,e) family t^3 + 3*c*t."""
    cs = np.arange(orbits.spec.q)
    for a in orbits.rows:
        for c, k in enumerate(orbits.ids(a, cs).tolist()):
            yield (a, c), k


def eps_classes(orbits: EpsilonOrbits) -> list:
    """One (eps^2 - q, ``mults[k]``) pair per orbit k, in orbit order, from 64
    orbits' ``eps`` and ``square_rows`` at a time.  The eps^2 classes merge once,
    in ``SpectrumMultiset.assemble``, which keeps each class's first eps row.
    """
    cspec, q, pairs = orbits.bases[0].spec, orbits.spec.q, []
    for lo in range(0, len(orbits.mults), 64):
        sq = orbits.square_rows(slice(lo, lo + 64))
        for m, e, s, x in zip(orbits.mults[lo:lo + 64], orbits.eps[lo:lo + 64], sq,
                              cyclo.embed_rows(cspec, sq).tolist()):
            pairs.append((ExactValue.eps2q(cspec, e, s, x, q), m))
    return pairs


def spectrum_odd(spec: ff.FieldSpec,
                 orbits: EpsilonOrbits | None = None) -> SpectrumMultiset:
    """Exact Gamma(4,q) spectrum for odd q: the integer classes and ``eps_classes``
    of every orbit.  ``orbits`` is ``epsilon_orbits(spec)`` when the caller already has it.
    """
    q = spec.q
    if q % 2 == 0:
        raise ValueError("spectrum_odd needs odd q")
    if orbits is None:
        orbits = epsilon_orbits(spec)
    pairs = [
        (ExactValue.integer(q * (q - 1)), 1),
        (ExactValue.integer(q), q * (q - 1) ** 2),
        (ExactValue.integer(0), 3 * q * (q - 1)),
        (ExactValue.integer(-q), (q - 1) * (q * q - q + 1)),
    ] + eps_classes(orbits)
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
        if a % p == 0:
            raise ValueError("a must be nonzero")
        k = int(_raw_id(spec, a % p, c % p))  # (g^k, 1), (g^(k-p+1), 0) or (1, k)
        if p % 3 == 2:
            return (1, k)
        return (int(spec.exp[k]), 1) if k < p - 1 else (int(spec.exp[k - p + 1]), 0)


def representatives(p: int) -> RepresentativeSet:
    """Canonical representative set: size p for p = 2 mod 3, p + 2 otherwise."""
    if not ff.is_prime(p) or p < 5:
        raise ValueError("representatives are defined for primes p >= 5")
    if p % 3 == 2:
        members = tuple((1, c) for c in range(p))
    else:
        g = ff.ff_make(p, 1).exp
        members = tuple((int(g[i]), 0) for i in range(3)) + \
            tuple((a, 1) for a in range(1, p))
    return RepresentativeSet(p, members)


def fiber_profile(f, spec: ff.FieldSpec):
    """|f^-1(s)| for s = 0..p-1; prime fields only (where it determines eps)."""
    if spec.e != 1:
        raise ValueError("fiber profiles characterize sums over prime fields only")
    return tuple(trace_histogram([int(c) % spec.p for c in f], spec).tolist())  # tr = id


# ----------------------------------------------------------------------
# bipartite lift

def _abs_eps_pairs(cspec: cyclo.CycSpec, rows):
    """(+|eps|, -|eps|) for each real eps of the int64 ``rows``, 64 rows at a time:
    each row is embedded once, signed to |eps|, and formatted once for its pair."""
    for lo in range(0, len(rows), 64):
        block = np.array(rows[lo:lo + 64], dtype=np.int64)
        xs = cyclo.embed_rows(cspec, block)
        block[xs < 0] *= -1
        rational = (~block[:, 1:].any(axis=1)).tolist()
        for key, x, text, rat in zip(map(bytes, block), np.abs(xs).tolist(),
                                     cyclo.format_rows(block), rational):
            row = np.frombuffer(key, dtype=np.int64)  # the pair's key and row share memory
            yield [ExactValue.integer(s * abs(int(row[0]))) if rat else
                   ExactValue("eps", ("eps", s, cspec.n, key), s * x, row=row,
                              cspec=cspec, sign=s, text=text) for s in (1, -1)]


def lift_to_bipartite(s: SpectrumMultiset, q: int) -> SpectrumMultiset:
    """Spectrum of D(4,q) from the Gamma spectrum: m -> +-sqrt(q+m), with
    -q -> 0 at doubled multiplicity."""
    if s.total != q ** 4:
        raise ValueError(f"expected a Gamma multiset of total {q**4}, got {s.total}")
    pairs = []
    eps = [e.value for e in s.entries if e.value.kind == "eps2q"]
    lifted = _abs_eps_pairs(eps[0].cspec if eps else None, [v.row for v in eps])
    for e in s.entries:
        v, m = e.value, e.multiplicity
        if v.kind == "int":
            rad = q + v.ival
            if rad < 0:
                raise VerificationError("eigenvalue below -q: corrupted input")
            if v.ival == -q:
                pairs.append((ExactValue.integer(0), 2 * m))
            else:
                pairs.append((ExactValue.sqrt(+1, rad), m))
                pairs.append((ExactValue.sqrt(-1, rad), m))
        elif v.kind == "eps2q":
            pairs += [(w, m) for w in next(lifted)]
        else:
            raise ValueError(f"cannot lift a value of kind {v.kind!r}")
    return SpectrumMultiset.assemble("D4", q, pairs, expected_total=2 * q ** 4)
