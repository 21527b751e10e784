"""Characters and degree-q representations of the vertex group G.

G has q^3 linear characters (it abelianizes over the derived subgroup
{g(0,0,v,0)}) plus q^2 - q irreducible representations of degree q,

    M[a,b](g(t,u,v,w))[i,j] = zeta^tr(a*(v - 2*i*u) + b*w) * delta(i+t, j),

indexed by pairs a != 0, b.  Summing M over the connection set S factors as
U * U^adj - q*I with U[i,j] = zeta^tr(a*i^2*j - b*i*j^2), which ties the
nontrivial eigenvalues to cubic exponential sums: M[a,b](S) has eigenvalue
multiset {eps_f^2 - q : f(t) = a'*t^3 + c*t, c in F} with a' = 1/(3ab) for
p >= 5, and the GR(9,e) family t^3 + 3*c*t for p = 3.

A matrix is one int64 array of exponent histograms, hist[i, j, k] = number
of zeta^k terms in entry (i, j), scattered by a single bincount over rows
and group elements; the tests build and check every block up to q = 13.
The spectrum assembly in :mod:`luspec.closedform` never builds them.  For
p = 3 matrix entries live in conductor 9 with zeta_3 = zeta_9^3.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import closedform, cyclo, graphs
from .cyclo import CycInt, cyc_spec
from .cyclo import exp_sum_field  # noqa: F401 -- perfbench/tracer.py wraps reps.exp_sum_field
from .closedform import SpectrumMultiset
from .ff import FieldSpec


def _char_spec(spec: FieldSpec) -> tuple[cyclo.CycSpec, int]:
    """Conductor and exponent scale for zeta_p powers; p=3 embeds via zeta_9^3."""
    if spec.p == 3:
        return cyc_spec(9), 3
    return cyc_spec(spec.p), 1


def _zeta_pow(spec: FieldSpec, k: int) -> CycInt:
    cspec, scale = _char_spec(spec)
    return cyclo.zeta(cspec, scale * (k % spec.p))


@dataclass(frozen=True)
class CharValue:
    label: tuple
    value: int
    root_count: int | None = None


def linear_char_value(spec: FieldSpec, alpha: int, beta: int, gamma: int) -> CharValue:
    """Character sum over S for odd q: (m-1)*q with m = #roots of
    alpha + beta*r + gamma*r^2 (m = q for the trivial character)."""
    if spec.q % 2 == 0:
        raise ValueError("linear_char_value is the odd-q form")
    r = np.arange(spec.q)
    m = int(np.count_nonzero(spec.add(alpha, spec.mul(r, spec.add(beta, spec.mul(gamma, r))))
                             == 0))
    return CharValue((alpha, beta, gamma), (m - 1) * spec.q, m)


def _trace_over_s(spec: FieldSpec, *weights) -> np.ndarray:
    """tr(w1*t + w2*u + w3*v + w4*w) at every element (t, u, v, w) of S."""
    return spec.tr(functools.reduce(spec.add, map(spec.mul, weights, graphs.connection_set(spec))))


def linear_char_sum_direct(spec: FieldSpec, alpha: int, beta: int, gamma: int) -> CycInt:
    """The same sum evaluated literally over S (cross-check path)."""
    cspec, scale = _char_spec(spec)
    hist = np.bincount(scale * _trace_over_s(spec, alpha, beta, 0, gamma) % cspec.n,
                       minlength=cspec.n)
    return CycInt.from_histogram(cspec, hist.tolist())


def even_char_value(spec: FieldSpec, alpha: int, beta: int, gamma: int, eta: int) -> CharValue:
    """Even-q character sum over S, computed directly and verified against
    the reduced form q * sum_{t != 0, beta^2 t + gamma^2 t^3 = eta} (-1)^tr(alpha*t)."""
    q = spec.q
    if q % 2:
        raise ValueError("even_char_value needs even q")
    total = int(np.sum(1 - 2 * _trace_over_s(spec, alpha, beta, gamma, eta)))
    t, mul = np.arange(1, q), spec.mul
    t = t[spec.add(mul(mul(beta, beta), t), mul(mul(gamma, gamma), spec.pow(t, 3))) == eta]
    reduced = int(np.sum(1 - 2 * spec.tr(mul(alpha, t))))
    if total != q * reduced:
        raise RuntimeError("direct and reduced character sums disagree")
    return CharValue((alpha, beta, gamma, eta), total)


# ----------------------------------------------------------------------
# representation matrices

@dataclass(eq=False)
class RepMatrix:
    """q x q matrix over Z[zeta_n], rows/cols in element order, held as
    exponent histograms: hist[i, j, k] counts the zeta^k terms of entry (i, j)."""

    cspec: cyclo.CycSpec
    hist: np.ndarray  # int64, shape (q, q, n)

    def entry(self, i: int, j: int) -> CycInt:
        return CycInt.from_histogram(self.cspec, self.hist[i, j].tolist())

    def conj_transpose(self) -> "RepMatrix":
        n = self.cspec.n
        return RepMatrix(self.cspec, self.hist.transpose(1, 0, 2)[..., -np.arange(n) % n])

    def __matmul__(self, other: "RepMatrix") -> "RepMatrix":
        # the zeta^s terms of self times other shift other's exponents by s
        out = np.zeros_like(other.hist)
        for s in range(self.cspec.n):
            out += np.roll(np.einsum("ik,kjt->ijt", self.hist[:, :, s], other.hist), s, axis=2)
        return RepMatrix(self.cspec, out)

    def __eq__(self, other):
        return (isinstance(other, RepMatrix) and other.cspec.n == self.cspec.n
                and np.array_equal(cyclo.reduce_rows(self.cspec, self.hist),
                                   cyclo.reduce_rows(other.cspec, other.hist)))

    def is_hermitian(self) -> bool:
        return self == self.conj_transpose()

    def trace_sum(self) -> CycInt:
        return CycInt.from_histogram(self.cspec, np.trace(self.hist).tolist())

    def eigenvalues(self) -> np.ndarray:
        """Numeric eigenvalues; Hermitian-symmetrized before decomposition."""
        m = self.hist @ np.array(self.cspec.roots)
        return np.linalg.eigvalsh((m + m.conj().T) / 2)


def _scatter(spec: FieldSpec, cols: np.ndarray, k: np.ndarray) -> RepMatrix:
    """Sum zeta^k[i, s] into entry (i, cols[i, s]) over all s, with one bincount."""
    cspec, scale = _char_spec(spec)
    q, n = spec.q, cspec.n
    flat = (np.arange(q)[:, None] * q + cols) * n + scale * k
    return RepMatrix(cspec, np.bincount(flat.ravel(), minlength=q * q * n).reshape(q, q, n))


def _rep_sum(spec: FieldSpec, alpha: int, beta: int, t, u, v, w) -> RepMatrix:
    """Sum of M[alpha,beta](g) over the elements g with index columns (t, u, v, w):
    row i of M(g) holds zeta^tr(alpha*(v - 2*i*u) + beta*w) at column i + t."""
    add, mul = spec.add, spec.mul
    i = np.arange(spec.q)[:, None]
    k = spec.tr(add(mul(alpha, spec.sub(v, mul(2 % spec.p, mul(i, u)))), mul(beta, w)))
    return _scatter(spec, add(i, t), k)


def rep_matrix(spec: FieldSpec, alpha: int, beta: int, g: graphs.GroupElem) -> RepMatrix:
    """M[alpha,beta](g) for a single group element."""
    return _rep_sum(spec, alpha, beta, *(np.array([x]) for x in g))


def build_M(spec: FieldSpec, alpha: int, beta: int) -> RepMatrix:
    """M[alpha,beta](S) = sum over the connection set, exact."""
    if spec.q % 2 == 0:
        raise ValueError("the degree-q representations need odd q")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    return _rep_sum(spec, alpha, beta, *graphs.connection_set(spec))


def build_U(spec: FieldSpec, alpha: int, beta: int) -> RepMatrix:
    """U[alpha,beta][i,j] = zeta^tr(alpha*i^2*j - beta*i*j^2)."""
    mul = spec.mul
    i, j = np.arange(spec.q)[:, None], np.arange(spec.q)
    ij = mul(i, j)
    k = spec.tr(spec.sub(mul(alpha, mul(ij, i)), mul(beta, mul(ij, j))))
    return _scatter(spec, j, k)


def m_from_u(spec: FieldSpec, alpha: int, beta: int) -> RepMatrix:
    """U * U^adj - q*I, the factored form of M[alpha,beta](S)."""
    u = build_U(spec, alpha, beta)
    prod = u @ u.conj_transpose()
    d = np.arange(spec.q)
    prod.hist[d, d, 0] -= spec.q
    return prod


def psi_value(spec: FieldSpec, alpha: int, beta: int, g: graphs.GroupElem) -> CycInt:
    """Character of M[alpha,beta]: q * zeta^tr(alpha v + beta w) on the
    centre (t = u = 0), zero elsewhere."""
    t, u, v, w = g
    if t or u:
        return CycInt.integer(_char_spec(spec)[0], 0)
    return spec.q * _zeta_pow(spec, spec.tr(spec.add(spec.mul(alpha, v), spec.mul(beta, w))))


def _psi_exponents(spec: FieldSpec):
    """Labels (a, b) with a != 0 and K[label, v + q*w] = tr(a*v + b*w):
    psi[a,b] is q*zeta^K on the elements g(0,0,v,w) and zero elsewhere."""
    W, V = np.divmod(np.arange(spec.q ** 2), spec.q)
    labels = [(a, b) for a in range(1, spec.q) for b in range(spec.q)]
    K = np.array([spec.tr(spec.add(spec.mul(a, V), spec.mul(b, W))) for a, b in labels])
    return labels, K


def psi_orthogonality(spec: FieldSpec) -> bool:
    """First orthogonality over all pairs of degree-q characters (full group sum)."""
    q, p = spec.q, spec.p
    if q % 2 == 0 or q > graphs.DEFAULT_MAX_GRAPH_Q:
        raise ValueError("orthogonality sweep is an odd-q, "
                         f"q <= {graphs.DEFAULT_MAX_GRAPH_Q} check")
    cspec, scale = _char_spec(spec)
    labels, K = _psi_exponents(spec)
    L = len(labels)
    for i in range(L):
        # hist[j, k]: elements (0,0,v,w) where psi_i * conj(psi_j) = q^2 * zeta^k
        diff = np.arange(L)[:, None] * cspec.n + scale * ((K[i] - K) % p)
        hist = np.bincount(diff.reshape(-1), minlength=L * cspec.n).reshape(L, -1)
        for j, h in enumerate(hist.tolist()):
            acc = q * q * CycInt.from_histogram(cspec, h)
            if not (acc.is_rational and acc.as_int == (q ** 4 if i == j else 0)):
                return False
    return True


def eigen_via_epsilon(orbits: closedform.EpsilonOrbits, alpha: int,
                      beta: int) -> SpectrumMultiset:
    """Exact eigenvalue multiset {eps_f^2 - q} of M[alpha,beta](S): the
    ``closedform.eps_classes`` of the orbits of the positions (a', c), c in F,
    read from the table ``orbits = closedform.epsilon_orbits(spec)``, which
    every block of one q shares."""
    spec = orbits.spec
    q = spec.q
    if alpha == 0 or beta == 0:
        raise ValueError("the eps route needs alpha*beta != 0")
    a = 1 if spec.p == 3 else spec.inv(spec.mul(3, spec.mul(alpha, beta)))
    counts = Counter(orbits.ids(a, np.arange(q)).tolist())  # orbit -> positions, in c order
    pairs = closedform.eps_classes(orbits, list(counts), list(counts.values()))
    return SpectrumMultiset.assemble(f"M[{alpha},{beta}]", q, pairs, expected_total=q)


def conjugacy_class_data(spec: FieldSpec):
    """(class count, size histogram) of G by exhaustive orbit computation."""
    q = spec.q
    idx = np.arange(q ** 4, dtype=np.int64)
    T, U, V, W = graphs.vertex_coords(q, idx)
    two = 2 % spec.p
    orbmin = idx.copy()
    # h g h^-1 = g(t, u, v + 2*(t*uh - u*th), w) depends on h only through (th, uh)
    for th in range(q):
        for uh in range(q):
            shift = spec.mul(two, spec.sub(spec.mul(T, uh), spec.mul(U, th)))
            conj = graphs.vertex_index(q, (T, U, spec.add(V, shift), W))
            np.minimum(orbmin, conj, out=orbmin)
    classes, sizes = np.unique(orbmin, return_counts=True)
    hist: dict[int, int] = {}
    for s in sizes:
        hist[int(s)] = hist.get(int(s), 0) + 1
    return len(classes), hist
