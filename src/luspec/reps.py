"""Characters and conjugacy classes of the vertex group G.

G has q^3 linear characters (it abelianizes over the derived subgroup
{g(0,0,v,0)}) plus q^2 - q irreducible representations M[a,b] of degree q,
indexed by pairs a != 0, b.  The character psi[a,b] of M[a,b] is
q*zeta^tr(a*v + b*w) on the centre {g(0,0,v,w)} and zero elsewhere:
``psi_orthogonality`` checks the first orthogonality relation exactly over
every pair, and ``conjugacy_class_data`` counts G's classes by exhaustive
conjugation.  For p = 3 character values live in conductor 9 with
zeta_3 = zeta_9^3.

The matrices M[a,b](g), their sum M[a,b](S) over the connection set, its
factored form U * U^adj - q*I and its eigenvalues eps^2 - q, which tie the
spectrum to the cubic sums, are the tests' references (tests/conftest.py):
the spectrum assembly in :mod:`luspec.closedform` never builds them.
"""

from __future__ import annotations

import numpy as np

from . import cyclo, graphs
from .cyclo import CycInt, cyc_spec
from .cyclo import exp_sum_field  # noqa: F401 -- perfbench/tracer.py wraps reps.exp_sum_field
from .ff import FieldSpec


def _char_spec(spec: FieldSpec) -> tuple[cyclo.CycSpec, int]:
    """Conductor and exponent scale for zeta_p powers; p=3 embeds via zeta_9^3."""
    if spec.p == 3:
        return cyc_spec(9), 3
    return cyc_spec(spec.p), 1


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
