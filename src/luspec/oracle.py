"""Brute-force spectral verification and expansion reporting.

The one numeric eigensolver returns full eigenvalue lists (multiset
comparison needs every multiplicity).  It splits the graph into q^2 Hermitian
blocks of order n/q^2, one per additive character of the (c3, c4)
translations, in the style of Babai (JCTB 1979), after an exact integer check
that those translations are graph automorphisms.  For odd p the block of
the character -chi is the complex conjugate of chi's, so only one of each
such pair is built, and its eigenvalues count twice.  The blocks go to one
stacked ``numpy.linalg.eigvalsh``; the package needs numpy alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import closedform, ff, graphs
from .closedform import SpectrumMultiset
from .graphs import AdjacencyStructure

DEFAULT_MAX_DENSE_N = 15000


class VerificationError(ValueError):
    """A numeric spectrum failed a check; the CLI exits 1, not 2, on it."""


class TotalMismatchError(VerificationError):
    """Exact and numeric spectra have different sizes."""


@dataclass(frozen=True)
class NumericSpectrum:
    """Ascending eigenvalues of a symmetric adjacency operator."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    def check_moments(self, num_edges: int):
        s1 = float(self.values.sum())
        if abs(s1) > self.n * 1e-8:
            raise VerificationError(f"trace {s1} deviates from 0")
        s2 = float((self.values ** 2).sum())
        if abs(s2 - 2 * num_edges) > 1e-8 * max(1.0, 2 * num_edges):
            raise VerificationError(f"sum of squares {s2} != 2*edges {2 * num_edges}")
        return True


def numeric_spectrum(adj: AdjacencyStructure,
                     max_dense_n: int = DEFAULT_MAX_DENSE_N) -> NumericSpectrum:
    """Full eigenvalue list from the q^2 Hermitian translation blocks.

    First checked in integers, else VerificationError: each vertex's row is
    tau_h of its orbit representative's (``graphs.translation_orbits``), and
    R[r, c, k] = A[r, tau_k c] over representatives r, c has R[c, r, -k] =
    R[r, c, k].  Each additive character chi(x, y) = zeta_p^tr(alpha*x +
    beta*y) then gives the block B_chi[r, c] = sum_k R[r, c, k] chi(k)."""
    if adj.n > max_dense_n:
        raise ff.SizeBudgetError(
            f"{adj.n} vertices exceed the dense budget {max_dense_n}; "
            "use the closed-form path")
    spec = ff.field_for(adj.q)
    q, q2, nb = spec.q, spec.q ** 2, adj.neighbors
    orbit, h = graphs.translation_orbits(adj, spec)
    m = adj.n // q2
    vertex = np.empty(adj.n, dtype=np.int64)
    vertex[orbit * q2 + h] = np.arange(adj.n)
    rows = nb[vertex[::q2]]  # the representatives' rows, by orbit
    # row v must be tau_h(v) of its representative's row: 4096 rows at a time
    hx, hy, translated = h % q, h // q, True
    for v in (slice(i, i + 4096) for i in range(0, adj.n, 4096)):
        moved = rows[orbit[v]]
        moved = vertex[orbit[moved] * q2 + spec.add(hx[moved], hx[v, None])
                       + q * spec.add(hy[moved], hy[v, None])]
        translated = translated and np.array_equal(np.sort(moved, axis=1), nb[v])
    del moved
    counts = np.bincount(
        ((np.arange(m)[:, None] * m + orbit[rows]) * q2 + h[rows]).ravel(),
        minlength=m * m * q2).reshape(m, m, q, q)  # [r, c, y, x]
    neg = spec.neg(np.arange(q))
    if not (translated and np.array_equal(
            counts, counts.transpose(1, 0, 2, 3)[:, :, neg[:, None], neg])):
        raise VerificationError(
            f"{adj.name} q={q}: the translations of (c3, c4) are not automorphisms")
    # one float copy in [y, x, r, c] order; the int64 counts go before the stack
    counts = np.ascontiguousarray(counts.transpose(2, 3, 0, 1), dtype=np.float64)
    a = np.arange(q)
    chi = np.exp(2j * np.pi / spec.p * spec.tr(spec.mul(a[:, None], a)))
    if spec.p == 2:
        chi = chi.real  # exactly +-1
    # B[-k, -l] is the conjugate of B[k, l], so it has the same eigenvalues:
    # rows k <= -k are solved, and those with k != -k (odd p) count twice.
    # blocks[i, l, r, c] = sum_y chi[k, y] sum_x chi[l, x] counts[y, x, r, c],
    # k = ks[i], filled one row at a time: (rows * q, m, m) is a reshape, not
    # a copy.  The real and imaginary parts of chi[k] go apart, since
    # complex @ float would cast all of counts to complex
    ks = np.flatnonzero(a <= neg)
    flat = counts.reshape(q, q * m * m)
    blocks = np.empty((len(ks), q, m * m), dtype=chi.dtype)
    for i, k in enumerate(ks):
        row = chi[k].real @ flat
        if spec.p != 2:
            row = row + 1j * (chi[k].imag @ flat)
        np.matmul(chi, row.reshape(q, m * m), out=blocks[i])
    w = np.linalg.eigvalsh(blocks.reshape(-1, m, m)).reshape(len(ks), q * m)
    ns = NumericSpectrum(np.sort(np.concatenate([w, w[ks != neg[ks]]]), axis=None))
    ns.check_moments(adj.num_edges)
    return ns


@dataclass(frozen=True)
class ClusterMismatch:
    value: float
    expected: int
    observed: int


@dataclass(frozen=True)
class CompareReport:
    passed: bool
    n: int
    worst_dev: float
    worst_at: float
    tol: float
    mismatches: tuple

    def text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"{verdict}: {self.n} eigenvalues, worst deviation "
                 f"{self.worst_dev:.3e} (near {self.worst_at:.6g}, tol {self.tol:g})"]
        for m in self.mismatches:
            lines.append(f"  multiplicity at {m.value:.6g}: expected {m.expected}, "
                         f"observed {m.observed}")
        return "\n".join(lines)


def compare_spectra(exact: SpectrumMultiset, numeric: NumericSpectrum,
                    tol: float = 1e-6) -> CompareReport:
    """Greedy sorted matching; per-entry tolerance tol * max(1, |lambda|)."""
    if exact.total != numeric.n:
        raise TotalMismatchError(
            f"total mismatch {exact.total} vs {numeric.n}")
    expanded = exact.expand()
    devs = np.abs(expanded - numeric.values)
    scale = np.maximum(1.0, np.abs(expanded))
    rel = devs / scale
    worst = int(np.argmax(rel))
    passed = bool(rel[worst] <= tol)
    mismatches = []
    for e in exact.entries:
        window = tol * max(1.0, abs(e.approx))
        observed = int(np.count_nonzero(
            np.abs(numeric.values - e.approx) <= window))
        if observed != e.multiplicity:
            mismatches.append(ClusterMismatch(e.approx, e.multiplicity, observed))
    return CompareReport(passed=passed, n=numeric.n,
                         worst_dev=float(devs[worst]),
                         worst_at=float(expanded[worst]), tol=tol,
                         mismatches=tuple(mismatches))


# ----------------------------------------------------------------------
# expansion / Ramanujan reporting

@dataclass(frozen=True)
class ExpansionReport:
    q: int
    source: str
    lambda2: float
    spectral_gap: float
    isoperimetric_lower: float
    isoperimetric_upper: float
    ramanujan: bool
    near_ramanujan: bool
    margin_ramanujan: float   # 2*sqrt(q-1) - lambda2
    margin_weil: float        # 2*sqrt(q)   - lambda2

    def verdict(self) -> str:
        word = "Ramanujan" if self.ramanujan else "NOT Ramanujan"
        return f"q={self.q}: {word} (margin {self.margin_ramanujan:+.4f})"


def _lambda2_from_values(values, q: int) -> float:
    below = [v for v in values if v < q - 1e-9]
    return max(below)


def expansion_report(q: int, source: str = "closed",
                     max_dense_n: int = DEFAULT_MAX_DENSE_N) -> ExpansionReport:
    """Spectral expansion data for D(4,q); lambda2 is the largest eigenvalue
    below the degree q."""
    spec = ff.field_for(q)
    if source == "closed":
        gam = closedform.spectrum_closed(spec)
        lifted = closedform.lift_to_bipartite(gam, q)
        lam2 = _lambda2_from_values([e.approx for e in lifted.entries], q)
    elif source == "numeric":
        adj = graphs.build_d4(spec)
        nspec = numeric_spectrum(adj, max_dense_n=max_dense_n)
        lam2 = _lambda2_from_values(nspec.values.tolist(), q)
    else:
        raise ValueError(f"unknown source {source!r}")
    gap = q - lam2
    lower = gap / 2
    upper = math.sqrt(2 * q * gap)
    if lower > upper + 1e-12:
        raise RuntimeError(f"isoperimetric bounds out of order: {lower} > {upper}")
    return ExpansionReport(
        q=q, source=source, lambda2=lam2, spectral_gap=gap,
        isoperimetric_lower=lower, isoperimetric_upper=upper,
        ramanujan=lam2 <= 2 * math.sqrt(q - 1) + 1e-12,
        near_ramanujan=lam2 <= 2 * math.sqrt(q) + 1e-9,
        margin_ramanujan=2 * math.sqrt(q - 1) - lam2,
        margin_weil=2 * math.sqrt(q) - lam2)


def expansion_table(reports) -> str:
    """Aligned plain-text table of expansion reports."""
    header = (f"{'q':>4} {'source':>8} {'lambda2':>12} {'gap':>10} "
              f"{'h_lower':>10} {'h_upper':>10} {'ramanujan':>10} {'2rt(q-1)':>10}")
    lines = [header]
    for r in reports:
        lines.append(f"{r.q:>4} {r.source:>8} {r.lambda2:>12.6f} "
                     f"{r.spectral_gap:>10.6f} {r.isoperimetric_lower:>10.6f} "
                     f"{r.isoperimetric_upper:>10.6f} "
                     f"{str(r.ramanujan):>10} {2 * math.sqrt(r.q - 1):>10.6f}")
    return "\n".join(lines)


def reports_to_json(reports) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2)
