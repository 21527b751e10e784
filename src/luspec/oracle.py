"""Brute-force spectral verification and expansion reporting.

The one numeric eigensolver returns full eigenvalue lists (multiset
comparison needs every multiplicity).  Every built graph is invariant under
the shear group K = {g(0, b, x, y)} of order q^3, which acts freely with one
orbit per c1 and side.  ``graphs.shear_orbits`` labels the orbits and checks
exactly, in integers, that K's 3e generators are graph automorphisms (the
girth scan reads the same labels); the graph then splits into q^3 Hermitian
blocks of order q (2q for D(4,q)), one per additive character of K, in the
style of Babai (JCTB 1979).  For odd p the block of the character
-chi is the complex conjugate of chi's, so only one of each such pair is
solved, and its eigenvalues count twice.  The blocks go to one stacked
``numpy.linalg.eigvalsh``; the package needs numpy alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import closedform, ff, graphs
from .closedform import SpectrumMultiset, VerificationError
from .graphs import AdjacencyStructure

DEFAULT_MAX_DENSE_N = 15000


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
    """Full eigenvalue list from the q^3 Hermitian blocks of K's characters.

    First checked in integers, else VerificationError: graphs.shear_orbits
    finds that K acts on adj, and R[r, c, k] = A[r, k c] over orbit
    representatives r, c has R[c, r, -k] = R[r, c, k].  Each additive
    character chi(b, x, y) = zeta_p^tr(alpha*b + beta*x + gamma*y) then gives
    the block B_chi[r, c] = sum_k R[r, c, k] chi(k)."""
    if adj.n > max_dense_n:
        raise ff.SizeBudgetError(
            f"{adj.n} vertices exceed the dense budget {max_dense_n}; "
            "use the closed-form path")
    spec = ff.field_for(adj.q)
    q, q3 = spec.q, spec.q ** 3
    labels, m = graphs.shear_orbits(adj), adj.n // q3
    neg = spec.neg(np.arange(q))
    if labels is not None:
        orbit, k = labels
        rows = adj.neighbors[k == 0]  # the representatives' rows, by orbit
        counts = np.bincount(
            ((k[rows] * m + np.arange(m)[:, None]) * m + orbit[rows]).ravel(),
            minlength=q3 * m * m).reshape(q, q, q, m, m)  # [y, x, b, r, c]
    if labels is None or not np.array_equal(counts, counts[
            neg[:, None, None], neg[:, None], neg].transpose(0, 1, 2, 4, 3)):
        raise VerificationError(
            f"{adj.name} q={q}: the shears of K are not automorphisms")
    a = np.arange(q)
    chi = np.exp(2j * np.pi / spec.p * spec.tr(spec.mul(a[:, None], a)))
    if spec.p == 2:
        chi = chi.real  # exactly +-1
    # blocks[gamma, beta, alpha] = sum over y, x, b of chi[gamma, y] chi[beta, x]
    # chi[alpha, b] counts[y, x, b]: three matmuls against the character table
    blocks = chi @ counts.reshape(q, -1)
    blocks = chi @ blocks.reshape(q, q, -1)
    blocks = (chi @ blocks.reshape(q * q, q, m * m)).reshape(q3, m, m)
    # B[-code] is the conjugate of B[code], so it has the same eigenvalues:
    # codes <= -code are solved, and those with code != -code (odd p) count twice
    code = np.arange(q3)
    negcode = neg[code % q] + q * neg[code // q % q] + q * q * neg[code // (q * q)]
    ks = np.flatnonzero(code <= negcode)
    w = np.linalg.eigvalsh(blocks[ks])
    ns = NumericSpectrum(np.sort(np.concatenate([w, w[ks != negcode[ks]]]), axis=None))
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
    """Greedy sorted matching; per-entry tolerance tol * max(1, |lambda|).  Each exact
    entry owns its run of slots in ``expand()`` and counts the partners within it."""
    if exact.total != numeric.n:
        raise TotalMismatchError(
            f"total mismatch {exact.total} vs {numeric.n}")
    expanded = exact.expand()
    devs = np.abs(expanded - numeric.values)
    scale = np.maximum(1.0, np.abs(expanded))
    rel = devs / scale
    worst = int(np.argmax(rel))
    passed = bool(rel[worst] <= tol)
    within = np.concatenate([[0], np.cumsum(rel <= tol)])  # matched slots below each slot
    mismatches, end = [], exact.total
    for e in exact.entries:  # descending, so their runs end where the last one began
        observed = int(within[end] - within[end - e.multiplicity])
        end -= e.multiplicity
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
