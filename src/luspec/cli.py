"""Command-line front door: build, spectrum, verify, epsilons, ramanujan.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage/config error.
Outputs are deterministic; files carry a timestamp header unless
--no-timestamp is given.  The dense-eigensolver budget comes from
--max-dense-n or the LUSPEC_MAX_DENSE_N environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import closedform, cyclo, ff, graphs, oracle


@dataclass
class RunConfig:
    command: str
    q_list: list[int]
    graph: str = "gamma"
    source: str = "closed"
    fmt: str | None = None
    out: str | None = None
    tol: float = 1e-6
    max_dense_n: int = oracle.DEFAULT_MAX_DENSE_N
    timestamp: bool = True


class UsageError(Exception):
    pass


def _parse_q_list(text: str) -> list[int]:
    if not text or not text.strip():
        raise UsageError("empty q list")
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise UsageError(f"malformed q list {text!r}")
        try:
            q = int(part)
        except ValueError:
            raise UsageError(f"q={part!r} is not an integer") from None
        # prime power check deferred to _field so the message is uniform
        out.append(q)
    return out


def _field(q: int) -> ff.FieldSpec:
    pe = ff.prime_power(q)
    if pe is None:
        raise UsageError(f"q={q} is not a prime power; the graphs are defined "
                         "over the finite field GF(q)")
    return ff.ff_make(*pe)


def _stamp(cfg: RunConfig) -> str | None:
    if not cfg.timestamp:
        return None
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _open_out(cfg: RunConfig):
    if cfg.out:
        return open(cfg.out, "w")
    return None


# ----------------------------------------------------------------------

def cmd_build(cfg: RunConfig) -> int:
    q = cfg.q_list[0]
    spec = _field(q)
    builder = graphs.build_d4 if cfg.graph == "d4" else graphs.build_gamma
    adj = builder(spec)
    stamp = _stamp(cfg)
    if cfg.out:
        with open(cfg.out, "w") as fp:
            graphs.write_edge_list(adj, fp, timestamp=stamp)
        with open(cfg.out + ".coords.json", "w") as fp:
            graphs.write_coordinate_dict(adj, fp, timestamp=stamp)
        print(f"wrote {adj.num_edges} edges to {cfg.out} "
              f"(+ coordinate dictionary)")
    else:
        graphs.write_edge_list(adj, sys.stdout, timestamp=stamp)
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    q = cfg.q_list[0]
    spec = _field(q)
    fmt = cfg.fmt or "json"
    stamp = _stamp(cfg)
    if cfg.source == "closed":
        s = closedform.spectrum_closed(spec)
        if cfg.graph == "d4":
            s = closedform.lift_to_bipartite(s, q)
        doc = s.to_json_dict()
        if stamp:
            doc["generated"] = stamp
        if fmt == "json":
            text = json.dumps(doc, indent=2) + "\n"
        elif fmt in ("table", "csv"):
            sep = "," if fmt == "csv" else "  "
            rows = [sep.join(["value_float", "multiplicity", "value_exact"])]
            for e in s.entries:
                rows.append(sep.join([f"{e.approx:.12g}", str(e.multiplicity),
                                      e.value.serial()]))
            text = "\n".join(rows) + "\n"
        else:
            raise UsageError(f"unsupported format {fmt!r} for spectrum")
    else:
        builder = graphs.build_d4 if cfg.graph == "d4" else graphs.build_gamma
        nspec = oracle.numeric_spectrum(builder(spec), max_dense_n=cfg.max_dense_n)
        vals = nspec.values.tolist()
        if fmt == "json":
            doc = {"graph": cfg.graph.upper(), "q": q, "source": "numeric",
                   "eigenvalues": vals}
            if stamp:
                doc["generated"] = stamp
            text = json.dumps(doc, indent=2) + "\n"
        elif fmt in ("csv", "table"):
            text = "\n".join(f"{v:.12g}" for v in vals) + "\n"
        else:
            raise UsageError(f"unsupported format {fmt!r} for spectrum")
    if cfg.out:
        with open(cfg.out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _verify_one(q: int, cfg: RunConfig, lines: list[str]) -> bool:
    ok = True

    def check(name: str, passed: bool, detail: str = ""):
        nonlocal ok
        ok &= passed
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"[{status}] q={q} {name}{suffix}")

    spec = _field(q)

    prof = ff.quadratic_root_profile(spec)
    want = ff.quadratic_profile_expected(q)
    check("quadratic root-count profile",
          all(prof.count(k) == v for k, v in want.items())
          and prof.total == q ** 3 - 1)
    if q % 2 == 0:
        prof3 = ff.cubic_root_profile_even(spec)
        want3 = ff.cubic_even_profile_expected(q)
        check("cubic nonzero-root profile",
              all(prof3.count(k) == v for k, v in want3.items())
              and prof3.count(2) == 0 and prof3.total == q ** 3 - 1)

    if q % 2 == 1:
        # positions on one scaling orbit share their sum: one check per orbit
        bad = sum(not cyclo.weil_check(eps, q, 3).ok
                  for eps in closedform.epsilon_orbits(spec).sums)
        check("Weil bound over the cubic family", bad == 0)

    s = closedform.spectrum_closed(spec)
    check("closed-form degree conservation", s.total == q ** 4)

    if q <= graphs.DEFAULT_MAX_GRAPH_Q:
        gam = graphs.build_gamma(spec)
        cay = graphs.build_cayley(spec)
        sigma = graphs.cayley_vertex_map(spec)
        mapped = np.sort(sigma[cay.neighbors], axis=1)
        check("Cayley graph matches collinearity graph",
              bool(np.array_equal(mapped, gam.neighbors[sigma])))
        ncomp, _ = graphs.connected_components(gam)
        check("component count equals top multiplicity",
              ncomp == s.largest.multiplicity)
        if q ** 4 <= cfg.max_dense_n:
            rep = oracle.compare_spectra(s, oracle.numeric_spectrum(
                gam, max_dense_n=cfg.max_dense_n), tol=cfg.tol)
            check("closed form vs numeric spectrum", rep.passed,
                  f"worst dev {rep.worst_dev:.2e}")
        if 2 * q ** 4 <= cfg.max_dense_n:
            d4 = graphs.build_d4(spec)
            lifted = closedform.lift_to_bipartite(s, q)
            repd = oracle.compare_spectra(lifted, oracle.numeric_spectrum(
                d4, max_dense_n=cfg.max_dense_n), tol=cfg.tol)
            check("bipartite lift vs numeric spectrum", repd.passed,
                  f"worst dev {repd.worst_dev:.2e}")

    return ok


def cmd_verify(cfg: RunConfig) -> int:
    lines: list[str] = []

    def report():
        text = "".join(line + "\n" for line in lines)
        if cfg.out:
            with open(cfg.out, "w") as fp:
                fp.write(text)
        sys.stdout.write(text)

    all_ok = True
    try:
        for q in cfg.q_list:
            all_ok &= _verify_one(q, cfg, lines)
    except oracle.VerificationError:
        # report the checks that already ran before the failure propagates
        report()
        raise
    lines.append("all checks passed" if all_ok else "VERIFICATION FAILURES PRESENT")
    report()
    return 0 if all_ok else 1


EPSILON_COLUMNS = ["family", "a", "c", "eps_exact", "eps_float",
                   "eps_sq_minus_q", "weil_margin", "fiber_profile"]


def cmd_epsilons(cfg: RunConfig) -> int:
    q = cfg.q_list[0]
    spec = _field(q)
    if q % 2 == 0:
        raise UsageError(f"q={q}: the cubic-sum tables exist for odd q only")
    reps_set = None
    if spec.e == 1 and spec.p >= 5:
        reps_set = closedform.representatives(spec.p)
    rows = []
    columns: dict = {}  # eps -> its columns, shared by the positions of an orbit
    for (a, c), eps, _mult in closedform.epsilon_family(spec):
        cols = columns.get(eps)
        if cols is None:
            cols = columns[eps] = {
                "eps_exact": f"{list(eps.coeffs)}@{eps.spec.n}",
                "eps_float": f"{cyclo.embed(eps).real:.10g}",
                "eps_sq_minus_q": closedform.ExactValue.eps_shift(eps, q).serial(),
                "weil_margin": f"{cyclo.weil_check(eps, q, 3).margin:.10g}",
            }
        if spec.p == 3:
            family = "t^3+3*c*t over GR(9,e), c = teich[%d]" % c
            fiber = "-"
        else:
            if reps_set is not None:
                ra, rc = reps_set.representative_of(a, c)
                family = f"class of {ra}*t^3+{rc}*t"
            else:
                family = "a*t^3+c*t"
            fiber = "-"
            if spec.e == 1:
                fiber = "|".join(str(x) for x in
                                 closedform.fiber_profile([0, c, 0, a], spec))
        rows.append({"family": family, "a": a, "c": c, **cols,
                     "fiber_profile": fiber})
    fmt = cfg.fmt or "csv"
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.DictWriter(buf, fieldnames=EPSILON_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    elif fmt == "table":
        widths = {k: max(len(k), *(len(str(r[k])) for r in rows))
                  for k in EPSILON_COLUMNS}
        buf.write("  ".join(k.ljust(widths[k]) for k in EPSILON_COLUMNS) + "\n")
        for r in rows:
            buf.write("  ".join(str(r[k]).ljust(widths[k])
                                for k in EPSILON_COLUMNS) + "\n")
    else:
        raise UsageError(f"unsupported format {fmt!r} for epsilons")
    text = buf.getvalue()
    stamp = _stamp(cfg)
    if stamp and fmt == "csv":
        text = f"# generated={stamp}\n" + text
    if cfg.out:
        with open(cfg.out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_ramanujan(cfg: RunConfig) -> int:
    reports = [oracle.expansion_report(q, source=cfg.source,
                                       max_dense_n=cfg.max_dense_n)
               for q in cfg.q_list]
    fmt = cfg.fmt or "table"
    if fmt == "json":
        text = oracle.reports_to_json(reports) + "\n"
    elif fmt == "table":
        text = oracle.expansion_table(reports) + "\n"
        text += "\n".join(r.verdict() for r in reports) + "\n"
    else:
        raise UsageError(f"unsupported format {fmt!r} for ramanujan")
    if cfg.out:
        with open(cfg.out, "w") as fp:
            fp.write(text)
    sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luspec",
        description="Spectra of the graphs D(4,q) and Gamma(4,q): "
                    "construction, closed forms, and cross-validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi_q=False):
        p.add_argument("--q", required=True,
                       help="prime power q" + (" (comma separated list)"
                                               if multi_q else ""))
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="comparison tolerance (default 1e-6)")
        p.add_argument("--max-dense-n", type=int,
                       default=int(os.environ.get("LUSPEC_MAX_DENSE_N",
                                                  oracle.DEFAULT_MAX_DENSE_N)),
                       help="dense eigensolver vertex budget")
        p.add_argument("--no-timestamp", action="store_true",
                       help="suppress timestamp headers for byte-stable output")

    p = sub.add_parser("build", help="construct a graph and export the edge list")
    common(p)
    p.add_argument("--graph", choices=["d4", "gamma"], default="gamma")

    p = sub.add_parser("spectrum", help="emit the eigenvalue multiset")
    common(p)
    p.add_argument("--graph", choices=["d4", "gamma"], default="gamma")
    p.add_argument("--source", choices=["closed", "numeric"], default="closed")
    p.add_argument("--format", dest="fmt", choices=["json", "csv", "table"])

    p = sub.add_parser("verify", help="run the cross-validation suite")
    common(p, multi_q=True)

    p = sub.add_parser("epsilons", help="tabulate the cubic exponential sums")
    common(p)
    p.add_argument("--format", dest="fmt", choices=["csv", "table"])

    p = sub.add_parser("ramanujan", help="expansion and Ramanujan verdicts")
    common(p, multi_q=True)
    p.add_argument("--source", choices=["closed", "numeric"], default="closed")
    p.add_argument("--format", dest="fmt", choices=["table", "json"])

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = RunConfig(
            command=args.command,
            q_list=_parse_q_list(args.q),
            graph=getattr(args, "graph", "gamma"),
            source=getattr(args, "source", "closed"),
            fmt=getattr(args, "fmt", None),
            out=args.out,
            tol=args.tol,
            max_dense_n=args.max_dense_n,
            timestamp=not args.no_timestamp)
        if cfg.command in ("build", "spectrum", "epsilons") and len(cfg.q_list) != 1:
            raise UsageError(f"{cfg.command} expects a single q")
        handler = {"build": cmd_build, "spectrum": cmd_spectrum,
                   "verify": cmd_verify, "epsilons": cmd_epsilons,
                   "ramanujan": cmd_ramanujan}[cfg.command]
        return handler(cfg)
    except oracle.VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():  # console-script wrapper
    sys.exit(main())
