"""Command-line front door: build, spectrum, verify, epsilons, ramanujan.

Exit codes: 0 all checks pass, 1 verification failure (a failed check, or an
invariant guard's RuntimeError), 2 usage/config error (an unwritable --out
included: it is opened before the command computes, but emptied only by the
command's first write, so a usage error leaves an existing file as it was).
Every command takes --q, --out and --no-timestamp; the parser adds the other
flags only to the commands that read them.  Outputs are deterministic: build,
spectrum json and epsilons csv carry a timestamp unless --no-timestamp is
given.  With --out, spectrum and epsilons write only the file, verify and
ramanujan also print it, and build writes the edge list and F.coords.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import sys
import types
from datetime import datetime, timezone
from functools import cache

from . import closedform, cyclo, ff, graphs, oracle


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
        # prime powers are checked by ff.field_for, with one message everywhere
        out.append(q)
    return out


def _tolerance(text: str) -> float:
    """--tol as a finite float >= 0; argparse exits 2 on anything else."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:  # false for nan too
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return tol


def _stamp(args) -> str | None:
    if args.no_timestamp:
        return None
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _empty(fp):
    """Empty a file that main opened to append.  A pipe or a device holds nothing
    to empty (and refuses ftruncate), so only a file with content is truncated."""
    if fp.seekable() and fp.tell():
        fp.truncate(0)


def _write(args, text, echo: bool = False):
    """Write text (a str or str chunks) to the open --out, else to stdout; with
    echo, to both.  Each command calls it once, and it empties --out first."""
    if args.out:
        _empty(args.out)
    sinks = [args.out, sys.stdout] if echo and args.out else [args.out or sys.stdout]
    for chunk in [text] if isinstance(text, str) else text:
        for sink in sinks:
            sink.write(chunk)


def _spectrum_json(s: closedform.SpectrumMultiset, stamp: str | None):
    """``json.dumps(s.to_json_dict() (+ "generated": stamp), indent=2) + "\\n"``, one
    chunk per entry; strings take the encoder's own escaping, floats float.__repr__."""
    enc = json.encoder.encode_basestring_ascii
    head = '{\n  "graph": %s,\n  "q": %d,\n  "entries": [' % (enc(s.graph), s.q)
    for e in s.entries:
        yield head + ('\n    {\n      "value_exact": %s,\n      "value_float": %s,\n'
                      '      "multiplicity": %d\n    }') % (
            enc(e.value.serial()), float.__repr__(e.approx), e.multiplicity)
        head = ","
    tail = ',\n  "generated": %s' % enc(stamp) if stamp else ""
    yield '\n  ],\n  "total": %d%s\n}\n' % (s.total, tail)


# ----------------------------------------------------------------------

def cmd_build(args) -> int:
    spec = ff.field_for(args.q[0])
    builder = graphs.build_d4 if args.graph == "d4" else graphs.build_gamma
    adj = builder(spec)
    stamp = _stamp(args)
    # streamed: joining the edge list into one string would raise peak RSS
    if args.out:
        _empty(args.out)
        _empty(args.coords)
        graphs.write_edge_list(adj, args.out, timestamp=stamp)
        graphs.write_coordinate_dict(adj, args.coords, timestamp=stamp)
        print(f"wrote {adj.num_edges} edges to {args.out.name} "
              f"(+ coordinate dictionary)")
    else:
        graphs.write_edge_list(adj, sys.stdout, timestamp=stamp)
    return 0


def cmd_spectrum(args) -> int:
    q = args.q[0]
    spec = ff.field_for(q)
    if args.source == "closed":
        s = closedform.spectrum_closed(spec)
        if args.graph == "d4":
            s = closedform.lift_to_bipartite(s, q)
        if args.format == "json":
            text = _spectrum_json(s, _stamp(args))  # streamed: no whole-output copy
        else:
            sep = "," if args.format == "csv" else "  "
            rows = [sep.join(["value_float", "multiplicity", "value_exact"])]
            for e in s.entries:
                rows.append(sep.join([f"{e.approx:.12g}", str(e.multiplicity),
                                      e.value.serial()]))
    else:
        builder = graphs.build_d4 if args.graph == "d4" else graphs.build_gamma
        nspec = oracle.numeric_spectrum(builder(spec), max_dense_n=args.max_dense_n)
        vals = nspec.values.tolist()
        doc = {"graph": args.graph.upper(), "q": q, "source": "numeric",
               "eigenvalues": vals}
        rows = [f"{v:.12g}" for v in vals]
    if args.format != "json":
        text = "\n".join(rows) + "\n"
    elif args.source == "numeric":
        stamp = _stamp(args)
        if stamp:
            doc["generated"] = stamp
        text = json.dumps(doc, indent=2) + "\n"
    _write(args, text)
    return 0


def _verify_one(spec: ff.FieldSpec, args, lines: list[str]) -> bool:
    q, ok = spec.q, True

    def check(name: str, passed: bool, detail: str = ""):
        nonlocal ok
        ok &= passed
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"[{status}] q={q} {name}{suffix}\n")

    # the closed forms sum to q^3 - 1, the nonzero polynomials, and give even q's
    # cubics no key 2: equality also checks the total and that no cubic has 2 roots
    check("quadratic root-count profile",
          ff.quadratic_root_profile(spec) == ff.quadratic_profile_expected(q))
    if q % 2 == 0:
        check("cubic nonzero-root profile",
              ff.cubic_root_profile_even(spec) == ff.cubic_even_profile_expected(q))

    orbits = None
    if q % 2 == 1:
        # positions on one scaling orbit share their sum: one margin per orbit, from
        # the rows the closed form reads too; 1e-9 forgives the float error of |eps|
        orbits = closedform.epsilon_orbits(spec)
        check("Weil bound over the cubic family",
              cyclo.weil_check(orbits.bases[0].spec, orbits.eps, q).min() >= -1e-9)

    try:
        s = closedform.spectrum_closed(spec, orbits)
    except closedform.VerificationError as exc:  # assemble found a total other than q^4
        check("closed-form degree conservation", False, str(exc))
        return ok  # no spectrum for the graph checks to compare with
    check("closed-form degree conservation", s.total == q ** 4)

    if q <= graphs.DEFAULT_MAX_GRAPH_Q:
        gamma = graphs.gamma_slabs(spec)  # Gamma's slab pair: the BFS reads its rows there
        check("Cayley graph matches collinearity graph", graphs.cayley_matches_gamma(spec, gamma))
        ncomp, _ = graphs.connected_components(gamma)
        check("component count equals top multiplicity",
              ncomp == s.largest.multiplicity)
        if q ** 4 <= args.max_dense_n:  # only the oracle needs Gamma's rows whole
            rep = oracle.compare_spectra(s, oracle.numeric_spectrum(
                graphs.build_gamma(spec), max_dense_n=args.max_dense_n), tol=args.tol)
            check("closed form vs numeric spectrum", rep.passed,
                  f"worst dev {rep.worst_dev:.2e}")
        if 2 * q ** 4 <= args.max_dense_n:
            d4 = graphs.build_d4(spec)
            lifted = closedform.lift_to_bipartite(s, q)
            repd = oracle.compare_spectra(lifted, oracle.numeric_spectrum(
                d4, max_dense_n=args.max_dense_n), tol=args.tol)
            check("bipartite lift vs numeric spectrum", repd.passed,
                  f"worst dev {repd.worst_dev:.2e}")

    return ok


def cmd_verify(args) -> int:
    lines: list[str] = []
    all_ok = True
    try:
        for spec in [ff.field_for(q) for q in args.q]:  # a bad q exits 2 before any computes
            all_ok &= _verify_one(spec, args, lines)
    except (closedform.VerificationError, RuntimeError):
        # report the checks that already ran before the failure propagates
        _write(args, "".join(lines), echo=True)
        raise
    lines.append("all checks passed\n" if all_ok else "VERIFICATION FAILURES PRESENT\n")
    _write(args, "".join(lines), echo=True)
    return 0 if all_ok else 1


EPSILON_COLUMNS = ["family", "a", "c", "eps_exact", "eps_float",
                   "eps_sq_minus_q", "weil_margin", "fiber_profile"]


def cmd_epsilons(args) -> int:
    q = args.q[0]
    spec = ff.field_for(q)
    if q % 2 == 0:
        raise UsageError(f"q={q}: the cubic-sum tables exist for odd q only")
    table = closedform.epsilon_orbits(spec)
    # every orbit's eps and eps^2: sigma_j permutes a base's square as it does the base
    cspec, eps, squares = table.bases[0].spec, table.eps, table.square_rows(slice(None))
    a, c = table.first  # each orbit's first position: its family and fiber cells are read there
    if spec.e == 1 and spec.p >= 5:
        # the representatives' sums are pairwise distinct, so eps fixes the class; over
        # F_p, eps = sum_s |f^-1(s)| zeta^s and the counts sum to p, so eps fixes the profile
        families = ["class of %d*t^3+%d*t" % rc for rc in
                    zip(*closedform.representatives(spec.p).representative_of(a, c))]
        fibers = ["|".join(map(str, f)) for f in closedform.fiber_profile([0, c, 0, a], spec)]
    else:
        families = ["t^3+3*c*t over GR(9,e), c = teich[%d]" % x if spec.p == 3
                    else "a*t^3+c*t" for x in c.tolist()]
        fibers = ["-"] * len(families)
    orbits = []
    for e, sq, text, x, margin, family, fiber in zip(
            eps, squares, cyclo.format_rows(eps), cyclo.embed_rows(cspec, eps).tolist(),
            cyclo.weil_check(cspec, eps, q).tolist(), families, fibers):
        shift = closedform.ExactValue.eps2q(cspec, e, sq, math.nan, q)  # for its serial
        shift.text = text  # formatted above, with the other orbits' rows
        orbits.append([family, f"{text}@{cspec.n}", f"{x:.10g}", shift.serial(),
                       f"{margin:.10g}", fiber])
    # each orbit's cells become the text before a and the text after c
    if args.format == "csv":
        line = csv.writer(types.SimpleNamespace(write=str)).writerow  # returns the line
        header, sep, wa, wc = line(EPSILON_COLUMNS), ",", 0, 0
        heads, tails = zip(*[(line(o[:1])[:-2] + ",", "," + line(o[1:])) for o in orbits])
    else:
        widths = [max(map(len, col)) for col in
                  zip(EPSILON_COLUMNS[:1] + EPSILON_COLUMNS[3:], *orbits)]
        sep, wa, wc = "  ", len(str(table.rows[-1])), len(str(q - 1))
        header = "  ".join(k.ljust(w) for k, w in
                           zip(EPSILON_COLUMNS, [widths[0], wa, wc, *widths[1:]])) + "\n"
        heads, tails = zip(*[(o[0].ljust(widths[0]) + "  ", "  " + "  ".join(
            x.ljust(w) for x, w in zip(o[1:], widths[1:])) + "\n") for o in orbits])
    a_text = [str(x).ljust(wa) + sep for x in range(q)]
    c_text = [str(x).ljust(wc) for x in range(q)]
    stamp = _stamp(args)
    header = (f"# generated={stamp}\n" if stamp and args.format == "csv" else "") + header
    # each row a of the table in blocks of at most 1,024 positions (a, c), each between
    # the cells of its orbit k
    blocks = ("".join([f"{heads[k]}{a_text[a]}{ct}{tails[k]}" for k, ct in
                       zip(ks[lo:lo + 1024], c_text[lo:lo + 1024])])
              for a, ks in closedform.epsilon_family(table) for lo in range(0, q, 1024))
    _write(args, itertools.chain([header], blocks))  # streamed: never the whole table at once
    return 0


def cmd_ramanujan(args) -> int:
    reports = [oracle.expansion_report(q, source=args.source,
                                       max_dense_n=args.max_dense_n)
               for q in args.q]
    if args.format == "json":
        text = oracle.reports_to_json(reports) + "\n"
    else:
        text = oracle.expansion_table(reports) + "\n"
        text += "\n".join(r.verdict() for r in reports) + "\n"
    _write(args, text, echo=True)
    return 0


# ----------------------------------------------------------------------

@cache  # one parser per process; parse_args fills a fresh namespace each call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luspec",
        description="Spectra of the graphs D(4,q) and Gamma(4,q): "
                    "construction, closed forms, and cross-validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, multi_q=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--q", required=True,
                       help="prime power q" + (" (comma separated list)"
                                               if multi_q else ""))
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="suppress timestamp headers for byte-stable output")
        return p

    def max_dense_n(p):
        p.add_argument("--max-dense-n", type=int, default=oracle.DEFAULT_MAX_DENSE_N,
                       help="numeric eigensolver vertex budget (default %d)"
                            % oracle.DEFAULT_MAX_DENSE_N)

    p = command("build", cmd_build, "construct a graph and export the edge list")
    p.add_argument("--graph", choices=["d4", "gamma"], default="gamma")

    p = command("spectrum", cmd_spectrum, "emit the eigenvalue multiset")
    p.add_argument("--graph", choices=["d4", "gamma"], default="gamma")
    p.add_argument("--source", choices=["closed", "numeric"], default="closed")
    p.add_argument("--format", choices=["json", "csv", "table"], default="json")
    max_dense_n(p)

    p = command("verify", cmd_verify, "run the cross-validation suite", multi_q=True)
    p.add_argument("--tol", type=_tolerance, default=1e-6,
                   help="comparison tolerance (default 1e-6)")
    max_dense_n(p)

    p = command("epsilons", cmd_epsilons, "tabulate the cubic exponential sums")
    p.add_argument("--format", choices=["csv", "table"], default="csv")

    p = command("ramanujan", cmd_ramanujan, "expansion and Ramanujan verdicts",
                multi_q=True)
    p.add_argument("--source", choices=["closed", "numeric"], default="closed")
    p.add_argument("--format", choices=["table", "json"], default="table")
    max_dense_n(p)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        args.q = _parse_q_list(args.q)
        if args.command in ("build", "spectrum", "epsilons") and len(args.q) != 1:
            raise UsageError(f"{args.command} expects a single q")
        if getattr(args, "max_dense_n", 0) < 0:  # 0 is a budget that admits no graph
            raise UsageError(f"--max-dense-n {args.max_dense_n} is negative")
        with contextlib.ExitStack() as files:
            # opened before the command computes, so a bad path costs nothing; to
            # append, so that a usage error the command finds leaves the file alone
            if args.out:
                args.out = files.enter_context(open(args.out, "a"))
                if args.command == "build":
                    args.coords = files.enter_context(open(args.out.name + ".coords.json", "a"))
            return args.handler(args)
    except (closedform.VerificationError, RuntimeError) as exc:  # a failed check or guard
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
