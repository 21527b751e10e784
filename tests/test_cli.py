import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from luspec import cli, closedform, cyclo, ff, graphs, oracle


def run(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_gamma_stdout(capsys):
    code, out, _ = run(capsys, ["build", "--q", "3", "--graph", "gamma",
                                "--no-timestamp"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# graph=GAMMA4 q=3 vertices=81 edges=243 indexing=base-q"
    assert len(lines) == 1 + 243


def test_build_d4_files(tmp_path, capsys):
    out = tmp_path / "d42.edges"
    code, _, _ = run(capsys, ["build", "--q", "2", "--graph", "d4",
                              "--out", str(out), "--no-timestamp"])
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0].startswith("# graph=D4 q=2 vertices=32 edges=32")
    coords = json.loads((tmp_path / "d42.edges.coords.json").read_text())
    assert len(coords["coords"]) == 32


def test_build_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, ["build", "--q", "1"])
    assert code == 2 and "prime power" in err
    code, _, err = run(capsys, ["build", "--q", "12"])
    assert code == 2


def test_spectrum_closed_q5(capsys):
    code, out, _ = run(capsys, ["spectrum", "--q", "5", "--source", "closed",
                                "--no-timestamp"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 625
    mults = {e["value_exact"]: e["multiplicity"] for e in doc["entries"]}
    assert mults["20"] == 1 and mults["0"] == 220 and mults["-5"] == 164


def test_spectrum_numeric_q3(capsys):
    code, out, _ = run(capsys, ["spectrum", "--q", "3", "--source", "numeric",
                                "--format", "csv", "--no-timestamp"])
    assert code == 0
    assert len(out.splitlines()) == 81


def test_spectrum_rejects_q6(capsys):
    code, _, err = run(capsys, ["spectrum", "--q", "6", "--source", "closed"])
    assert code == 2 and "prime power" in err


def test_verify_small(capsys):
    code, out, _ = run(capsys, ["verify", "--q", "2,3", "--no-timestamp"])
    assert code == 0
    assert "all checks passed" in out
    assert "[FAIL]" not in out


def test_verify_empty_list(capsys):
    code, _, err = run(capsys, ["verify", "--q", " "])
    assert code == 2


def test_verify_non_prime_power_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "--q", "3,6"])
    assert code == 2 and "prime power" in err


def test_verify_checks_every_q_before_computing_any(capsys):
    # q = 4093 alone takes about a second; q = 6 is refused before it starts
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["verify", "--q", "4093,6", "--no-timestamp"])
    assert code == 2 and out == "" and "q=6 is not a prime power" in err
    assert time.perf_counter() - t0 < 0.5


def test_verify_total_mismatch_exits_1(capsys, monkeypatch):
    real = oracle.numeric_spectrum

    def short(adj, **kw):
        return oracle.NumericSpectrum(real(adj, **kw).values[1:])

    monkeypatch.setattr(oracle, "numeric_spectrum", short)
    code, _, err = run(capsys, ["verify", "--q", "3", "--no-timestamp"])
    assert code == 1 and "total mismatch 81 vs 80" in err


def test_verify_failure_keeps_earlier_pass_lines(capsys, monkeypatch, tmp_path):
    real = oracle.numeric_spectrum

    def short(adj, **kw):
        return oracle.NumericSpectrum(real(adj, **kw).values[1:])

    monkeypatch.setattr(oracle, "numeric_spectrum", short)
    report = tmp_path / "report.txt"
    code, out, err = run(capsys, ["verify", "--q", "2,3", "--no-timestamp",
                                  "--out", str(report)])
    assert code == 1 and "total mismatch 16 vs 15" in err
    assert out.splitlines() == [
        "[PASS] q=2 quadratic root-count profile",
        "[PASS] q=2 cubic nonzero-root profile",
        "[PASS] q=2 closed-form degree conservation",
        "[PASS] q=2 Cayley graph matches collinearity graph",
        "[PASS] q=2 component count equals top multiplicity",
    ]
    assert report.read_text() == out


def test_verify_moment_failure_exits_1(capsys, monkeypatch):
    real = oracle.np.linalg.eigvalsh
    monkeypatch.setattr(oracle.np.linalg, "eigvalsh",
                        lambda a, **kw: real(a, **kw) + 1.0)
    code, _, err = run(capsys, ["verify", "--q", "3", "--no-timestamp"])
    assert code == 1 and "deviates from 0" in err


def test_verify_sums_each_odd_q_once(capsys, monkeypatch):
    # the Weil check and the closed form share one orbit table per odd q
    calls = []
    real = closedform.epsilon_orbits
    monkeypatch.setattr(closedform, "epsilon_orbits",
                        lambda spec: calls.append(spec.q) or real(spec))
    code, out, _ = run(capsys, ["verify", "--q", "3,5,7", "--no-timestamp"])
    assert code == 0 and out.endswith("all checks passed\n")
    assert calls == [3, 5, 7]


def test_verify_fails_a_sum_outside_the_weil_bound(capsys, monkeypatch):
    # one orbit's base histogram puts all q on exponent 0: eps = q > 2*sqrt(q)
    real = closedform.epsilon_orbits

    def mutant(spec):
        table = real(spec)
        hist = table.base_hist.copy()
        hist[-1] = 0
        hist[-1, 0] = spec.q
        return dataclasses.replace(table, base_hist=hist)

    monkeypatch.setattr(closedform, "epsilon_orbits", mutant)
    code, out, _ = run(capsys, ["verify", "--q", "7", "--max-dense-n", "0",
                                "--no-timestamp"])
    assert code == 1
    assert "[FAIL] q=7 Weil bound over the cubic family\n" in out
    assert out.endswith("VERIFICATION FAILURES PRESENT\n")


def test_verify_checks_the_weil_bound_without_per_orbit_sums(capsys, monkeypatch):
    # the margins come from the table's rows in one call: no embed, and CycInts
    # only for each Galois base's sum and its square
    table = closedform.epsilon_orbits(ff.field_for(967))
    calls = {"__init__": 0, "embed": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cyclo.CycInt, "__init__", counted(cyclo.CycInt.__init__))
    monkeypatch.setattr(cyclo, "embed", counted(cyclo.embed))  # closedform reaches it only here
    code, out, _ = run(capsys, ["verify", "--q", "967", "--no-timestamp"])
    assert code == 0 and out.endswith("all checks passed\n")
    assert len(table.mults) == 967 + 2
    assert calls == {"__init__": 2 * len(table.bases), "embed": 0}


def test_verify_untranslatable_graph_exits_1(capsys, monkeypatch, two_switch):
    # verify builds Gamma's full rows, with slab_rows, only for the numeric oracle
    real = graphs.slab_rows
    monkeypatch.setattr(graphs, "slab_rows", lambda low, high: two_switch(
        graphs.AdjacencyStructure("GAMMA4", 3, 81, real(low, high))).neighbors)
    code, _, err = run(capsys, ["verify", "--q", "3", "--no-timestamp"])
    assert code == 1 and "not automorphisms" in err


def test_verify_cayley_mismatch_in_the_last_slab_fails(capsys, monkeypatch):
    # q = 9 has nine c4 slabs of 729 rows; only the last slab reads high[q-1]
    real = graphs.cayley_slabs

    def corrupted(spec):
        low, high = real(spec)
        high[-1, 0] = (high[-1, 0] + 1) % spec.q  # column 0 of the last slab moves
        return low, high

    monkeypatch.setattr(graphs, "cayley_slabs", corrupted)
    code, out, _ = run(capsys, ["verify", "--q", "9", "--no-timestamp"])
    assert code == 1
    assert "[FAIL] q=9 Cayley graph matches collinearity graph\n" in out
    assert out.endswith("VERIFICATION FAILURES PRESENT\n")


def test_verify_fails_a_vertex_map_that_moves_c4(capsys, monkeypatch):
    # sigma stays a bijection, but two points of different c4 slabs trade places
    real = graphs.cayley_vertex_map

    def swapped(spec):
        sigma = real(spec)
        sigma[[0, -1]] = sigma[[-1, 0]]
        return sigma

    monkeypatch.setattr(graphs, "cayley_vertex_map", swapped)
    code, out, _ = run(capsys, ["verify", "--q", "9", "--no-timestamp"])
    assert code == 1
    assert "[FAIL] q=9 Cayley graph matches collinearity graph\n" in out
    assert out.endswith("VERIFICATION FAILURES PRESENT\n")


def test_verify_gamma_mismatch_in_the_last_slab_fails(capsys, monkeypatch):
    # a corrupted Gamma row, not a Cayley row: ghigh[q-1] is read only by the
    # last slab (c4 = q - 1), and the corruption keeps every entry below q
    real = graphs.gamma_slabs

    def corrupted(spec):
        glow, ghigh = real(spec)
        ghigh[-1, 0] = (ghigh[-1, 0] + 1) % spec.q
        return glow, ghigh

    monkeypatch.setattr(graphs, "gamma_slabs", corrupted)
    code, out, _ = run(capsys, ["verify", "--q", "9", "--max-dense-n", "2401",
                                "--no-timestamp"])
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
        "[FAIL] q=9 Cayley graph matches collinearity graph"]
    assert out.endswith("VERIFICATION FAILURES PRESENT\n")


def test_verify_fails_one_changed_cell_of_gamma_low_digits(capsys, monkeypatch):
    # the last point row of the w-free grid, column 0, moves by one within [0, q^3):
    # every slab's row with those low digits changes, and only there
    real = graphs.gamma_slabs

    def corrupted(spec):
        glow, ghigh = real(spec)
        glow[-1, 0] = (glow[-1, 0] + 1) % spec.q ** 3
        return glow, ghigh

    monkeypatch.setattr(graphs, "gamma_slabs", corrupted)
    code, out, _ = run(capsys, ["verify", "--q", "5", "--max-dense-n", "0",
                                "--no-timestamp"])
    assert code == 1
    assert "[FAIL] q=5 Cayley graph matches collinearity graph\n" in out
    assert out.endswith("VERIFICATION FAILURES PRESENT\n")


def test_verify_passes_past_the_graph_bound(capsys):
    # above graphs.DEFAULT_MAX_GRAPH_Q: the profiles, the Weil bound and the total
    code, out, _ = run(capsys, ["verify", "--q", "211,243,256,343", "--no-timestamp"])
    lines = out.splitlines()
    assert code == 0 and lines.pop() == "all checks passed"
    assert len(lines) == 12 and all(line.startswith("[PASS] ") for line in lines)


def test_verify_fails_a_broken_field_on_its_root_profile(capsys, monkeypatch,
                                                          swapped_field):
    broken = swapped_field(8)
    monkeypatch.setattr(ff, "field_for", lambda q: broken)
    code, out, _ = run(capsys, ["verify", "--q", "8", "--max-dense-n", "0",
                                "--no-timestamp"])
    assert code == 1
    assert out.startswith("[FAIL] q=8 quadratic root-count profile\n")
    assert out.endswith("VERIFICATION FAILURES PRESENT\n")


def test_verify_peak_memory_is_below_two_neighbour_matrices():
    # no (q^4, q^2 - q) matrix above the dense budget: Gamma and Cay(G,S) are
    # compared, and Gamma's components counted, on their w-free low digits and
    # c4 digits, 0.69 MB each at q = 13, against the 8.9 MB of Gamma(4,13)'s rows
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--q", "13", "--max-dense-n", "2401",
                             "--no-timestamp"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 13 ** 4 * 156 * 2


def test_verify_builds_no_rows_above_the_dense_budget(capsys, monkeypatch):
    # the component count reads Gamma's slab pair; only the oracle needs its rows
    def refuse(low, high):
        raise AssertionError("slab_rows called above the dense budget")

    monkeypatch.setattr(graphs, "slab_rows", refuse)
    code, out, _ = run(capsys, ["verify", "--q", "8,9,11,13", "--max-dense-n", "2401",
                                "--no-timestamp"])
    assert code == 0 and out.endswith("all checks passed\n")
    assert out.count("component count equals top multiplicity") == 4


def test_epsilons_q5_shows_merge(capsys):
    import csv
    import io
    code, out, _ = run(capsys, ["epsilons", "--q", "5", "--no-timestamp"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["family", "a", "c", "eps_exact", "eps_float",
                             "eps_sq_minus_q", "weil_margin", "fiber_profile"]
    # c = 2 and c = 3 rows both collapse to eigenvalue shift 0
    merged = [r for r in rows if r["eps_sq_minus_q"] == "0"]
    assert len(merged) == 2
    assert any(r["fiber_profile"] == "1|0|2|2|0" for r in merged)


def test_epsilons_q13_contains_extreme_sum(capsys):
    import csv
    import io
    code, out, _ = run(capsys, ["epsilons", "--q", "13", "--no-timestamp"])
    assert code == 0
    rows = [r for r in csv.DictReader(io.StringIO(out))
            if r["a"] == "4" and r["c"] == "0"]
    assert rows and rows[0]["eps_float"] == "-6.953280227"


ODD_PRIME_POWERS_TO_31 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31]


@pytest.mark.parametrize("fmt", ["csv", "table"])
@pytest.mark.parametrize("q", ODD_PRIME_POWERS_TO_31 + [61, 81, 125, 169])
def test_epsilons_match_row_loop(q, fmt, capsys, epsilons_reference):
    code, out, _ = run(capsys, ["epsilons", "--q", str(q), "--format", fmt,
                                "--no-timestamp"])
    assert code == 0 and out == epsilons_reference(q, fmt)


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_epsilons_file_is_written_in_blocks_of_rows(fmt, tmp_path):
    # the rows go to the file a block at a time: the table is never one string
    closedform.epsilon_orbits(ff.field_for(169))  # the cached field and cyclotomic spec
    path = tmp_path / f"eps.{fmt}"
    tracemalloc.start()
    try:
        assert cli.main(["epsilons", "--q", "169", "--format", fmt, "--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


def test_epsilons_out_file_with_timestamp(tmp_path, capsys):
    _, stdout, _ = run(capsys, ["epsilons", "--q", "13", "--no-timestamp"])
    path = tmp_path / "eps.csv"
    code, out, _ = run(capsys, ["epsilons", "--q", "13", "--out", str(path)])
    assert code == 0 and out == ""
    stamp, rest = path.read_bytes().split(b"\n", 1)
    assert stamp.startswith(b"# generated=") and rest == stdout.encode()


def test_epsilons_format_each_orbit_once(capsys, monkeypatch):
    # the cells come from the orbit table in one block: a representative and a
    # fiber profile per orbit, one square per Galois base, no per-orbit sums and
    # one bulk Weil check
    table = closedform.epsilon_orbits(ff.field_for(61))
    calls = {"representative_of": 0, "fiber_profile": 0, "__mul__": 0, "embed": 0,
             "weil_check": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(closedform.RepresentativeSet, "representative_of",
                        counted(closedform.RepresentativeSet.representative_of))
    monkeypatch.setattr(closedform, "fiber_profile", counted(closedform.fiber_profile))
    monkeypatch.setattr(cyclo.CycInt, "__mul__", counted(cyclo.CycInt.__mul__))
    monkeypatch.setattr(cyclo, "embed", counted(cyclo.embed))  # closedform reaches it only here
    monkeypatch.setattr(cyclo, "weil_check", counted(cyclo.weil_check))
    code, out, _ = run(capsys, ["epsilons", "--q", "61", "--no-timestamp"])
    assert code == 0 and len(table.mults) == 61 + 2
    assert calls == {"representative_of": 61 + 2, "fiber_profile": 61 + 2,
                     "__mul__": len(table.bases), "embed": 0, "weil_check": 1}
    assert out.count("\r\n") == 1 + 60 * 61


@pytest.mark.parametrize("fmt, bound", [("csv", 3.5), ("table", 4.0)])
def test_epsilons_peak_memory_is_a_small_multiple_of_the_output(fmt, bound):
    # the field and the cyclotomic spec are cached per q: build them first, so
    # that the peak is the command's own
    closedform.epsilon_orbits(ff.field_for(169))
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(["epsilons", "--q", "169", "--format", fmt,
                             "--no-timestamp"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(out.getvalue())


def test_epsilons_rejects_even_q(capsys):
    code, _, err = run(capsys, ["epsilons", "--q", "8"])
    assert code == 2 and "odd" in err


def test_ramanujan_q13(capsys):
    code, out, _ = run(capsys, ["ramanujan", "--q", "13", "--no-timestamp"])
    assert code == 0
    assert "NOT Ramanujan (margin -0.0251)" in out


def test_ramanujan_json_multi(capsys):
    code, out, _ = run(capsys, ["ramanujan", "--q", "19,37", "--format",
                                "json", "--no-timestamp"])
    assert code == 0
    docs = json.loads(out)
    assert [d["ramanujan"] for d in docs] == [False, False]


def test_usage_errors_exit_2(capsys):
    assert cli.main(["spectrum"]) == 2          # missing --q
    assert cli.main(["no-such-command"]) == 2
    code, _, err = run(capsys, ["build", "--q", "2,3"])
    assert code == 2 and "single q" in err
    # a tolerance that is negative, nan or infinite is a usage error, not a FAIL
    for tol in ("-1", "nan", "inf"):
        code, out, err = run(capsys, ["verify", "--q", "2", "--tol", tol])
        assert code == 2 and out == "" and "argument --tol" in err, tol


@pytest.mark.parametrize("argv", [["verify", "--q", "5"], ["spectrum", "--q", "5"],
                                  ["epsilons", "--q", "5"], ["build", "--q", "3"]])
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    # a file that cannot be opened is a usage error: for verify, 1 would read as a FAIL
    for target in (tmp_path / "missing" / "x", tmp_path):  # no such directory; a directory
        code, out, err = run(capsys, argv + ["--out", str(target), "--no-timestamp"])
        assert code == 2 and out == "" and err.startswith("error: "), (target, err)
        assert "Traceback" not in err


def _refuse(*args):
    raise RuntimeError("computed before --out was opened")


@pytest.mark.parametrize("argv, owner, attr, target", [
    (["spectrum", "--q", "5"], closedform, "spectrum_closed", "missing/x"),
    (["verify", "--q", "5"], closedform, "epsilon_orbits", "missing/x"),
    # the edge list can be opened, its coordinate dictionary cannot
    (["build", "--q", "3"], graphs, "build_gamma", "x"),
], ids=["spectrum", "verify", "build"])
def test_out_is_opened_before_the_command_computes(argv, owner, attr, target, tmp_path,
                                                    capsys, monkeypatch):
    (tmp_path / "x.coords.json").mkdir()
    monkeypatch.setattr(owner, attr, _refuse)
    code, out, err = run(capsys, argv + ["--out", str(tmp_path / target), "--no-timestamp"])
    assert code == 2 and out == "" and err.startswith("error: "), err


def test_a_wrong_closed_form_total_exits_1(capsys, monkeypatch):
    # a spectrum that fails its degree count is a failed verification, not a usage
    # error: the degree check prints FAIL, that q's graph checks are skipped, and
    # verify goes on to the next q
    real = closedform.SpectrumMultiset.assemble.__func__

    def assemble(cls, graph, q, pairs, expected_total):
        (value, mult), *rest = pairs
        return real(cls, graph, q, [(value, mult + 1), *rest], expected_total)

    monkeypatch.setattr(closedform.SpectrumMultiset, "assemble", classmethod(assemble))
    code, out, err = run(capsys, ["verify", "--q", "3,5", "--no-timestamp"])
    assert code == 1 and err == ""
    assert out == ("[PASS] q=3 quadratic root-count profile\n"
                   "[PASS] q=3 Weil bound over the cubic family\n"
                   "[FAIL] q=3 closed-form degree conservation"
                   "  (multiset totals 82, expected 81)\n"
                   "[PASS] q=5 quadratic root-count profile\n"
                   "[PASS] q=5 Weil bound over the cubic family\n"
                   "[FAIL] q=5 closed-form degree conservation"
                   "  (multiset totals 626, expected 625)\n"
                   "VERIFICATION FAILURES PRESENT\n")


_UNSEEN_ID_VERIFY = """
import sys
import numpy as np
from luspec import cli, closedform
real = closedform._raw_id
closedform._raw_id = lambda spec, a, c: np.maximum(real(spec, a, c), 1)  # never id 0
sys.exit(cli.main(["verify", "--q", "2,11", "--no-timestamp"]))
"""


def test_a_failed_guard_exits_1_with_a_report():
    # the orbit table's guard raises RuntimeError at q = 11 (see test_closedform's
    # test_orbit_table_guards_an_unseen_orbit): verify prints the lines it has and
    # the guard's message, with no traceback, also with asserts stripped
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", _UNSEEN_ID_VERIFY],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, (flags, proc.stderr)
        assert proc.stderr == "error: q=11: a scaling orbit is met at no position\n"
        lines = proc.stdout.splitlines()
        assert lines[-1] == "[PASS] q=11 quadratic root-count profile"
        assert len(lines) > 1 and all(line.startswith("[PASS] q=2 ") for line in lines[:-1])


@pytest.mark.parametrize("argv", [["spectrum", "--q", "6"], ["epsilons", "--q", "8"],
                                  ["build", "--q", "16"], ["verify", "--q", "5,6"]])
def test_a_usage_error_leaves_an_existing_out_as_it_was(argv, tmp_path, capsys):
    # --out is opened to append, and emptied only by the command's first write
    path = tmp_path / "F"
    path.write_bytes(b"kept\n")
    code, out, err = run(capsys, argv + ["--out", str(path), "--no-timestamp"])
    assert code == 2 and out == "" and err.startswith("error: "), err
    assert path.read_bytes() == b"kept\n"


def test_out_replaces_an_existing_file_and_takes_devices(tmp_path, capsys):
    path = tmp_path / "F"
    path.write_text("an older, longer output\n" * 100)
    assert cli.main(["spectrum", "--q", "3", "--format", "csv", "--out", str(path),
                     "--no-timestamp"]) == 0
    assert cli.main(["spectrum", "--q", "3", "--format", "csv", "--out", os.devnull,
                     "--no-timestamp"]) == 0  # a device: nothing to empty
    assert cli.main(["spectrum", "--q", "3", "--format", "csv", "--no-timestamp"]) == 0
    assert path.read_text() == capsys.readouterr().out
    # build empties both of its files
    coords = tmp_path / "F.coords.json"
    coords.write_text("x" * 10 ** 5)
    assert cli.main(["build", "--q", "2", "--out", str(path), "--no-timestamp"]) == 0
    capsys.readouterr()
    assert cli.main(["build", "--q", "2", "--no-timestamp"]) == 0
    assert path.read_text() == capsys.readouterr().out
    assert json.loads(coords.read_text())["vertices"] == 16


def test_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for path in (a, b):
        assert cli.main(["spectrum", "--q", "5", "--out", str(path),
                         "--no-timestamp"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c", tmp_path / "d"
    for path in (c, d):
        assert cli.main(["build", "--q", "3", "--out", str(path),
                         "--no-timestamp"]) == 0
    capsys.readouterr()
    assert c.read_bytes() == d.read_bytes()


def test_bad_max_dense_n_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["spectrum", "--q", "2", "--max-dense-n", "abc",
                                  "--no-timestamp"])
    assert code == 2 and out == ""
    assert "--max-dense-n: invalid int value: 'abc'" in err
    for argv in (["verify", "--q", "5"], ["spectrum", "--q", "2", "--source", "numeric"]):
        code, out, err = run(capsys, argv + ["--max-dense-n", "-1", "--no-timestamp"])
        assert code == 2 and out == ""
        assert "--max-dense-n -1 is negative" in err
    code, _, err = run(capsys, ["spectrum", "--q", "2", "--source", "numeric",
                                "--max-dense-n", "10"])
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", "3", "--tol", "1e-3"],
    ["epsilons", "--q", "5", "--max-dense-n", "100"],
    ["build", "--q", "2", "--tol", "1e-3"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    code, out, err = run(capsys, argv + ["--no-timestamp"])
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", "5"],
    ["spectrum", "--graph", "d4", "--q", "61"],
    ["spectrum", "--q", "3", "--source", "numeric", "--format", "csv"],
    ["epsilons", "--q", "7"],
])
def test_out_writes_only_the_file(argv, tmp_path, capsys):
    code, stdout, _ = run(capsys, argv + ["--no-timestamp"])
    assert code == 0
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, argv + ["--no-timestamp", "--out", str(path)])
    assert code == 0 and out == ""
    assert path.read_bytes() == stdout.encode()  # csv rows end in \r\n


@pytest.mark.parametrize("stamp", [None, "2026-01-02T03:04:05+00:00"])
@pytest.mark.parametrize("graph", ["d4", "gamma"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 13, 25, 27, 61, 64, 81, 125, 127, 243])
def test_spectrum_json_is_streamed_in_the_dumps_layout(q, graph, stamp, capsys, monkeypatch):
    # the closed-form JSON is written entry by entry; its text is exactly what
    # json.dumps(indent=2) makes of the whole document, "generated" last
    s = closedform.spectrum_closed(ff.field_for(q))
    if graph == "d4":
        s = closedform.lift_to_bipartite(s, q)
    doc = s.to_json_dict()
    if stamp:
        doc["generated"] = stamp
    monkeypatch.setattr(cli, "_stamp", lambda args: stamp)
    code, out, _ = run(capsys, ["spectrum", "--graph", graph, "--q", str(q)])
    assert code == 0 and out == json.dumps(doc, indent=2) + "\n"
    assert list(json.loads(out))[-1] == ("generated" if stamp else "total")


@pytest.mark.parametrize("out", [False, True])
def test_write_sends_every_chunk_to_every_sink(out, tmp_path, capsys):
    # a one-shot chunk iterable reaches --out (opened by main) and the echo in full
    path = tmp_path / "out.txt"
    with path.open("w") if out else contextlib.nullcontext() as fp:
        cli._write(argparse.Namespace(out=fp), iter(["a", "", "b\n", "c\n"]), echo=True)
    assert capsys.readouterr().out == "ab\nc\n"
    assert path.exists() == out and (not out or path.read_text() == "ab\nc\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "2,3"],
    ["ramanujan", "--q", "5,7"],
    ["ramanujan", "--q", "5", "--format", "json"],
])
def test_out_writes_the_file_and_prints_it(argv, tmp_path, capsys):
    code, stdout, _ = run(capsys, argv + ["--no-timestamp"])
    assert code == 0
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, argv + ["--no-timestamp", "--out", str(path)])
    assert code == 0 and out == stdout
    assert path.read_bytes() == stdout.encode()


def test_one_parser_serves_every_call_without_leaking_values(tmp_path, capsys):
    # main() reuses one cached parser; each call must read only its own flags,
    # exactly as a freshly built parser would, whatever ran before it
    out = tmp_path / "spectrum.csv"
    calls = [["spectrum", "--q", "5", "--format", "csv", "--no-timestamp"],
             ["spectrum", "--q", "5", "--no-timestamp"],
             ["verify", "--q", "3", "--tol", "1e-3", "--max-dense-n", "100"],
             ["spectrum", "--q", "7", "--graph", "d4", "--format", "table",
              "--out", str(out)],
             ["verify", "--q", "2,3"],
             ["spectrum", "--q", "5", "--source", "numeric", "--no-timestamp"],
             ["epsilons", "--q", "5", "--format", "table", "--no-timestamp"],
             ["spectrum", "--q", "5", "--no-timestamp"],
             ["spectrum", "--q", "5", "--tol", "1"],
             ["epsilons", "--q", "5", "--no-timestamp"]]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert fresh[8][0] == 2 and fresh[1] == fresh[7]
    assert fresh[0][1].startswith("value_float,") and fresh[1][1].startswith("{")
    assert fresh[3][1] == "" and out.read_text().startswith("value_float  ")
    assert cli._build_parser() is cli._build_parser()
    for argv, want in zip(calls * 2, fresh * 2):
        assert run(capsys, argv) == want, argv


def test_module_run_has_the_console_script_exit_codes():
    # `python -m luspec.cli` must run main_entry, not import the module and exit 0
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv, code, stream, text in (
            (["spectrum", "--q", "6"], 2, "stderr", "not a prime power"),
            (["verify", "--q", "2", "--no-timestamp"], 0, "stdout", "all checks passed")):
        proc = subprocess.run([sys.executable, "-m", "luspec.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == code and text in getattr(proc, stream), (argv, proc.stderr)


@pytest.mark.parametrize("q", [1000000000063000000000931,  # 81769 times a 20-digit cofactor
                               4611686014132420609,  # (2^31 - 1)^2, a prime power
                               (2 ** 61 - 1) ** 2])
def test_huge_q_exits_2_before_any_factoring(q):
    # the size bound is checked before q or p is trial-divided, which would not end
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "luspec.cli", "spectrum", "--q", str(q)],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2 and "size bound" in proc.stderr, proc.stderr
