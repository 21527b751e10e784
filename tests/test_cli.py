import argparse
import contextlib
import io
import json
import tracemalloc

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


def test_verify_untranslatable_graph_exits_1(capsys, monkeypatch, two_switch):
    # verify takes Gamma's rows from gamma_rows and sorts them itself
    real = graphs.gamma_rows
    monkeypatch.setattr(graphs, "gamma_rows", lambda spec: two_switch(
        graphs.AdjacencyStructure("GAMMA4", spec.q, spec.q ** 4, real(spec))).neighbors)
    code, _, err = run(capsys, ["verify", "--q", "3", "--no-timestamp"])
    assert code == 1 and "not automorphisms" in err


def test_verify_cayley_mismatch_in_the_last_slab_fails(capsys, monkeypatch):
    # q = 9 has nine c4 slabs of 729 rows; the corrupted row is the last one
    real = graphs.cayley_slabs

    def corrupted(spec):
        for w, slab in enumerate(real(spec)):
            if w == spec.q - 1:
                slab[-1, 0] = spec.q ** 4 - 1  # a loop: Gamma(4,q) has none
            yield slab

    monkeypatch.setattr(graphs, "cayley_slabs", corrupted)
    code, out, _ = run(capsys, ["verify", "--q", "9", "--no-timestamp"])
    assert code == 1
    assert "[FAIL] q=9 Cayley graph matches collinearity graph\n" in out
    assert out.endswith("VERIFICATION FAILURES PRESENT\n")


def test_verify_gamma_mismatch_in_the_last_slab_fails(capsys, monkeypatch):
    # a corrupted Gamma row, not a Cayley row: the last point has c4 = q - 1,
    # so the last Cayley slab maps onto its row
    real = graphs.gamma_rows

    def corrupted(spec):
        rows = real(spec)
        rows[-1, 0] = spec.q ** 4 - 1  # a loop: Gamma(4,q) has none
        return rows

    monkeypatch.setattr(graphs, "gamma_rows", corrupted)
    code, out, _ = run(capsys, ["verify", "--q", "9", "--max-dense-n", "2401",
                                "--no-timestamp"])
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
        "[FAIL] q=9 Cayley graph matches collinearity graph"]
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
    # Gamma(4,13)'s int32 matrix is held whole; Cay(G,S) only one slab at a time
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--q", "13", "--max-dense-n", "2401",
                             "--no-timestamp"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 13 ** 4 * 156 * 4


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


def test_epsilons_out_file_with_timestamp(tmp_path, capsys):
    _, stdout, _ = run(capsys, ["epsilons", "--q", "13", "--no-timestamp"])
    path = tmp_path / "eps.csv"
    code, out, _ = run(capsys, ["epsilons", "--q", "13", "--out", str(path)])
    assert code == 0 and out == ""
    stamp, rest = path.read_bytes().split(b"\n", 1)
    assert stamp.startswith(b"# generated=") and rest == stdout.encode()


def test_epsilons_format_each_orbit_once(capsys, monkeypatch):
    # the cells come from the orbit table in one block: a representative and a
    # fiber profile per orbit, one square per Galois base, and no per-orbit sums
    table = closedform.epsilon_orbits(ff.field_for(61))
    calls = {"representative_of": 0, "fiber_profile": 0, "__mul__": 0,
             "eps_shift": 0, "embed": 0, "weil_check": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(closedform.RepresentativeSet, "representative_of",
                        counted(closedform.RepresentativeSet.representative_of))
    monkeypatch.setattr(closedform, "fiber_profile", counted(closedform.fiber_profile))
    monkeypatch.setattr(cyclo.CycInt, "__mul__", counted(cyclo.CycInt.__mul__))
    monkeypatch.setattr(closedform.ExactValue, "eps_shift",
                        staticmethod(counted(closedform.ExactValue.eps_shift)))
    for owner in (cyclo, closedform):
        monkeypatch.setattr(owner, "embed", counted(cyclo.embed))
    monkeypatch.setattr(cyclo, "weil_check", counted(cyclo.weil_check))
    code, out, _ = run(capsys, ["epsilons", "--q", "61", "--no-timestamp"])
    assert code == 0 and len(table.mults) == 61 + 2
    assert calls == {"representative_of": 61 + 2, "fiber_profile": 61 + 2,
                     "__mul__": len(table.bases), "eps_shift": 0, "embed": 0,
                     "weil_check": 0}
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
    # a one-shot chunk iterable reaches --out and the echo in full
    path = tmp_path / "out.txt"
    args = argparse.Namespace(out=str(path) if out else None)
    cli._write(args, iter(["a", "", "b\n", "c\n"]), echo=True)
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
