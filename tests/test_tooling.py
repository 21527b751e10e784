"""Checks on the package source itself."""

import ast
import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np

import luspec
from luspec import cli, closedform, cyclo

SRC = Path(luspec.__file__).resolve().parent


def _nodes():
    """(file name, node) for every AST node of the package source."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statements_in_package():
    # python -O strips assert statements; invariant checks must raise instead
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_assertion_errors_raised_in_package():
    # an AssertionError reads as a failed assert; invariant checks raise RuntimeError
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_no_object_arrays_in_package():
    # bulk cyclotomic data is int64 exponent histograms, never arrays of CycInt
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.keyword) and node.arg == "dtype"
             and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert found == []


def test_modules_stay_under_the_parser_token_step():
    # CPython 3.11's parser doubles its token buffer past 4,096 tokens, which
    # adds about 0.25 MB to a module's compile peak in every fresh process
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        with path.open("rb") as f:
            counts[path.name] = sum(t.type not in skip for t in tokenize.tokenize(f.readline))
    assert {name: n for name, n in counts.items() if n >= 4096} == {}


# EpsilonOrbits' histogram fields and the Galois permutation that reads them
_TABLE_HISTOGRAMS = {"base_hist", "permute", "squares", "slot", "jinv"}


def test_only_closedform_reads_the_orbit_table_histograms():
    # the table's histogram format is closedform's own: the other modules read its
    # reduced rows (EpsilonOrbits.eps, square_rows), and cli reduces no histogram
    found = []
    for name, node in _nodes():
        read = getattr(node, "attr", None) or getattr(node, "id", None)  # x.read or read
        if (name != "closedform.py" and isinstance(node, ast.Attribute)
                and read in _TABLE_HISTOGRAMS or name == "cli.py" and read == "reduce_rows"):
            found.append(f"{name}:{node.lineno} {read}")
    assert found == []


def test_each_orbit_row_is_gathered_once(monkeypatch):
    # verify and epsilons read every eps row from the table's one gather; the
    # only other rows gathered are the construction guard's, one per base
    gathered, tables = [], []
    real_permute, real_orbits = closedform.EpsilonOrbits.permute, closedform.epsilon_orbits

    def permute(self, hist, ks=slice(None)):
        if hist is self.base_hist:
            gathered.append(np.arange(len(self.mults))[ks].size)
        return real_permute(self, hist, ks)

    monkeypatch.setattr(closedform.EpsilonOrbits, "permute", permute)
    monkeypatch.setattr(closedform, "epsilon_orbits",
                        lambda spec: tables.append(real_orbits(spec)) or tables[-1])
    for argv in (["verify", "--q", "61"], ["epsilons", "--q", "61"]):
        gathered.clear()
        tables.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--no-timestamp"]) == 0, argv
        (table,) = tables
        assert sum(gathered) == len(table.mults) + len(table.bases) == 63 + 3, argv


def test_traced_functions_exist():
    # the benchmark's tracer wraps these attributes by name; a rename must fail here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in tracer.luspec_targets()
               if attr not in owner.__dict__]
    assert missing == []


# Public names of closedform.py that only closedform.py itself reads.
_READ_IN_THEIR_MODULE = {
    "SpectrumEntry": "the type of SpectrumMultiset.entries",
    "spectrum_even": "spectrum_closed's even-q branch",
    "EpsilonOrbits": "the type epsilon_orbits returns, whose fields cli reads",
    "eps_classes": "spectrum_odd's eps^2 - q pairs, one per orbit",
    "NumericSpectrum": "the type numeric_spectrum returns, which compare_spectra reads",
    "CompareReport": "the type compare_spectra returns, whose fields cli reads",
    "ClusterMismatch": "the type of CompareReport.mismatches",
    "ExpansionReport": "the type expansion_report returns, whose methods cli calls",
    "TotalMismatchError": "the VerificationError compare_spectra raises on unequal sizes",
}


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):  # from .graphs import AdjacencyStructure
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value  # perfbench/tracer.py names the attributes it wraps


def test_public_names_have_a_reader():
    # a public function or class that only the tests read is a test helper in the package:
    # the paper's derivation steps that the tests check against live in tests/conftest.py
    root = SRC.parents[1]
    files = [*SRC.glob("*.py"), *(root / "demos").glob("*.py"),
             *(p for p in (root / "perfbench").glob("*.py") if not p.name.startswith("test_"))]
    unread = []
    for module in ("ff.py", "graphs.py", "closedform.py", "cyclo.py", "gr9.py", "reps.py",
                   "oracle.py"):
        read = set()
        for path in files:
            if path != SRC / module:
                read.update(_referenced_names(ast.parse(path.read_text())))
        tree = ast.parse((SRC / module).read_text())
        unread += [node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_") and node.name not in read]
    assert sorted(unread) == sorted(_READ_IN_THEIR_MODULE)


def test_cli_holds_no_array_code():
    # Gamma's slab format stays behind graphs: cli imports nothing from numpy and
    # builds no rows or adjacency structures itself
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []
    assert {"slab_rows", "AdjacencyStructure"}.isdisjoint(_referenced_names(tree))


_COMMANDS = [["spectrum", "--q", "7"], ["epsilons", "--q", "7"],
             ["ramanujan", "--q", "5"],
             ["verify", "--q", "2,3,4,5", "--max-dense-n", "2401"]]


def test_commands_import_no_scipy():
    # scipy is the tests' dense reference only; start-up and the CLI are numpy
    code = f"""
import contextlib, io, sys
from luspec.cli import main
for argv in {_COMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--no-timestamp"]) == 0, argv
print([k for k in sys.modules if k == "scipy" or k.startswith("scipy.")])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_runtime_dependencies_are_the_imported_modules():
    # every third-party module the package imports, at any depth, is declared
    # in [project] dependencies, and every declared dependency is imported
    import tomllib
    imported = set()
    for _, node in _nodes():
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"luspec"}
    with (SRC.parents[1] / "pyproject.toml").open("rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    assert third_party == {re.match(r"[\w-]+", d)[0] for d in declared}


def test_hooked_layers_are_reached(monkeypatch):
    # the benchmark's traced pass needs every hooked layer on its small jobs;
    # a layer that the closed form bypasses must fail here, not only there
    calls = {}

    def count(owner, attr, wrap=lambda f: f, unwrap=lambda f: f):
        original = unwrap(owner.__dict__[attr])
        calls[attr] = 0

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrap(counted))

    count(closedform, "exp_sum_field")
    count(cyclo.CycInt, "__mul__")
    count(closedform, "epsilon_family")
    count(closedform.SpectrumMultiset, "assemble", classmethod, lambda f: f.__func__)
    count(closedform, "lift_to_bipartite")
    count(closedform.RepresentativeSet, "representative_of")
    count(closedform, "fiber_profile")
    for argv in (["spectrum", "--graph", "d4", "--q", "5"], ["epsilons", "--q", "7"],
                 ["verify", "--q", "2,3"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--no-timestamp"]) == 0, argv
    assert all(calls.values()), calls


def test_demos_run(tmp_path):
    # every demo runs from a clean directory against the source tree
    demos = sorted((SRC.parents[1] / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                              timeout=120)
        assert proc.returncode == 0, (demo.name, proc.stderr)
        assert proc.stdout.strip(), demo.name
