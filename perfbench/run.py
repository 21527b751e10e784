#!/usr/bin/env python3
"""The luspec benchmark: exact spectra, epsilon tables and numeric cross-checks.

Run from the repository root:

    python3 perfbench/run.py --workload exact_spectrum --seed 1 --seconds 35 --trace 0

The benchmark imports luspec from ``src/`` of the same checkout and drives it
in-process through its public entry points: ``luspec.cli.main`` with
``--no-timestamp``, and the ``graphs``/``reps`` battery functions.  The load is
a closed loop from one process, one job at a time.  A *pass* runs a
workload's job list once, in an order permuted by ``--seed``, after set-up
has built the workload's fields and rings.  Passes repeat until ``--seconds``
would be exceeded by another one (at least three passes).

Times are reported in *reference seconds*: wall time less the sampler's own
time, scaled by the host's speed sampled during the same interval (see
speed.py).  On a shared host whose speed swings 1.7x every few milliseconds
this keeps the neighbours' load out of the figures; the bare wall times are
printed beside them.

Every job's output is checked: CLI output against SHA-256 digests taken from
the seed commit (``reference.json``), battery results against known values.
A job fails if it raises, exits non-zero, times out or gives wrong output.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:

    setup_s      median over fresh processes, two after each pass, of
                 importing luspec.cli and building the workload's fields
                 and rings
    pass_s       median time of one pass, tracing off
    peak_rss_mb  peak resident memory of this process (ru_maxrss)

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics: self times of the wrapped public functions of each module (see
tracer.py), their counts, and the tracing overhead, which pairs each traced
pass with the untraced pass before it.  Spans are written to
``perfbench/traces/<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS/OpenMP threads are pinned before numpy loads.  One thread: the dense
# Gamma(4,7) solve in `crosscheck` is the only BLAS-heavy job, and a single
# thread kept its pass-to-pass range narrower (4.73-5.11 s over 5 passes)
# than two threads did (3.87-4.37 s) on a 2-core machine shared with others.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 60.0     # about 15x the slowest job on the seed
RUN_LIMIT_S = 150.0      # no job starts or keeps running past this
MIN_PASSES = 3
SETUP_PER_PASS = 2       # fresh set-up processes timed after each pass
MIN_OWN_SAMPLES = 10     # speed samples a set-up process needs to be scaled alone


# ----------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Job:
    """One unit of work: a ``luspec`` command line or a battery call."""

    label: str
    argv: tuple = ()
    call: Callable | None = None
    expected: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    field_qs: tuple   # fields built in set-up (ff.field_for)
    ring_es: tuple    # Galois rings GR(9,e) built in set-up (gr9.gr9_make)
    jobs: tuple


def cli_job(*argv) -> Job:
    argv = tuple(str(a) for a in argv) + ("--no-timestamp",)
    return Job(label=" ".join(argv), argv=argv)


def _girth_d4_q5():
    from luspec import ff, graphs
    return graphs.girth_at_least(graphs.build_d4(ff.field_for(5)), 8)


def _conjugacy_q7():
    from luspec import ff, reps
    return reps.conjugacy_class_data(ff.field_for(7))


def _orthogonality_q5():
    from luspec import ff, reps
    return reps.psi_orthogonality(ff.field_for(5))


# One q per closed-form path (61: q = 1 mod 3 prime, squaring in Z[zeta_61]
# dominates; 64: even-q formula; 81: GR(9,4) route; 125: q = 2 mod 3;
# 169: 28,392 sums; 257: table-less field above TABLE_LIMIT).  The baseline
# q in {127, 211, 243, 343} are left out: 13 s to over 200 s each.
EXACT_QS = (61, 64, 81, 125, 169, 257)
EPSILON_QS = (61, 81, 125, 169)
VERIFY_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13)

WORKLOADS = {w.name: w for w in (
    Workload("exact_spectrum", EXACT_QS, (4,), tuple(
        cli_job("spectrum", "--graph", "d4", "--q", q) for q in EXACT_QS)),
    Workload("epsilon_tables", EPSILON_QS, (4,), tuple(
        cli_job("epsilons", "--q", q) for q in EPSILON_QS)),
    # --max-dense-n 2401 admits the Gamma(4,7) solve and keeps out the
    # 9.7 s D(4,7) one.
    Workload("crosscheck", VERIFY_QS, (1, 2), (
        cli_job("verify", "--q", ",".join(map(str, VERIFY_QS)),
                "--max-dense-n", 2401, "--tol", "1e-6"),
        Job("girth_at_least(build_d4(GF(5)), 8)", call=_girth_d4_q5, expected=True),
        Job("conjugacy_class_data(GF(7))", call=_conjugacy_q7,
            expected=(385, {1: 49, 7: 336})),
        Job("psi_orthogonality(GF(5))", call=_orthogonality_q5, expected=True),
    )),
)}


# ----------------------------------------------------------------------
# loading luspec and set-up

def load_luspec():
    """Import luspec from this checkout's src/, never from anywhere else."""
    if not (SRC / "luspec" / "__init__.py").is_file():
        raise SystemExit(f"error: no luspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import luspec.cli
    import luspec.reps  # noqa: F401  (imported here so that no pass pays for it)
    if Path(luspec.__file__).resolve().parent != SRC / "luspec":
        raise SystemExit(f"error: luspec imported from {luspec.__file__}, not {SRC}")


def set_up(workload: Workload):
    from luspec import ff, gr9
    for q in workload.field_qs:
        ff.field_for(q)
    for e in workload.ring_es:
        gr9.gr9_make(e)


def _setup_code(workload: Workload) -> str:
    return (
        "import json, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from speed import SpeedSampler\n"
        "sampler = SpeedSampler()\n"
        "sampler.start()\n"
        "t0 = sampler.clock()\n"
        "import luspec.cli\n"
        "from luspec import ff, gr9\n"
        f"for q in {workload.field_qs!r}:\n    ff.field_for(q)\n"
        f"for e in {workload.ring_es!r}:\n    gr9.gr9_make(e)\n"
        "seconds = sampler.clock() - t0\n"
        "sampler.stop()\n"
        "print(json.dumps([seconds, sampler.samples]))\n")


def setup_process(workload: Workload) -> tuple[float, list]:
    """(set-up seconds, speed samples) of one fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _setup_code(workload)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
    seconds, samples = json.loads(proc.stdout.strip().splitlines()[-1])
    return seconds, samples


def setup_times(processes: list) -> list[float]:
    """Set-up reference seconds of each process, scaled by its own speed
    samples, or by those of all the processes if it has too few."""
    pooled = [x for _, samples in processes for x in samples]
    return [seconds * speed.factor(samples if len(samples) >= MIN_OWN_SAMPLES else pooled)
            for seconds, samples in processes]


# ----------------------------------------------------------------------
# running and checking jobs

class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout


@dataclass
class Outcome:
    job: Job
    result: object = None
    output: str = ""
    error: str | None = None


def run_job(job: Job, deadline: float, tracer=None, job_id: str = "") -> Outcome:
    """Run one job in-process with a timeout; never raises for the job's faults."""
    timeout = min(JOB_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        return Outcome(job, error="not started: run time limit reached")
    out = io.StringIO()
    root = "cli.main" if job.argv else "bench.job"
    traced = tracer.job(job_id, root) if tracer else contextlib.nullcontext()
    from luspec import cli
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()), traced:
                result = cli.main(list(job.argv)) if job.argv else job.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    except JobTimeout:
        return Outcome(job, error=f"timed out after {timeout:.1f} s")
    except Exception:  # a job's fault is recorded, the run goes on
        return Outcome(job, error=traceback.format_exc())
    return Outcome(job, result, out.getvalue())


_WORST_DEV = re.compile(r"worst dev (\S+)\)")


def mask_worst_dev(text: str):
    """Verify output with the eigensolver-dependent deviations masked, and
    the deviations themselves."""
    devs = [float(m) for m in _WORST_DEV.findall(text)]
    return _WORST_DEV.sub("worst dev <masked>)", text), devs


def output_digest(job: Job, output: str) -> str:
    if job.argv[0] == "verify":
        output, _ = mask_worst_dev(output)
    return hashlib.sha256(output.encode()).hexdigest()


def check(outcome: Outcome, reference: dict) -> str | None:
    """None if the job succeeded with correct output, else the reason."""
    job = outcome.job
    if outcome.error:
        return outcome.error
    if not job.argv:
        if outcome.result != job.expected:
            return f"result {outcome.result!r}, expected {job.expected!r}"
        return None
    if outcome.result != 0:
        return f"exit code {outcome.result}"
    if job.argv[0] == "verify":
        tol = float(job.argv[job.argv.index("--tol") + 1])
        bad = [d for d in mask_worst_dev(outcome.output)[1] if not d <= tol]
        if bad:
            return f"worst deviation {max(bad)} above tol {tol}"
    digest = output_digest(job, outcome.output)
    if digest != reference.get(job.label):
        return f"output digest {digest} does not match the reference"
    return None


@dataclass
class Pass:
    seconds: float    # wall time less checking and the speed sampler's own time
    samples: list     # speed samples taken during the pass
    failures: list    # (job label, reason)
    nbytes: int       # CLI output bytes
    traced: bool = False

    @property
    def reference_s(self) -> float:
        return self.seconds * speed.factor(self.samples)


def run_pass(jobs, rng: random.Random, reference: dict, deadline: float,
             sampler: speed.SpeedSampler, tracer=None, pass_id: str = "") -> Pass:
    """Run and check one pass.

    Each output is checked and dropped as soon as its job ends, so outputs do
    not pile up in memory across jobs; the time spent checking is not counted.
    """
    order = list(jobs)
    rng.shuffle(order)
    failures, nbytes, checking = [], 0, 0.0
    first = len(sampler.samples)
    t0 = sampler.clock()
    for job in order:
        outcome = run_job(job, deadline, tracer, f"{pass_id}/{job.label}")
        c0 = sampler.clock()
        nbytes += len(outcome.output.encode())
        why = check(outcome, reference)
        if why is not None:
            failures.append((job.label, why))
        checking += sampler.clock() - c0
    return Pass(sampler.clock() - t0 - checking, sampler.samples[first:], failures,
                nbytes, tracer is not None)


# ----------------------------------------------------------------------
# reporting

def load_reference() -> dict:
    with open(HERE / "reference.json") as fp:
        return json.load(fp)["sha256"]


def load_metric_specs(kind: str) -> list:
    """The ``end_to_end`` or ``per_layer`` metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)[kind]


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fp:
        cpu = next((line.split(":", 1)[1].strip() for line in fp
                    if line.startswith("model name")), cpu)

    def blas(cfg):
        info = cfg["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy.__config__.CONFIG),
            "scipy_blas": blas(scipy.__config__.CONFIG),
            "blas_threads": BLAS_THREADS}


def tail_percentile(values):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or None."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return f"p{pct}", statistics.quantiles(values, n=100)[pct - 1]
    return None


def emit(specs, values: dict, attempted: int, failures: list, notes: dict):
    for label, why in failures:
        print(f"FAILED {label}: {why.strip()}", file=sys.stderr)
    metrics = {}
    for spec in specs:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<28} {values[name]:>14.6g} {spec['unit']}{note}")
    failed = len(failures)
    print(f"{'failed_ratio':<28} {failed / attempted:>14.6g} 1"
          f"  ({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# ----------------------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float, trace: bool):
    deadline = time.monotonic() + RUN_LIMIT_S
    specs = load_metric_specs("per_layer" if trace else "end_to_end")
    reference = load_reference()
    machine = machine_record()
    print("machine " + json.dumps(machine))
    print(f"workload {workload.name}  seed {seed}  seconds {seconds}  "
          f"trace {int(trace)}  closed loop, 1 client")

    sampler = speed.SpeedSampler()
    tracer = None
    if trace:
        from tracer import Tracer, luspec_targets
        tracer = Tracer(luspec_targets(), sampler.clock)
        tracer.install()
        with tracer.job("setup", "bench.setup"):
            set_up(workload)
        tracer.uninstall()
    else:
        # One untimed process fills the bytecode cache, as an installed
        # package would have it.
        setup_process(workload)
        set_up(workload)

    rng = random.Random(seed)
    passes, setups, cycles = [], [], []
    t_start = time.monotonic()
    sampler.start()
    try:
        while True:
            c0 = time.monotonic()
            traced = trace and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                passes.append(run_pass(workload.jobs, rng, reference, deadline, sampler,
                                       tracer if traced else None, f"pass{len(passes)}"))
            finally:
                if traced:
                    tracer.uninstall()
            if not trace:
                setups += [setup_process(workload) for _ in range(SETUP_PER_PASS)]
            now = time.monotonic()
            cycles.append(now - c0)
            typical = statistics.median(cycles)
            if (len(passes) >= MIN_PASSES and now - t_start + typical > seconds) \
                    or now + typical > deadline:
                break
    finally:
        sampler.stop()

    attempted = len(passes) * len(workload.jobs)
    failures = [f for p in passes for f in p.failures]
    if not trace:
        untraced = [p.reference_s for p in passes]
        walls = [p.seconds for p in passes]
        slowdown = 1 / speed.factor([x for p in passes for x in p.samples])
        tail = tail_percentile(untraced)
        values = {"setup_s": statistics.median(setup_times(setups)),
                  "pass_s": statistics.median(untraced),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        notes = {"setup_s": f"median of {len(setups)} fresh processes; unscaled median "
                            f"{statistics.median(t for t, _ in setups):.4g} s",
                 "pass_s": f"median of {len(passes)} passes" + (
                     f", {tail[0]} {tail[1]:.6g} s" if tail else
                     "; no tail percentile has 10 samples beyond it")
                 + f"; unscaled median {statistics.median(walls):.4g} s at "
                 f"{slowdown:.3f}x the reference kernel time; passes "
                 + " ".join(f"{w:.3f}" for w in untraced)}
        emit(specs, values, attempted, failures, notes)
        return

    values, notes = layer_metrics(tracer, passes)
    path = HERE / "traces" / f"{workload.name}-seed{seed}.jsonl"
    tracer.write(path, {"workload": workload.name, "seed": seed, "machine": machine,
                        "passes": [{"traced": p.traced, "seconds": p.seconds,
                                    "reference_s": p.reference_s}
                                   for p in passes]})
    print(f"spans written to {path.relative_to(ROOT)}")
    emit(specs, values, attempted, failures, notes)


def layer_metrics(tracer, passes: list):
    """Per-layer metrics, each per traced pass, from the recorded spans.

    Times are in reference seconds, scaled by the speed sampled over all
    traced passes; counts are not scaled.
    """
    from tracer import totals
    traced = [p for p in passes if p.traced]
    n = len(traced)
    scale = speed.factor([x for p in traced for x in p.samples])
    setup = totals([s for s in tracer.spans if s.job == "setup"])
    per_pass = totals([s for s in tracer.spans if s.job != "setup"])
    # A layer the workload leaves idle records no spans and reads 0.
    values = defaultdict(float, {name: v / n * (scale if name.endswith("_s") else 1)
                                 for name, v in per_pass.items()})
    # Field and ring builds happen in set-up; in passes they are cache hits.
    values["ff.field_build_s"] = setup["ff.field_build_s"] * scale
    values["gr9.ring_build_s"] = setup["gr9.ring_build_s"] * scale
    values["cli.output_bytes"] = sum(p.nbytes for p in traced) / n
    classes = values["closedform.classes"]
    if classes:
        values["closedform.useful_ratio"] = values["closedform.distinct_values"] / classes
    traced_s = sum(p.seconds for p in traced)
    values["trace.pass_s"] = traced_s / n * scale
    values["trace.attributed_ratio"] = sum(
        v for k, v in per_pass.items() if k.endswith(".self_s")) / traced_s
    # Each traced pass against the untraced pass just before it.
    ratios = [t.reference_s / u.reference_s - 1
              for u, t in zip(passes, passes[1:]) if t.traced and not u.traced]
    values["trace.overhead_ratio"] = statistics.median(ratios)
    notes = {"ff.field_build_s": "set-up, not per pass",
             "gr9.ring_build_s": "set-up, not per pass",
             "closedform.useful_ratio": f"base: {classes:.0f} classes per pass",
             "trace.overhead_ratio": f"median of {len(ratios)} traced/untraced pass pairs",
             "trace.attributed_ratio": f"base: {n} traced passes, {traced_s:.6g} s"}
    for name in ("cyclo.points_evaluated", "cyclo.mul_coeff_products", "oracle.dense_bytes"):
        notes[name] = "computed"
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="permutes the job order within each pass")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time; no pass starts that would overrun it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_luspec()
    measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
