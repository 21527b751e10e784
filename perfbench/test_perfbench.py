"""Tests of the benchmark's own checks; run with ``python3 -m pytest perfbench``."""

import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, luspec_targets  # noqa: E402

run.load_luspec()

INF = float("inf")


def _one_pass(jobs, reference):
    return run.run_pass(jobs, random.Random(0), reference, INF, speed.SpeedSampler())


def test_reference_digest_accepts_seed_output_and_rejects_a_corrupted_one():
    job = run.WORKLOADS["exact_spectrum"].jobs[1]
    assert job.argv[:5] == ("spectrum", "--graph", "d4", "--q", "64")
    reference = run.load_reference()
    done = _one_pass([job], reference)
    assert done.failures == [] and done.nbytes > 0

    digest = reference[job.label]
    corrupted = dict(reference, **{job.label: ("0" if digest[0] != "0" else "1") + digest[1:]})
    failures = _one_pass([job], corrupted).failures
    assert [label for label, _ in failures] == [job.label]
    assert "does not match the reference" in failures[0][1]


def test_verify_deviation_is_masked_and_checked_against_tol():
    text = ("[PASS] q=2 closed form vs numeric spectrum  (worst dev 7.06e-16)\n"
            "all checks passed\n")
    masked, devs = run.mask_worst_dev(text)
    assert devs == [7.06e-16]
    assert "worst dev <masked>)" in masked and "7.06e-16" not in masked

    job = run.WORKLOADS["crosscheck"].jobs[0]
    assert job.argv[0] == "verify"
    reference = {job.label: run.output_digest(job, text)}
    assert run.check(run.Outcome(job, result=0, output=text), reference) is None
    worse = text.replace("7.06e-16", "3.00e-03")
    assert run.output_digest(job, worse) == reference[job.label]
    assert "above tol" in run.check(run.Outcome(job, result=0, output=worse), reference)


def test_battery_result_and_exit_code_are_checked():
    job = run.Job("answer", call=lambda: 41, expected=42)
    failures = _one_pass([job], {}).failures
    assert failures == [("answer", "result 41, expected 42")]
    cli = run.cli_job("spectrum", "--q", "6")  # not a prime power: exit 2
    failures = _one_pass([cli], {}).failures
    assert failures == [(cli.label, "exit code 2")]


def test_timeout_is_recorded_as_a_failure(monkeypatch):
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.2)
    job = run.Job("sleeper", call=lambda: time.sleep(5), expected=None)
    t0 = time.perf_counter()
    failures = _one_pass([job], {}).failures
    assert time.perf_counter() - t0 < 2
    assert len(failures) == 1 and failures[0][0] == "sleeper" and "timed out" in failures[0][1]


def test_traced_pass_reports_every_layer_and_restores_the_program():
    from luspec import closedform, cyclo
    original_mul = cyclo.CycInt.__dict__["__mul__"]
    original_assemble = closedform.SpectrumMultiset.__dict__["assemble"]
    jobs = [
        run.cli_job("spectrum", "--graph", "d4", "--q", 5),
        run.cli_job("epsilons", "--q", 7),
        run.cli_job("verify", "--q", "2,3", "--max-dense-n", 200, "--tol", "1e-6"),
    ] + list(run.WORKLOADS["crosscheck"].jobs[1:])
    reference = {}
    for job in jobs:
        if job.argv:
            outcome = run.run_job(job, INF)
            reference[job.label] = run.output_digest(job, outcome.output)

    sampler = speed.SpeedSampler()
    tracer = Tracer(luspec_targets(), sampler.clock)
    sampler.start()
    try:
        untraced = run.run_pass(jobs, random.Random(0), reference, INF, sampler)
        tracer.install()
        with tracer.job("setup", "bench.setup"):
            run.set_up(run.Workload("mini", (3, 5, 7), (1,), ()))
        traced = run.run_pass(jobs, random.Random(0), reference, INF, sampler,
                              tracer, "pass1")
    finally:
        tracer.uninstall()
        sampler.stop()
    assert untraced.failures == traced.failures == []
    assert traced.traced and traced.samples
    assert cyclo.CycInt.__dict__["__mul__"] is original_mul
    assert closedform.SpectrumMultiset.__dict__["assemble"] is original_assemble

    values, _ = run.layer_metrics(tracer, [untraced, traced])
    names = [m["name"] for m in run.load_metric_specs("per_layer")]
    missing = [name for name in names if name not in values]
    assert missing == []
    for name in names:
        if name.endswith(("_s", "_calls", "_bytes")):
            assert values[name] > 0, name
    assert values["trace.attributed_ratio"] == pytest.approx(1, abs=0.05)
    assert values["cyclo.mul_coeff_products"] >= values["cyclo.mul_calls"]


def test_speed_sampler_leaves_its_own_time_out_and_restores_sigprof():
    before = signal.getsignal(signal.SIGPROF)
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        t0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 0.5:
            pass
        wall, net = time.perf_counter() - t0, sampler.clock() - c0
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGPROF) is before
    assert len(sampler.samples) >= 10
    assert wall - net == pytest.approx(sum(sampler.samples), abs=2e-3)
    assert speed.factor([2 * speed.REFERENCE_S] * 3) == pytest.approx(0.5)


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crosscheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
