"""Tests of the benchmark itself, on truncations capped at 8 levels.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import subchan
import workloads
from tracing import ROOT as ROOT_SPAN
from tracing import Tracer

TINY = 8
ONE_ROUND = 1e-9  # any positive job-time budget stops after the first round


def one_round(workload, tmp_path, tracer=None, seed=5):
    ctx = workloads.prepare(tmp_path, workload, seed, TINY)
    return run.run_jobs(workloads, ctx, workloads.rounds(workload, seed, TINY), ONE_ROUND, tracer)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_without_failures(workload, tmp_path):
    loop = one_round(workload, tmp_path)
    assert loop["failures"] == []
    assert len(loop["times"]) == len(workloads.WORKLOADS[workload])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_job_list_is_a_pure_function_of_the_seed(workload):
    first = [workloads.make_round(workload, 11, i) for i in range(3)]
    again = [workloads.make_round(workload, 11, i) for i in range(3)]
    other = [workloads.make_round(workload, 12, i) for i in range(3)]
    assert first == again
    assert first != other
    etas = [job.eta for r in first for job in r]
    assert len(set(etas)) == len(etas)


def test_checks_reject_wrong_answers(tmp_path):
    ctx = workloads.prepare(tmp_path, "structure", 5, TINY)
    job = workloads.make_round("sweep", 5, 0, TINY)[0]
    closed, quad, pairs = workloads.run(job, ctx)
    assert workloads.check(job, (closed, quad, pairs), ctx) is None
    assert workloads.check(job, (closed + 1e-6, quad + 1e-6, pairs), ctx) is not None
    assert workloads.check(job, (closed, quad + 1e-6, pairs), ctx) is not None


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_spans_nest_and_account_for_job_time(workload, tmp_path):
    tracer = Tracer()
    loop = one_round(workload, tmp_path, tracer)
    assert loop["failures"] == []
    own = tracer.self_times()
    assert min(own) >= -1e-9
    per_job = {}
    for rec, t in zip(tracer.spans, own):
        per_job[rec[4]] = per_job.get(rec[4], 0.0) + t
    roots = [rec for rec in tracer.spans if rec[0] == ROOT_SPAN]
    assert len(roots) == len(loop["times"])
    for rec in roots:
        assert per_job[rec[4]] == pytest.approx(rec[2] - rec[1], abs=1e-9)
    metrics = tracer.metrics()
    assert 0.0 < metrics["trace.layer_self_frac"] <= 1.0
    assert all(not hasattr(fn, "__wrapped__") for fn in
               (subchan.apply_channel, subchan.channels.apply_channel,
                subchan.fidelity.apply_channel, subchan.encodings.minimize))


def test_internal_calls_are_traced(tmp_path):
    tracer = Tracer()
    one_round("sweep", tmp_path, tracer)
    names = [rec[0] for rec in tracer.spans]
    quad = {i for i, name in enumerate(names) if name == "fidelity.average_fidelity_quadrature"}
    inside = [rec for rec in tracer.spans
              if rec[0] == "channels.apply_channel" and rec[3] in quad]
    assert len(inside) == 256 * len(quad)
    metrics = tracer.metrics()
    assert metrics["channels.apply_channel.flops_computed"] > 0


def test_search_counts_optimizer_work(tmp_path):
    tracer = Tracer()
    one_round("search", tmp_path, tracer)
    metrics = tracer.metrics()
    restarts = sum(t.restarts for t in workloads.WORKLOADS["search"])
    assert metrics["encodings.optimize_encoding.calls"] == len(workloads.WORKLOADS["search"])
    assert metrics["encodings.minimize.nfev"] >= metrics[
        "fidelity.average_fidelity_from_frames.calls"]
    assert 0.0 <= metrics["encodings.restart_converged_frac"] <= 1.0
    assert metrics["fidelity.average_fidelity_closed.calls"] == restarts


def test_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    loop = one_round("sweep", tmp_path)
    metrics, _ = run.end_to_end(loop, [1.0], 90.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    tracer = Tracer()
    traced = run.per_layer(one_round("sweep", tmp_path, tracer), tracer)
    assert [m["name"] for m in spec["per_layer"]] == list(traced)
    assert all(traced[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_percentile_has_ten_jobs_beyond_it():
    times = [float(i) for i in range(100)]
    assert run.percentile(times, 90.0) == pytest.approx(89.1)
    assert run.highest_tail(times) == 90.0
    assert run.highest_tail(times[:99]) == 75.0
    assert run.highest_tail(times[:19]) is None
