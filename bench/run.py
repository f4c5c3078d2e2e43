"""Closed-loop benchmark of the subchan library.

    python3 bench/run.py --workload {sweep,search,structure} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; subchan is imported from its ``src``
directory and from nowhere else. One process runs one workload: set-up
(import, job list, channel files, an untimed warm-up round at small
truncations), then whole rounds of jobs, one at a time, until the summed job
time reaches ``--seconds``. Every job's outputs are checked against a known
answer outside its timed span; a job that raises or fails its check counts as
failed. BLAS is pinned to one thread before numpy is imported, and glibc's
malloc thresholds are fixed (see environment.py).

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` even rounds run with spans around every public function of
subchan's layers and odd rounds without, and the last line reports the
per-layer metrics from the traced rounds plus the tracing overhead measured
against the untraced ones. The line before it holds the details: environment,
job counts, the tail percentile used, set-up samples and the first failures.
Result files and spans go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from environment import describe, pin_allocator, pin_blas_threads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_work"

SETUP_SAMPLES = 3          # one in this process, the rest in fresh processes
WARMUP_DIM = 6             # truncation cap of the untimed warm-up jobs
# The details also give the highest ladder percentile with ten jobs beyond
# it, which moves with the job count; job_tail_ms uses a fixed one per
# workload (workloads.TAIL_PERCENTILE).
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
MAX_FAILURES_SHOWN = 5


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


def setup(workload: str, seed: int):
    """Import subchan from the checkout, write inputs, run the warm-up jobs.

    Returns (workloads module, context, job rounds, seconds taken).
    """
    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "subchan" / "__init__.py").is_file():
        raise SetupError(f"no subchan sources under {src}")
    sys.path.insert(0, str(src))
    import subchan

    if not Path(subchan.__file__).resolve().is_relative_to(src):
        raise SetupError(f"imported subchan from {subchan.__file__}, not from {src}")
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    ctx = workloads.prepare(WORKDIR, workload, seed)
    job_rounds = workloads.rounds(workload, seed)
    warm_ctx = workloads.prepare(WORKDIR, workload, seed, WARMUP_DIM)
    warmed = set()
    for job in workloads.make_round(workload, seed, 0, WARMUP_DIM):
        if (job.kind, job.family) not in warmed:
            warmed.add((job.kind, job.family))
            workloads.run(replace(job, restarts=min(job.restarts, 1)), warm_ctx)
    return workloads, ctx, job_rounds, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=False, cwd=ROOT,
    )
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def percentile(times: list[float], p: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    ordered = sorted(times)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def highest_tail(times: list[float]) -> float | None:
    """The highest ladder percentile with at least TAIL_MIN_BEYOND jobs beyond it."""
    usable = [p for p in TAIL_LADDER if len(times) * (100.0 - p) >= 100.0 * TAIL_MIN_BEYOND]
    return usable[-1] if usable else None


def run_jobs(workloads, ctx, job_rounds, seconds: float, tracer=None) -> dict:
    """The closed loop: whole rounds, one job at a time, until ``seconds`` of job time.

    With a tracer, even rounds run traced and odd rounds plain.
    """
    times: list[float] = []
    by_kind: dict[str, list[float]] = {}
    failures: list[str] = []
    busy = {True: 0.0, False: 0.0}
    passed = {True: 0, False: 0}
    rounds_done = 0
    for index, jobs in enumerate(job_rounds):
        if sum(busy.values()) >= seconds:
            break
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
        try:
            for job in jobs:
                start = time.perf_counter()
                try:
                    if traced:
                        out = tracer.job(job.job_id, workloads.run, job, ctx)
                    else:
                        out = workloads.run(job, ctx)
                    problem = None
                except Exception as exc:  # one failing job must not stop the run
                    problem = f"raised {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                if problem is None:
                    problem = workloads.check(job, out, ctx)
                times.append(elapsed)
                by_kind.setdefault(f"{job.kind} {job.family} {job.dim}", []).append(elapsed)
                busy[traced] += elapsed
                if problem is None:
                    passed[traced] += 1
                else:
                    failures.append(f"job {job.job_id} ({job.kind} {job.family} "
                                    f"dim={job.dim} eta={job.eta:.6g}): {problem}")
        finally:
            if traced:
                tracer.uninstall()
        rounds_done += 1
    return {"times": times, "failures": failures, "busy": busy, "passed": passed,
            "rounds": rounds_done,
            "median_ms_by_kind": {kind: 1e3 * statistics.median(ts)
                                  for kind, ts in sorted(by_kind.items())}}


def end_to_end(loop: dict, setup_samples: list[float], tail_p: float) -> tuple[dict, dict]:
    """(metrics, details) of an untraced run."""
    times = loop["times"]
    tail_s = percentile(times, tail_p)
    values = {
        "jobs_per_s": (loop["passed"][False] / loop["busy"][False], "1/s"),
        "job_p50_ms": (1e3 * statistics.median(times), "ms"),
        "job_tail_ms": (1e3 * tail_s, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    top = highest_tail(times)
    details = {
        "tail_percentile": tail_p,
        "tail_jobs_beyond": sum(t > tail_s for t in times),
        "highest_tail": None if top is None else {
            "percentile": top, "ms": 1e3 * percentile(times, top)},
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}, details


# Units of the per-layer metrics by the last part of their name; the rest are counts.
UNITS = {"self_s": "s", "us_per_call": "us", "kraus_bytes": "B", "flops_computed": "flop",
         "bytes_computed": "B", "restart_converged_frac": "ratio",
         "layer_self_frac": "ratio", "overhead_frac": "ratio"}


def per_layer(loop: dict, tracer) -> dict:
    """Metrics of the traced rounds, plus the tracing overhead against the plain ones."""
    metrics = tracer.metrics()
    busy, passed = loop["busy"], loop["passed"]
    if busy[False] > 0 and busy[True] > 0 and passed[False] > 0:
        metrics["trace.overhead_frac"] = 1.0 - (passed[True] / busy[True]) / (
            passed[False] / busy[False])
    else:
        metrics["trace.overhead_frac"] = 0.0
    return {name: {"value": value, "unit": UNITS.get(name.rsplit(".", 1)[-1], "count")}
            for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up alone and print it (used for repeated set-up samples)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_blas_threads()
    allocator = pin_allocator()
    try:
        workloads, ctx, job_rounds, setup_s = setup(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s] + [probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_SAMPLES - 1)]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    loop = run_jobs(workloads, ctx, job_rounds, args.seconds, tracer)
    attempted = len(loop["times"])
    failed = len(loop["failures"])
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": describe(ROOT, args.seed, allocator),
        "jobs": attempted, "rounds": loop["rounds"], "failed_frac": failed / attempted,
        "failures": loop["failures"][:MAX_FAILURES_SHOWN],
        "job_time_s": sum(loop["busy"].values()), "setup_samples_s": setup_samples,
        "median_ms_by_kind": loop["median_ms_by_kind"],
    }
    if tracer is None:
        metrics, extra = end_to_end(loop, setup_samples,
                                    workloads.TAIL_PERCENTILE[args.workload])
        details.update(extra)
    else:
        metrics = per_layer(loop, tracer)
        details["spans"] = len(tracer.spans)
        tracer.write(WORKDIR / f"spans_{args.workload}_{args.seed}.jsonl")
    details["metrics"] = metrics
    WORKDIR.mkdir(parents=True, exist_ok=True)
    (WORKDIR / f"result_{args.workload}_{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: details[key] for key in details if key != "metrics"}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
