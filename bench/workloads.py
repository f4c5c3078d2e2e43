"""Seeded job lists for the benchmark workloads, and the checks on their outputs.

A job is the call sequence of one CLI subcommand made through subchan's
public functions: build the channel, compute, return the outputs. Its check
compares those outputs with an answer known in closed form and runs outside
the job's timed span.

Job lists come in rounds. A round holds one job per template of the
workload, in a seeded order, so any whole number of rounds has the same job
mix, and a quantile of the job times falls at the same place in that mix
however many rounds a run completes. Each template takes its eta from a
golden-ratio sequence with a seeded offset: etas differ from round to round
and cover the range evenly, so a run's averages do not hinge on a few draws.
Every job builds its own channel at its own eta, as a CLI call does.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import subchan as sc
from subchan.tolerances import CROSS_CHECK_TOL

GOLDEN = 0.6180339887498949

# Damping ranges. The phase-damping Kraus count grows like -2 dim^2 ln(eta),
# so its range stays above 0.6 to keep the dim-128 stack near the size of the
# dense dim-128 amplitude-damping stack.
ETA_RANGE = {"pd": (0.6, 0.95), "ad": (0.2, 0.9), "dep": (0.2, 0.9)}

KNOWN_TOL = 1e-9        # closed-form answers, as in the acceptance gate
OPTIMIZER_TOL = 1e-6    # optimizer against the best known Fock-pair encoding
PAIR_SWEEP_MAX_LEVEL = 4  # `pairs --max-level` run on every ad sweep point


@dataclass(frozen=True)
class Template:
    """One slot of a round: what to run, on which family and truncation."""

    kind: str     # fidelity | optimize | hull | verify | fixed | custom
    family: str   # pd | ad | dep (custom jobs reload an ad channel from file)
    dim: int
    levels: str = ""  # how to draw the levels; see _draw_levels
    restarts: int = 0


@dataclass(frozen=True)
class Job:
    job_id: int
    kind: str
    family: str
    dim: int
    eta: float
    levels: tuple[int, ...] = ()
    restarts: int = 0
    opt_seed: int = 0


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: dict[str, tuple[Template, ...]] = {
    # `sweep`, `fidelity --quadrature` and `pairs`: the quadrature oracle's
    # 256 channel applications per point dominate. pd (diagonal path) sits
    # beside dense ad and dep.
    "sweep": (
        Template("fidelity", "pd", 32, "pair"),
        Template("fidelity", "pd", 64, "pair"),
        Template("fidelity", "ad", 32, "01"),
        Template("fidelity", "pd", 128, "pair"),
        Template("fidelity", "dep", 16, "pair"),
    ),
    # `optimize`: Nelder-Mead over the small einsum objective; n^2 channel
    # applications per job. Restarts are set per template so that a job
    # misses the known optimum with odds below 1e-5; see README.md.
    "search": (
        Template("optimize", "ad", 32, "012", restarts=3),
        Template("optimize", "ad", 32, "013", restarts=3),
        Template("optimize", "ad", 32, "0123", restarts=4),
        Template("optimize", "pd", 32, "012", restarts=5),
        Template("optimize", "pd", 32, "012", restarts=5),
    ),
    # `hull-check`, `verify`, `fixed-points` and `--channel custom`: the
    # adjoint, the dim^2 x dim^2 superoperator and its SVD, eigvalsh, and a
    # dim-128 dense stack larger than L2.
    "structure": (
        Template("hull", "pd", 128, "any"),
        Template("hull", "ad", 128, "0..k"),
        Template("hull", "pd", 64, "any"),
        Template("hull", "ad", 64, "12"),
        Template("hull", "pd", 32, "any"),
        Template("hull", "ad", 32, "0..k"),
        Template("hull", "ad", 32, "12"),
        Template("hull", "dep", 32, "pair"),
        Template("hull", "dep", 24, "pair"),
        Template("hull", "pd", 16, "any"),
        Template("hull", "ad", 16, "0..k"),
        Template("hull", "dep", 16, "pair"),
        Template("verify", "pd", 64),
        Template("verify", "ad", 64),
        Template("verify", "pd", 32),
        Template("verify", "ad", 32),
        Template("verify", "pd", 16),
        Template("verify", "ad", 16),
        Template("verify", "dep", 16),
        Template("fixed", "ad", 16),
        Template("fixed", "pd", 16),
        Template("fixed", "dep", 16),
        Template("fixed", "ad", 32),
        Template("custom", "ad", 16, "0..k"),
        Template("custom", "ad", 16, "0..k"),
    ),
}

# Percentile reported as job_tail_ms: the highest of 50/75/90/95/99 that keeps
# at least ten jobs beyond it with a margin of 1.5 at the job counts of a
# 30-second run on a 2-vCPU Intel Xeon (KVM) with one BLAS thread (sweep about
# 230 jobs, search 110, structure 175). It is fixed per workload so that a
# faster commit, which completes more jobs, is compared at the same percentile.
TAIL_PERCENTILE = {"sweep": 90.0, "search": 75.0, "structure": 90.0}


def _draw_levels(rule: str, rng: np.random.Generator, dim: int, slot: int) -> tuple[int, ...]:
    """Levels for one job. Where the rule lets the level count vary, the
    count cycles through 2, 3, 4 with ``slot`` rather than being drawn, since
    a hull check's cost grows with its square."""
    count = 2 + slot % 3
    if rule == "pair":
        return tuple(sorted(int(v) for v in rng.choice(min(dim, 6), size=2, replace=False)))
    if rule == "any":
        return tuple(sorted(int(v) for v in rng.choice(min(dim, 8), size=count, replace=False)))
    if rule == "0..k":
        return tuple(range(count))
    return tuple(int(c) for c in rule)  # literal levels such as "01" or "0123"


def make_round(workload: str, seed: int, index: int, dim_cap: int | None = None) -> list[Job]:
    """Round ``index`` of a workload's job list: a pure function of its arguments.

    ``dim_cap`` shrinks every truncation (levels stay the same); it serves the
    warm-up and the benchmark's own tests.
    """
    templates = WORKLOADS[workload]
    # Separate streams (the second key) for eta offsets, job order and per-job draws.
    offsets = np.random.default_rng([seed, 0]).random(len(templates))
    order = np.random.default_rng([seed, 1, index]).permutation(len(templates))
    jobs = []
    for pos, t in enumerate(order):
        tpl = templates[t]
        rng = np.random.default_rng([seed, 2, index, int(t)])
        lo, hi = ETA_RANGE[tpl.family]
        eta = lo + (hi - lo) * ((offsets[t] + index * GOLDEN) % 1.0)
        dim = tpl.dim if dim_cap is None else min(tpl.dim, dim_cap)
        jobs.append(Job(
            job_id=index * len(templates) + pos,
            kind=tpl.kind,
            family=tpl.family,
            dim=dim,
            eta=float(eta),
            levels=_draw_levels(tpl.levels, rng, dim, int(3 * offsets[t]) + index),
            restarts=tpl.restarts,
            opt_seed=int(rng.integers(2**31)),
        ))
    return jobs


# ---------------------------------------------------------------------------
# Running a job
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Context:
    """What set-up leaves for the jobs: channel files by truncation, with their sources."""

    custom: dict[int, tuple[Path, sc.KrausChannel]]


def prepare(workdir: Path, workload: str, seed: int, dim_cap: int | None = None) -> Context:
    """Write the channel files that the workload's custom jobs reload."""
    workdir.mkdir(parents=True, exist_ok=True)
    eta = 0.2 + 0.7 * np.random.default_rng([seed, 3]).random()
    custom = {}
    for tpl in WORKLOADS[workload]:
        dim = tpl.dim if dim_cap is None else min(tpl.dim, dim_cap)
        if tpl.kind == "custom" and dim not in custom:
            source = sc.amplitude_damping(float(eta), dim)
            path = workdir / f"custom_{seed}_{dim}.txt"
            sc.save_channel(source, path)
            custom[dim] = (path, source)
    return Context(custom=custom)


def build_channel(job: Job) -> sc.KrausChannel:
    if job.family == "pd":
        return sc.phase_damping(job.eta, job.dim)
    if job.family == "ad":
        return sc.amplitude_damping(job.eta, job.dim)
    return sc.depolarizing(job.eta, job.dim)


def run(job: Job, ctx: Context):
    """Execute one job and return what its check needs."""
    if job.kind == "custom":
        ch = sc.load_channel(ctx.custom[job.dim][0])
        return ch, sc.invariant_hull_check(ch, sc.Subspace.from_levels(job.levels, ch.dim))
    ch = build_channel(job)
    if job.kind == "fidelity":
        enc = sc.Subspace.from_levels(job.levels, job.dim)
        pairs = sc.contiguous_pair_sweep(ch, PAIR_SWEEP_MAX_LEVEL) if job.family == "ad" else None
        return (sc.average_fidelity_closed(ch, enc).value,
                sc.average_fidelity_quadrature(ch, enc).value, pairs)
    if job.kind == "optimize":
        return sc.optimize_encoding(ch, job.levels, restarts=job.restarts, seed=job.opt_seed)
    if job.kind == "hull":
        return sc.invariant_hull_check(ch, sc.Subspace.from_levels(job.levels, job.dim))
    if job.kind == "verify":
        return sc.verify_channel(ch)
    if job.kind == "fixed":
        return len(sc.fixed_point_space(ch))
    raise ValueError(f"unknown job kind {job.kind!r}")


# ---------------------------------------------------------------------------
# Known answers
# ---------------------------------------------------------------------------


def known_fidelity(family: str, eta: float, levels: tuple[int, ...], dim: int) -> float:
    """Bloch-averaged fidelity of a Fock-pair encoding, in closed form."""
    k, s = levels
    if family == "pd":
        return 2.0 / 3.0 + eta ** ((k - s) ** 2) / 3.0
    if family == "ad" and levels == (0, 1):
        return 0.5 + eta / 6.0 + np.sqrt(eta) / 3.0
    if family == "dep":
        return eta + (1.0 - eta) / dim
    raise ValueError(f"no closed form for {family} on levels {levels}")


def best_known_pair(family: str, eta: float, levels: tuple[int, ...], dim: int) -> float:
    """Fidelity of the best Fock pair inside ``levels`` that has a closed form."""
    if family == "ad":
        return known_fidelity("ad", eta, (0, 1), dim)
    return max(known_fidelity(family, eta, (k, s), dim)
               for i, k in enumerate(levels) for s in levels[i + 1:])


def expect_invariant(family: str, levels: tuple[int, ...], dim: int) -> bool:
    """pd keeps every Fock span; ad keeps {0..k}; dep (p < 1) keeps no proper span."""
    if family == "pd":
        return True
    if family == "ad":
        return levels == tuple(range(len(levels)))
    return len(levels) == dim


def _check_pairs(rows, job: Job) -> str | None:
    values = [row.value for row in rows]
    if values != sorted(values, reverse=True):
        return "pair sweep not sorted best first"
    n = PAIR_SWEEP_MAX_LEVEL + 1
    if len(rows) != n * (n - 1) // 2:
        return f"pair sweep has {len(rows)} rows"
    (row01,) = [row for row in rows if (row.k, row.s) == (0, 1)]
    want = known_fidelity("ad", job.eta, (0, 1), job.dim)
    if abs(row01.value - want) > KNOWN_TOL:
        return f"pair (0,1) {row01.value!r} != known {want!r}"
    return None


def check(job: Job, out, ctx: Context) -> str | None:
    """None when the outputs match the known answer, else what is wrong."""
    if job.kind == "fidelity":
        closed, quad, pairs = out
        want = known_fidelity(job.family, job.eta, job.levels, job.dim)
        if abs(closed - want) > KNOWN_TOL:
            return f"closed form {closed!r} != known {want!r}"
        if abs(closed - quad) > CROSS_CHECK_TOL:
            return f"closed/quadrature gap {abs(closed - quad):.3e}"
        return None if pairs is None else _check_pairs(pairs, job)
    if job.kind == "optimize":
        want = best_known_pair(job.family, job.eta, job.levels, job.dim)
        if out.best_fidelity < want - OPTIMIZER_TOL:
            return f"optimizer reached {out.best_fidelity!r} < known {want!r}"
        return None
    if job.kind in ("hull", "custom"):
        report = out
        if job.kind == "custom":
            ch, report = out
            source = ctx.custom[job.dim][1]
            if ch.dim != source.dim or not np.array_equal(ch.kraus_ops, source.kraus_ops):
                return "reloaded channel differs from its source"
        want = expect_invariant(job.family, job.levels, job.dim)
        if report.is_invariant_hull != want:
            return f"hull verdict {report.is_invariant_hull}, expected {want}"
        return None
    if job.kind == "verify":
        if not (out.tp_ok and out.hermiticity_ok and out.positivity_ok):
            return f"verify flags not all ok: {out}"
        return None
    if job.kind == "fixed":
        want = job.dim if job.family == "pd" else 1
        if out != want:
            return f"{out} fixed points, expected {want}"
        return None
    return f"no check for job kind {job.kind!r}"


def rounds(workload: str, seed: int, dim_cap: int | None = None):
    """Endless job list of a workload, round by round."""
    index = 0
    while True:
        yield make_round(workload, seed, index, dim_cap)
        index += 1
