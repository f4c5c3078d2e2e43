"""Spans and counters around subchan's public functions, for the traced run.

Each traced function is replaced by a wrapper in every ``subchan`` module
that holds it under its own name. Modules bind functions by name on import
(``apply_channel`` lives in ``channels``, ``fidelity``, ``subspaces``,
``cli`` and the package namespace), so patching the defining module alone
would miss calls made from the others.

A span is ``[name, start, end, parent, job_id]``, kept in memory and written
out by the caller at the end. A span's self time is its duration minus the
durations of its direct children. Flop and byte counts are computed from the
channel's Kraus term count and truncation, not measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

COMPLEX_BYTES = 16

# Traced functions by defining module (layer); spans are named "<layer>.<function>".
TRACED = {
    "families": ("amplitude_damping", "phase_damping", "depolarizing"),
    "channels": ("apply_channel", "adjoint_apply", "superoperator_of", "verify_channel"),
    "fidelity": ("average_fidelity_quadrature", "average_fidelity_closed",
                 "level_process_tensor", "average_fidelity_from_frames"),
    "subspaces": ("fixed_point_space", "invariant_hull_check", "unitality_check"),
    "encodings": ("optimize_encoding", "contiguous_pair_sweep"),
    "fileio": ("load_channel",),
}
ROOT = "job"


def _kraus_bytes(ch) -> int:
    """Storage of the Kraus data: the dense stack, or the diagonals when only those are kept."""
    per_term = ch.dim if ch._diagonals is not None else ch.dim * ch.dim
    return ch.kraus_truncation * per_term * COMPLEX_BYTES


def _action_cost(ch, first_call: bool) -> tuple[float, float]:
    """Computed (flops, operand bytes) of one Phi or Phi* application.

    Dense path: two batched matmuls over the stack plus the term sum,
    16 K n^3 + 2 K n^2 flops, reading the stack twice. Diagonal path: one
    elementwise product with M = D^T conj(D), 6 n^2 flops, plus forming M
    (8 K n^2 flops) on the channel's first application.
    """
    k, n = ch.kraus_truncation, ch.dim
    square = n * n * COMPLEX_BYTES
    if ch.__dict__.get("_pair_damping") is None:
        return 16.0 * k * n**3 + 2.0 * k * n * n, 2.0 * k * square + 2 * square
    flops, nbytes = 6.0 * n * n, 3.0 * square
    if first_call:
        flops += 8.0 * k * n * n
        nbytes += k * n * COMPLEX_BYTES
    return flops, nbytes


class Tracer:
    """Collects spans and counters while installed; restores the modules on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.job_id = -1

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent, self.job_id]
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def job(self, job_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of job ``job_id``."""
        self.job_id = job_id
        rec = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = count.before(args) if count else None
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count:
                count.after(self.counts, args, out, before)
            return out

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "subchan" or key.startswith("subchan.")]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"subchan.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original, _COUNTERS.get(name))
                self._patch_everywhere(modules, name, original, wrapper)
        encodings = importlib.import_module("subchan.encodings")
        minimize = encodings.minimize
        self._patches.append((encodings, "minimize", minimize))
        encodings.minimize = self._count_minimize(minimize)

    def _patch_everywhere(self, modules, name, original, wrapper) -> None:
        for module in modules:
            if getattr(module, name, None) is original:
                self._patches.append((module, name, original))
                setattr(module, name, wrapper)

    def _count_minimize(self, minimize):
        @functools.wraps(minimize)
        def counted(*args, **kwargs):
            result = minimize(*args, **kwargs)
            self.counts["encodings.minimize.nfev"] += int(result.nfev)
            self.counts["encodings.minimize.nit"] += int(result.nit)
            self.counts["encodings.minimize.runs"] += 1
            self.counts["encodings.minimize.converged"] += bool(result.success)
            return result

        return counted

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with ``spans``."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named ``<layer>.<function>.<quantity>``."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for rec, t in zip(self.spans, own):
            calls[rec[0]] += 1
            self_s[rec[0]] += t
        c = self.counts
        out: dict[str, float] = {}
        for layer, names in TRACED.items():
            for name in names:
                key = f"{layer}.{name}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_s"] = self_s[key]
        frames = "fidelity.average_fidelity_from_frames"
        out[f"{frames}.us_per_call"] = (
            1e6 * self_s[frames] / calls[frames] if calls[frames] else 0.0)
        out["families.kraus_bytes"] = c["families.kraus_bytes"]
        for key in ("apply_channel", "adjoint_apply"):
            out[f"channels.{key}.flops_computed"] = c[f"channels.{key}.flops"]
        out["channels.apply_channel.bytes_computed"] = c["channels.apply_channel.bytes"]
        out["encodings.minimize.nfev"] = c["encodings.minimize.nfev"]
        out["encodings.minimize.nit"] = c["encodings.minimize.nit"]
        runs = c["encodings.minimize.runs"]
        out["encodings.restart_converged_frac"] = (
            c["encodings.minimize.converged"] / runs if runs else 0.0)
        out["encodings.objective_infeasible"] = (
            c["encodings.minimize.nfev"] - calls[frames])
        job_s = sum(rec[2] - rec[1] for rec in self.spans if rec[0] == ROOT)
        glue_s = sum(t for rec, t in zip(self.spans, own) if rec[0] == ROOT)
        out["trace.jobs"] = calls[ROOT]
        out["trace.layer_self_frac"] = 1.0 - glue_s / job_s if job_s else 0.0
        return out


class _KrausBytes:
    """Largest Kraus storage built by a family constructor during the run."""

    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(counts, args, out, before):
        counts["families.kraus_bytes"] = max(counts["families.kraus_bytes"], _kraus_bytes(out))


class _ActionCost:
    def __init__(self, key: str):
        self.key = key

    @staticmethod
    def before(args):
        return "_pair_damping" not in args[0].__dict__

    def after(self, counts, args, out, first_call):
        flops, nbytes = _action_cost(args[0], first_call)
        counts[f"channels.{self.key}.flops"] += flops
        counts[f"channels.{self.key}.bytes"] += nbytes


_COUNTERS = {
    "amplitude_damping": _KrausBytes,
    "phase_damping": _KrausBytes,
    "depolarizing": _KrausBytes,
    "apply_channel": _ActionCost("apply_channel"),
    "adjoint_apply": _ActionCost("adjoint_apply"),
}
