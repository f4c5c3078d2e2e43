"""What a reader needs to reproduce a benchmark result: versions, BLAS, CPU, caches."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# glibc's malloc raises its mmap threshold as large blocks are freed, up to
# 32 MiB on 64-bit, and keeps the trim threshold at twice that. Left dynamic,
# a job's page-fault cost depends on which jobs ran before it; fixed at that
# ceiling, every job sees the long-running steady state.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20


def pin_blas_threads() -> None:
    """Ask every common BLAS for one thread; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def pin_allocator() -> dict | None:
    """Fix glibc's malloc thresholds; None where the C library is not glibc."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if not (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
            and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_BYTES)):
        return None
    return {"mmap_threshold": MMAP_THRESHOLD_BYTES, "trim_threshold": 2 * MMAP_THRESHOLD_BYTES}


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def _source_digest(src: Path) -> str:
    """SHA-256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    import numpy as np

    info = {"pinned": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except (KeyError, TypeError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count reported by an OpenBLAS already mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Cache sizes of CPU 0 by level, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def describe(root: Path, seed: int, allocator: dict | None) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "malloc": allocator,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "caches": _caches(),
        "seed": seed,
    }
