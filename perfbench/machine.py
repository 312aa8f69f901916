"""Run environment record and the machine's measured ceilings."""

from __future__ import annotations

import os
import pathlib
import platform
import resource
import time
from typing import Any, Dict, List, Tuple

import numpy as np

def loadavg() -> List[float]:
    """The 1/5/15-minute load averages."""
    return [round(x, 2) for x in os.getloadavg()]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{deps.get('name', '?')} {deps.get('version', '?')}"


def environment(src: pathlib.Path, load_before: List[float]) -> Dict[str, Any]:
    """Everything that can make two runs of the same code disagree."""
    from repro.artifacts.fingerprint import code_fingerprint

    sources = sorted((src / "repro").rglob("*.py"))
    return {
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "code_fingerprint": code_fingerprint(
            (str(p.relative_to(src)), p.read_text()) for p in sources
        ),
    }


# ---------------------------------------------------------------------- #
def last_level_cache_bytes() -> int:
    """Size of the largest CPU cache level sysfs reports (32 MiB if none)."""
    best_level, best_size = 0, 32 << 20
    root = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        size = int(text.rstrip("KM")) * scale
        if level >= best_level:
            best_level, best_size = level, size
    return best_size


def ceilings() -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Measured GEMM GFLOP/s and stream-copy GB/s, single-threaded.

    Both use arrays of at least 4x the last-level cache, so neither rate
    is served from cache.  Returns the rates and the sizes used.
    """
    llc = last_level_cache_bytes()
    # Copy: one read stream and one write stream per pass.
    n_copy = 4 * llc // 8
    src = np.ones(n_copy)
    dst = np.empty_like(src)
    copy_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copy_s.append(time.perf_counter() - t0)
    copy_gbs = 2.0 * src.nbytes / min(copy_s) / 1e9
    del src, dst
    # GEMM: three square float64 matrices, together >= 4x the LLC.
    n = int(np.ceil(np.sqrt(4 * llc / (3 * 8)) / 64.0)) * 64
    a = np.full((n, n), 0.5)
    b = np.full((n, n), 0.25)
    c = np.empty((n, n))
    small = np.ones((256, 256))
    small @ small  # the first BLAS call pays its buffer set-up
    t0 = time.perf_counter()
    np.matmul(a, b, out=c)
    gemm_s = time.perf_counter() - t0
    gemm_gflops = 2.0 * n ** 3 / gemm_s / 1e9
    sizes = {
        "llc_bytes": llc,
        "copy_array_bytes": n_copy * 8,
        "gemm_n": n,
        "gemm_arrays_bytes": 3 * n * n * 8,
    }
    return {"gemm_gflops": gemm_gflops, "copy_gbs": copy_gbs}, sizes
