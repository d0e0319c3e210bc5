"""Environment and host-noise record of a benchmark run.

The record lets a run made on a busy host be recognised afterwards. It
is never used to rescale a metric.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import statistics
import sys
from time import perf_counter

REF_KERNEL_N = 256       # reference kernel: a float64 N x N matmul
REF_KERNEL_SECONDS = 0.3


def blas_info() -> dict:
    """Name, build string and thread count of the BLAS this process loaded.

    OpenBLAS (as bundled with numpy wheels) is queried through its own
    C API; other libraries report their file name only.
    """
    import numpy  # noqa: F401  (loads the BLAS)
    try:
        with open("/proc/self/maps") as f:
            maps = f.read()
    except OSError:
        return {"library": "unknown", "threads": None, "config": None}
    libs = sorted(set(re.findall(r"(/\S*(?:openblas|mkl_rt|blis)\S*\.so\S*)", maps)))
    info = {"library": os.path.basename(libs[0]) if libs else "unknown",
            "threads": None, "config": None}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None:
                    continue
                threads.restype = ctypes.c_int
                info["threads"] = int(threads())
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode("ascii", "replace")
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas": blas_info(),
        "executable": os.path.basename(sys.executable),
    }


def reference_kernel_ms() -> dict:
    """Median and quartiles of one fixed numpy kernel, in ms per call."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((REF_KERNEL_N, REF_KERNEL_N))
    times = []
    end = perf_counter() + REF_KERNEL_SECONDS
    while perf_counter() < end:
        t0 = perf_counter()
        a @ a
        times.append((perf_counter() - t0) * 1e3)
    q1, med, q3 = statistics.quantiles(times, n=4)
    return {"kernel": f"float64 matmul {REF_KERNEL_N}x{REF_KERNEL_N}",
            "median_ms": med, "q1_ms": q1, "q3_ms": q3, "calls": len(times)}


def cpu_ticks() -> dict:
    """Machine-wide CPU time counters (``/proc/stat``), for the share of
    time the hypervisor gave to other guests (steal) during a run."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return {"total": 0, "steal": 0}
    return {"total": sum(fields[:8]), "steal": fields[7] if len(fields) > 7 else 0}


def steal_pct(before: dict, after: dict):
    total = after["cpu_ticks"]["total"] - before["cpu_ticks"]["total"]
    steal = after["cpu_ticks"]["steal"] - before["cpu_ticks"]["steal"]
    return 100.0 * steal / total if total > 0 else None


def noise_snapshot() -> dict:
    return {"loadavg": list(os.getloadavg()), "cpu_ticks": cpu_ticks(),
            "reference_kernel": reference_kernel_ms()}
