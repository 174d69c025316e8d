"""How a large pass is cut into parts.

Passes over more than SPLIT_ELEMENTS elements (``pch``'s kernel, bracket
increments, ``score_products`` and the per-record sweeps of
``prepare_likelihood``) run through ``split`` in one part per CPU of the
process's affinity mask, which taskset and cpusets narrow, leave-one-out
stacks included. Kernel parts end at class bounds and the pairwise log-mass
sum waits for them all, so no output depends on the number of parts. The
calling thread allocates every large buffer, as memory a pool thread
allocates stays in that thread's arena.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# A pass over more elements (brackets or records times rate rows or columns)
# runs in parts, a stack's too; jackknife blocks (2^15) and small n do not.
SPLIT_ELEMENTS = 1 << 17
_POOL = {}  # process id -> its thread pool


def blocks(size, step):
    """Consecutive row slices of at most ``step`` rows covering [0, size), none if empty."""
    return [slice(lo, min(lo + step, size)) for lo in range(0, size, step)]


def _cpus() -> int:
    """The CPUs in this process's affinity mask, where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def split(part, size, elements, bounds=None):
    """Run part(lo, hi) over ranges covering [0, size) rows, or size nonempty
    classes of size + 1 row ``bounds``: the caller runs the first, this process's
    pool (a forked child its own) the rest, in the caller's numpy error state."""
    parts = _cpus() if elements > SPLIT_ELEMENTS else 1
    if parts == 1 or size == 0:
        return part(0, size)
    rows = np.arange(parts + 1) * (size if bounds is None else bounds[-1]) // parts
    edges = np.unique(rows if bounds is None else np.abs(bounds[:, None] - rows).argmin(axis=0))
    pool = _POOL.get(os.getpid()) or _POOL.setdefault(os.getpid(), ThreadPoolExecutor(_cpus()))
    def run(lo, hi, err=np.geterr()):
        with np.errstate(**err):
            part(lo, hi)

    futures = [pool.submit(run, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        part(edges[0], edges[1])
    finally:
        for future in futures:
            future.result()
