"""What the numbers were measured on, and a fixed kernel that shows drift.

The machine record is information printed and stored with every result;
none of it is gated. ``reference_kernel_ms`` times the same fixed work
around each repetition, so a machine that slows down mid-run shows up next
to the audit timings instead of being mistaken for a regression. The
end-to-end timings are scaled by it to ``NOMINAL_REFERENCE_MS`` (see
``run.py``).
"""

from __future__ import annotations

import math
import os
import platform
import time
from pathlib import Path

import numpy as np

_X = np.random.default_rng(0).standard_normal(1000)
_SHORT = _X[:128]
_DIFF = np.empty((1000, 1000))
_CLOSE = np.empty((1000, 1000), dtype=bool)


def _pairwise_fresh() -> None:
    """A W=1000 sample-entropy match count in fresh arrays (page faults)."""
    int((np.abs(_X[:, None] - _X[None, :]) <= 0.2).sum())


def _pairwise_in_place() -> None:
    """The same count in preallocated arrays: arithmetic and bandwidth only."""
    np.subtract(_X[:, None], _X[None, :], out=_DIFF)
    np.abs(_DIFF, out=_DIFF)
    np.less_equal(_DIFF, 0.2, out=_CLOSE)
    int(np.count_nonzero(_CLOSE))


def _pairwise_short() -> None:
    """A W=128 count, 100 times: cache-resident arrays, numpy call overhead."""
    for _ in range(100):
        int((np.abs(_SHORT[:, None] - _SHORT[None, :]) <= 0.2).sum())


def _interpreted() -> None:
    """Plain Python arithmetic and dict inserts, as in CSV parsing."""
    total = 0
    for i in range(60000):
        total += (i * 7) % 13
    table = {}
    for i in range(5000):
        table[str(i)] = i


# Each kind of work the audit does reacts differently to a busy host: one
# workload's audit tracked the fresh-array count best, another's the plain
# Python loop. Their geometric mean tracks all three workloads.
_KERNELS = (_pairwise_fresh, _pairwise_in_place, _pairwise_short, _interpreted)

# The reference kernel's time on a nominal machine: a 2-vCPU Xeon VM took
# 3.7-5.3 ms. A timing scaled to it reads as on that machine.
NOMINAL_REFERENCE_MS = 5.0


def reference_kernel_ms() -> float:
    """Geometric mean over ``_KERNELS`` of each one's median ms of three runs."""
    logs = []
    for kernel in _KERNELS:
        times = []
        for _ in range(3):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
        logs.append(math.log(1000.0 * sorted(times)[1]))
    return math.exp(sum(logs) / len(logs))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_sha(root: Path) -> str:
    """HEAD's commit read from .git directly; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(root: Path) -> dict:
    src = root / "src" / "sensoraudit"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(root),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }
