"""Machine, software and run-settings record printed with every benchmark run."""

from __future__ import annotations

import os
import platform
from dataclasses import asdict
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """L2/L3 sizes of cpu0 as the kernel reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind == "Unified":
            out[f"L{level}"] = size
    return out


def _git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a repository."""
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


def affinity_cores() -> int:
    return len(os.sched_getaffinity(0))


def collect(root: Path, args, threads: int, sizes) -> dict:
    import numpy
    import scipy

    return {
        "machine": {
            "nproc": os.cpu_count(),
            "affinity_cores": affinity_cores(),
            "cpu_model": _cpu_model(),
            "caches": _caches(),
        },
        "software": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "run": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "hedge_threads": threads,
            "git_commit": _git_commit(root),
        },
        "sizes": asdict(sizes),
    }
