"""Record of the machine, library versions and source a result came from.

Fields that cannot be read are reported as null rather than guessed.
BLAS threading is left at the program's default and only recorded.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or None


def caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            out[f"L{level} {kind}"] = size
    return out


def blas_builds() -> dict[str, str | None]:
    """BLAS build of numpy (matrix products) and scipy (the LAPACK solves)."""
    import numpy
    import scipy

    out = {}
    for module in (numpy, scipy):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[module.__name__] = f"{blas['name']} {blas['version']}"
        except (KeyError, TypeError, ValueError):
            out[module.__name__] = None
    return out


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at root, read without running git."""
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(root: Path, seed: int, child_env: dict[str, str]) -> dict:
    import mpmath
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    threads = {v: child_env[v] for v in BLAS_THREAD_VARS if v in child_env}
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_builds(),
        "blas_threads": threads or f"default (OpenBLAS uses one thread per CPU: {nproc})",
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src" / "magnitude"),
        "seed": seed,
        "note": "flops and bytes in the trace are computed from array sizes; "
        "no bandwidth is measured",
    }
