"""Thread pinning and the environment record attached to every result.

pin_threads() must run before numpy is imported: the BLAS thread pool is
sized when the library loads.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "TMPNN_NUM_THREADS")


class EnvironmentRefused(RuntimeError):
    """The process cannot be measured with BLAS pinned to one thread."""


def pin_threads() -> None:
    """Pin every BLAS/OpenMP thread variable to 1; refuse a conflicting value."""
    if "numpy" in sys.modules:
        raise EnvironmentRefused("numpy was imported before the BLAS threads "
                                 "were pinned")
    for var in THREAD_VARS:
        value = os.environ.setdefault(var, "1")
        if value.strip() != "1":
            raise EnvironmentRefused(f"{var}={value}: the benchmark measures "
                                     f"one BLAS thread; unset it or set it to 1")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def check_blas_pinned() -> int | None:
    threads = blas_threads()
    if threads is not None and threads != 1:
        raise EnvironmentRefused(f"BLAS reports {threads} threads after pinning")
    return threads


def _git_commit(root: str) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _source_digest(src: str) -> str:
    """sha256 over the package sources, to tell builds apart without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "tmpnn", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(root: str, src: str) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": check_blas_pinned(),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
    }
