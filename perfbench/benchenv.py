"""Thread pinning and the environment record written with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin BLAS to one thread. Must run before numpy is first imported:
    OpenBLAS reads these variables when it is loaded."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def describe(root: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": _openblas_threads(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def _openblas_threads(np) -> int | None:
    """Thread count OpenBLAS itself reports, when numpy bundles it."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout; None outside a git repository or without git.
    Git does not look for a repository above `root`."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(os.path.abspath(root))}
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None
