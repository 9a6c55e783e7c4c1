"""Process environment for the benchmark: BLAS threads, package location
and the machine record.

Nothing here imports numpy at module level, so a fresh process can import
this module before it starts timing its own import of ``liemoments``.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread for every benchmark process (nproc here is 2): the package
# is single-threaded Python apart from a few small matrix products, and a
# fixed count keeps numbers independent of the library default.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingPackage(RuntimeError):
    """The checkout has no ``src/liemoments`` to benchmark."""


def pin_blas_threads():
    """Set the BLAS thread count for this process and the processes it
    starts; must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source():
    """Put the checkout's ``src`` first on ``sys.path``.

    Refuses when the checkout holds no package, so that an installed copy
    elsewhere is never benchmarked by mistake.
    """
    if not (SRC / "liemoments" / "__init__.py").is_file():
        raise MissingPackage(f"no liemoments package under {SRC}")
    sys.path.insert(0, str(SRC))


def check_imported(module):
    """Confirm that ``liemoments`` was imported from the checkout."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise MissingPackage(f"liemoments imported from {path}, not {SRC}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine():
    """Python, numpy, BLAS library, thread settings, nproc and CPU model."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
    }
