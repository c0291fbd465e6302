"""Locate the program under test and fix the thread settings it runs with.

The benchmark measures the spiketrum package in the ``src/`` directory of
the checkout it sits in, never an installed copy: a checkout without that
package is an error, so a run there exits non-zero without a result.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# BLAS pinned to one thread: the program's own pool is the only source of
# parallelism, so the threads in use never exceed the CPUs available.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Must run before numpy is first imported in the process."""
    for name in BLAS_ENV:
        os.environ[name] = "1"


def cpu_count():
    return len(os.sched_getaffinity(0))


def load():
    """Import spiketrum from ``<checkout>/src``; exit 1 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "spiketrum", "__init__.py")):
        raise SystemExit(f"error: no spiketrum package under {SRC}")
    sys.path.insert(0, SRC)
    import spiketrum

    origin = os.path.abspath(spiketrum.__file__)
    if not origin.startswith(SRC + os.sep):
        raise SystemExit(f"error: spiketrum imported from {origin}, not {SRC}")
    return spiketrum
