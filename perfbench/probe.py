"""Provenance of a benchmark run, as one JSON object on stdout.

Run it with the same environment as the benchmarked commands, so that
the thread settings it reports are the ones those commands see:

    PYTHONPATH=src python3 perfbench/probe.py
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys

THREAD_VARS = ("OQMAP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _openblas_threads(numpy):
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance() -> dict:
    import numpy
    import oqmap

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "oqmap_file": oqmap.__file__,
        "thread_vars_seen": {v: os.environ.get(v) for v in THREAD_VARS},
        # the benchmark unsets OQMAP_THREADS, so the CLI caps its pool
        # at os.cpu_count()
        "pool_workers_cap": os.cpu_count(),
        "openblas_threads": _openblas_threads(numpy),
    }


if __name__ == "__main__":
    json.dump(provenance(), sys.stdout)
    print()
