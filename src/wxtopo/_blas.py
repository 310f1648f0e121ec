"""Hold numpy's and scipy's OpenBLAS at one thread for the rest of the process."""

from __future__ import annotations

import ctypes

import numpy.linalg._umath_linalg as numpy_lapack
from scipy.linalg import cython_lapack


def pin_blas_to_one_thread() -> None:
    """Set every OpenBLAS that numpy and scipy link to one thread.

    Blocked kernels round differently when OpenBLAS splits them over threads:
    pbtrf's updates and the multifrontal kernels on scipy's build, the
    barycenter's matrix products on numpy's (the paper-grid frame pair of
    the OT tests stops after 1 683 steps on one thread and 2 058 on two).
    Unpinned, results would depend on OPENBLAS_NUM_THREADS, and forked pool
    workers, each running BLAS threads, would oversubscribe the cores. numpy
    and scipy may each link their own OpenBLAS; a symbol lookup on a module
    searches the libraries it links. OpenBLAS built on pthreads applies the
    "local" count to every thread; other BLAS builds lack the symbol.
    """
    for module in (numpy_lapack, cython_lapack):
        setter = getattr(ctypes.CDLL(module.__file__), "openblas_set_num_threads_local", None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter(1)
