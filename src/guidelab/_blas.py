"""The BLAS behind numpy's matrix products: its thread count and the size of
the row blocks that the distance kernels hand to it.

numpy's wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas*.so``, which
exports ``scipy_openblas_{get,set}_num_threads64_``; they are reached through
ctypes, so no thread-control package is needed.  Where numpy links another
BLAS, ``threads`` does nothing.
"""

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

# Entries of one GEMM output block: 4 MiB of float64.  Such small blocks keep
# memory bounded.  Every distance kernel runs under threads(1), since with
# more BLAS threads their many small GEMMs cost more CPU time than they save
# in wall time: the k-NN (metrics), and the trajectory and forward traces
# (sampler._nearest_distance).  At OpenBLAS's default 2 threads the 64-chain
# x 51-state trace against 8000 points in D = 64 took 0.14-0.17 s wall /
# 0.27-0.32 s CPU on an idle host, 0.27-0.54 s beside one busy core, and
# about 1 s in some fresh processes; pinned and pruned it takes 0.07-0.13 s
# of both, idle or beside the busy core (2 cores, OpenBLAS 0.3.31), with
# equal results.  metrics.frechet_distance runs under
# threads(1) too: in some fresh processes one 64 x 64 eigh took 44-48 ms at
# the default 2 threads, against 0.5-0.65 ms pinned, with equal results.
BLOCK_ENTRIES = 1 << 19


def rows_per_block(n_columns):
    """Rows of a block whose GEMM output against n_columns points holds
    BLOCK_ENTRIES entries (at least one row)."""
    return max(1, BLOCK_ENTRIES // n_columns)


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when there is no such library or it lacks the symbols."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)  # numpy loaded it already: the same handle
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def threads(n):
    """Run the body with BLAS limited to ``n`` threads and restore the
    previous count on exit, also on an exception.

    The count is process-wide, so the body should not run concurrently with
    BLAS work in other threads that expects its own count.
    """
    fns = _openblas()
    if fns is None:
        yield
        return
    get, set_ = fns
    previous = get()
    set_(n)
    try:
        yield
    finally:
        set_(previous)
