"""LAPACK's tridiagonal eigensolver dstevd, from the OpenBLAS bundled with numpy.

numpy.linalg wraps no tridiagonal driver. eigh (dsyevd) on the densified
matrix pays an O(n^3) Householder reduction, whose reflectors are all the
identity here, before the divide and conquer that dstevd runs alone, so
both give the same eigenpairs bit for bit. numpy's wheels ship
scipy-openblas with an ILP64 LAPACKE, looked up on first use. dstevd's
merges call threaded gemms, whose sums change with the thread count, so it
runs on one OpenBLAS thread (openblas_set_num_threads_local, where the
library has it) and gives the same bits whatever OPENBLAS_NUM_THREADS says.
That setter acts on the whole process, so a threaded sweep holds the same
pin (one_blas_thread) while its cells run: all their BLAS runs on one thread.
"""

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

__all__ = ["dstevd", "dstevd_symbol", "one_blas_thread"]


@functools.cache
def _library() -> tuple:
    """(scipy_LAPACKE_dstevd64_, openblas_set_num_threads_local) of numpy's
    bundled OpenBLAS, None for each one it lacks."""
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
            fn = lib.scipy_LAPACKE_dstevd64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_int64, *[ctypes.c_void_p] * 3, ctypes.c_int64]
        fn.restype = ctypes.c_int64
        setter = getattr(lib, "openblas_set_num_threads_local", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return fn, setter
    return None, None


def dstevd_symbol():
    """scipy_LAPACKE_dstevd64_ of numpy's bundled OpenBLAS, or None without it."""
    return _library()[0]


# The setter changes the whole process's thread count and returns the old one,
# so overlapping holders (dstevd calls, a threaded sweep) share one pin: the
# first sets one thread, the last restores the count the first found. Without
# the setter a stand-in that returns its argument makes the pin change nothing.
_pin_lock = threading.Lock()
_pin = {"holders": 0, "saved": 0}


@contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, process-wide; holders nest and overlap."""
    setter = _library()[1] or (lambda count: count)
    with _pin_lock:
        if not _pin["holders"]:
            _pin["saved"] = setter(1)
        _pin["holders"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["holders"] -= 1
            if not _pin["holders"]:
                setter(_pin["saved"])


def dstevd(d: np.ndarray, e: np.ndarray) -> tuple | None:
    """Eigenvalues (ascending) and column-major eigenvectors of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e; None without dstevd.

    Raises LinAlgError when dstevd does not converge, and RuntimeError, a
    program fault that a sweep does not record as a cell error, for an
    illegal argument or a workspace it could not allocate (info -1010).
    """
    fn = dstevd_symbol()
    if fn is None:
        return None
    w, scratch = np.array(d, dtype=np.float64), np.array(e, dtype=np.float64)
    n = w.size
    if w.ndim != 1 or scratch.shape != (max(n - 1, 0),):
        raise RuntimeError(f"dstevd got diagonal {w.shape} and off-diagonal {scratch.shape}")
    z = np.empty((n, n), order="F")
    # 102 is LAPACK_COL_MAJOR, so z's leading dimension is n (LAPACK wants >= 1).
    with one_blas_thread():
        info = fn(102, b"V", n, w.ctypes.data, scratch.ctypes.data, z.ctypes.data, max(1, n))
    if info > 0:
        raise LinAlgError(f"dstevd did not converge (info = {info})")
    if info < 0:
        raise RuntimeError(f"dstevd failed with info = {info} on a {n}x{n} matrix")
    return w, z
