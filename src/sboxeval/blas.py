"""numpy's bundled OpenBLAS thread count, read and pinned through ctypes.

The Kronecker kernel calls BLAS from every pool thread.  Left alone,
OpenBLAS would start its own threads inside each of those calls, so the
engine pins it to one thread while its pool runs: pool threads and BLAS
threads together then equal the worker count.  numpy's wheels bundle
OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so``; where that library or
its thread symbols are missing, ``openblas()`` is None and the engine keeps
the integer butterfly.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np


@functools.cache
def openblas():
    """(get_num_threads, set_num_threads) of numpy's OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# OpenBLAS keeps one process-wide count, so concurrent evaluations share one
# pin: the first to enter saves the old count, the last to leave restores it.
_lock = threading.Lock()
_users = 0
_saved = 0


@contextlib.contextmanager
def single_threaded():
    """Pin OpenBLAS to one thread for the body; a no-op without ``openblas()``."""
    global _users, _saved
    handle = openblas()
    if handle is None:
        yield
        return
    get, set_ = handle
    with _lock:
        if _users == 0:
            _saved = get()
            set_(1)
        _users += 1
    try:
        yield
    finally:
        with _lock:
            _users -= 1
            if _users == 0:
                set_(_saved)
