"""The BLAS thread count of the OpenBLAS that numpy loaded, standard library only.

OpenBLAS workers busy-wait for about 0.1 s after every threaded call, and
setting the count after a shutdown starts a pool that does the same. So
:func:`limit` parks the pool (``blas_thread_shutdown_``) right after every
set, except the one that raises the count for the block to use. With no
OpenBLAS loaded, or a symbol missing, :func:`threads` is None and
:func:`limit` does nothing.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy  # noqa: F401 -- loads numpy's BLAS before the maps are read

_PREFIXES = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}")


@functools.cache
def _bind():
    """(get, set, shutdown) of the loaded OpenBLAS, or None; found on first use."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        found = [next((getattr(lib, p.format(name)) for p in _PREFIXES
                       if hasattr(lib, p.format(name))), None)
                 for name in ("get_num_threads", "set_num_threads")]
        if all(found) and hasattr(lib, "blas_thread_shutdown_"):
            get, set_, shutdown = *found, lib.blas_thread_shutdown_
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            return get, set_, shutdown
    return None


def threads() -> int | None:
    """The current BLAS thread count, or None without OpenBLAS."""
    lib = _bind()
    return lib[0]() if lib else None


def _set(count: int, park: bool) -> None:
    _, set_, shutdown = _bind()
    set_(count)
    if park:
        shutdown()


@contextmanager
def limit(count: int | None):
    """Run the block at ``count`` BLAS threads; yields the caller's count.

    At the current count, or for None, it does nothing, so nested regions
    cost nothing. Otherwise it parks the pool on exit, and on entry unless
    the count rises: then the block runs on the pool the set starts, which
    saves a second pool start per region.
    """
    caller = threads()
    if caller is None or count is None or count == caller:
        yield caller
        return
    _set(count, park=count < caller)
    try:
        yield caller
    finally:
        _set(caller, park=True)
