"""Thread counts of the OpenBLAS libraries that numpy and scipy bundle.

numpy and scipy wheels each ship their own OpenBLAS under `<package>.libs/`.
A library reads OPENBLAS_NUM_THREADS once, when it is loaded. Importing
sliceorch loads numpy's, so by the time the command line runs the variable
is read. scipy's loads with its LAPACK module scipy.linalg._flapack, on the
first GP fit (see `gp._load_scipy`), unless `_libraries` opens it first; the
dynamic loader keeps one copy of a library per process, so _flapack then
links the copy already open, with the thread count set here. The count is
read and set through each library's `get_num_threads` and
`set_num_threads`, found by the symbol names the wheels export. A numpy or
scipy built against another BLAS has no such library, and then there is
nothing to read or set.
"""

from __future__ import annotations

import ctypes
import glob
import os
from itertools import product
from typing import Callable


def _libraries() -> list[tuple[str, Callable[[], int], Callable[[int], None]]]:
    """(package, get_num_threads, set_num_threads) of each bundled OpenBLAS."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        pattern = os.path.join(
            os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs", "*openblas*"
        )
        for path in sorted(glob.glob(pattern)):
            lib = ctypes.CDLL(path)  # the loaded copy, if the package loaded it already
            for prefix, suffix in product(("scipy_openblas_", "openblas_"), ("64_", "")):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get is None:
                    continue
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((pkg.__name__, get, set_))
                break
    return found


def threads() -> dict[str, int]:
    """The thread count in effect of each bundled OpenBLAS, by package name."""
    return {package: get() for package, get, _ in _libraries()}


def set_threads(count: int) -> None:
    """Make every bundled OpenBLAS run on `count` threads."""
    for _, _, set_ in _libraries():
        set_(count)
