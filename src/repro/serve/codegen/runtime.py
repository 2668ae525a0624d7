"""ctypes runtime for the ``compiled`` backend: numpy's BLAS, called from C.

Two jobs:

- **Resolve numpy's own BLAS** (:func:`blas_probe`), once per process.
  The library is the OpenBLAS file numpy's wheel ships
  (``numpy.libs/``, or ``numpy/.dylibs/`` on macOS); ``dlopen`` of that
  path returns the mapping numpy already uses, so a GEMM called from C
  runs the very code ``np.matmul`` runs. Symbol names and the integer
  width come from ``numpy.__config__`` (``scipy-openblas`` built with
  ``USE64BITINT`` exports ``scipy_cblas_sgemm64_`` and friends, taking
  64-bit ints). Never "whichever OpenBLAS the process mapped first":
  once scipy is imported that is scipy's LP64 build, which lacks these
  symbols. Every bound routine must then reproduce ``np.matmul``
  bitwise on a fixed probe, or the backend reports itself unavailable.
- **Load the kernel library** (:func:`kernel_library`): one ``.so``
  per codegen cache, built from ``kernels.h`` and its units (compiled
  side by side, linked into one ``.so``) the first time any graph
  runs natively (or found in the cache), ``dlopen``ed once per process,
  handed the BLAS function pointers once, and shared by every compiled
  graph. Its one entry point ``repro_run(steps, count, n, t, b)`` runs
  a :class:`~repro.serve.codegen.renderer.Segment`'s descriptor table
  for one batch: one call per native run, with ``n`` the run input's
  leading dimension, ``t`` its time extent (1 for a run without a time
  axis) and ``b`` the run's pointer table. No C is compiled per graph.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import CompileError
from repro.serve.codegen.build import build_library
from repro.serve.codegen.renderer import (
    BLAS_ROUTINES,
    CBLAS_COL_MAJOR,
    CBLAS_NO_TRANS,
    CBLAS_ROW_MAJOR,
    CBLAS_TRANS,
    library_units,
)

_dlopen_lock = threading.Lock()
_loaded: Dict[str, ctypes.CDLL] = {}


def load_library(path: Path) -> ctypes.CDLL:
    """``dlopen`` with a process-wide memo (cache hits share mappings)."""
    key = str(path)
    with _dlopen_lock:
        library = _loaded.get(key)
        if library is None:
            library = ctypes.CDLL(key)
            _loaded[key] = library
        return library


# ----------------------------------------------------------------------
# numpy's BLAS
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NumpyBlas:
    """The BLAS routines numpy's ``matmul`` calls, resolved from the
    library numpy ships: ``symbols`` and ``addresses`` follow
    :data:`~repro.serve.codegen.renderer.BLAS_ROUTINES` order."""

    path: str
    symbols: Tuple[str, ...]
    addresses: Tuple[int, ...]
    ilp64: bool

    def describe(self) -> str:
        width = "int64" if self.ilp64 else "int32"
        return f"BLAS {self.path} [{', '.join(self.symbols)}; {width}]"


_blas_lock = threading.Lock()
_blas_result: Optional[Tuple[Optional[NumpyBlas], str]] = None


def _numpy_blas_file() -> Optional[Path]:
    """The OpenBLAS shared library shipped inside numpy's package."""
    package = Path(np.__file__).resolve().parent
    for directory in (package.parent / "numpy.libs", package / ".dylibs"):
        if directory.is_dir():
            found = sorted(p for p in directory.iterdir()
                           if "openblas" in p.name)
            if found:
                return found[0]
    return None


def _lookup_symbol(library: ctypes.CDLL, name: str):
    """``library.name`` (``AttributeError`` when it is not exported)."""
    return getattr(library, name)


def _blas_functions(library: ctypes.CDLL, symbols: Tuple[str, ...],
                    ilp64: bool) -> Tuple[Callable, ...]:
    """ctypes bindings of ``symbols`` (sgemm, sgemv, sdot)."""
    i, f, p, e = (ctypes.c_int64 if ilp64 else ctypes.c_int,
                  ctypes.c_float, ctypes.c_void_p, ctypes.c_int)
    sgemm, sgemv, sdot = (_lookup_symbol(library, s) for s in symbols)
    sgemm.argtypes = [e, e, e, i, i, i, f, p, i, p, i, f, p, i]
    sgemv.argtypes = [e, e, i, i, f, p, i, p, i, f, p, i]
    sdot.argtypes = [i, p, i, p, i]
    sgemm.restype = sgemv.restype = None
    sdot.restype = ctypes.c_float
    return sgemm, sgemv, sdot


def _probe_blas(sgemm, sgemv, sdot) -> Optional[str]:
    """Call each routine as numpy's ``matmul`` does for one fixed shape
    and compare bitwise; return the first mismatching case, or None."""
    rng = np.random.default_rng(0)

    def rand(*shape):
        return rng.normal(size=shape).astype(np.float32)

    m, k, p = 6, 37, 29
    a, b, w = rand(m, k), rand(k, p), rand(p, k)
    col, row = rand(k, 1), rand(1, k)
    cases = []
    out = np.empty((m, p), np.float32)
    sgemm(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, CBLAS_NO_TRANS, m, p, k, 1.0,
          a.ctypes.data, k, b.ctypes.data, p, 0.0, out.ctypes.data, p)
    cases.append(("sgemm NoTrans/NoTrans", out.copy(), a @ b))
    sgemm(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, CBLAS_TRANS, m, p, k, 1.0,
          a.ctypes.data, k, w.ctypes.data, k, 0.0, out.ctypes.data, p)
    cases.append(("sgemm NoTrans/Trans", out.copy(), a @ w.T))
    mv = np.empty((m, 1), np.float32)
    sgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, k, m, 1.0, a.ctypes.data, k,
          col.ctypes.data, 1, 0.0, mv.ctypes.data, 1)
    cases.append(("sgemv matrix @ vector", mv, a @ col))
    vm = np.empty((1, p), np.float32)
    sgemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, k, p, 1.0, b.ctypes.data, p,
          row.ctypes.data, 1, 0.0, vm.ctypes.data, 1)
    cases.append(("sgemv vector @ matrix", vm, row @ b))
    dot = np.float32(sdot(k, row.ctypes.data, 1, col.ctypes.data, 1))
    cases.append(("sdot", np.array([[dot]], np.float32), row @ col))
    for name, got, expected in cases:
        if not np.array_equal(got, expected):
            return name
    return None


def _resolve_blas() -> Tuple[Optional[NumpyBlas], str]:
    try:
        from numpy import __config__

        config = __config__.CONFIG["Build Dependencies"]["blas"]
        name = str(config["name"])
    except (ImportError, AttributeError, KeyError, TypeError):
        return None, "numpy does not describe its BLAS build"
    if "openblas" not in name:
        return None, f"numpy's BLAS is {name!r}, not OpenBLAS"
    ilp64 = "USE64BITINT" in str(config.get("openblas configuration", ""))
    prefix = "scipy_" if name.startswith("scipy-openblas") else ""
    suffix = "64_" if ilp64 else ""
    symbols = tuple(f"{prefix}cblas_{r}{suffix}" for r in BLAS_ROUTINES)
    path = _numpy_blas_file()
    if path is None:
        return None, "numpy ships no OpenBLAS library file"
    try:
        library = ctypes.CDLL(str(path))
        functions = _blas_functions(library, symbols, ilp64)
    except (OSError, AttributeError) as error:
        return None, f"numpy's BLAS {path} is unusable: {error}"
    mismatch = _probe_blas(*functions)
    if mismatch is not None:
        return None, (f"numpy's BLAS {path}: {mismatch} differs from "
                      "np.matmul")
    addresses = tuple(ctypes.cast(fn, ctypes.c_void_p).value
                      for fn in functions)
    blas = NumpyBlas(str(path), symbols, addresses, ilp64)
    return blas, blas.describe()


def blas_probe() -> Tuple[Optional[NumpyBlas], str]:
    """numpy's BLAS routines, resolved and probed once per process.

    Returns ``(blas, note)``: ``blas`` is ``None`` when the symbols are
    missing or a routine fails the bitwise probe, and ``note`` names the
    library and symbols (or the reason).
    """
    global _blas_result
    with _blas_lock:
        if _blas_result is None:
            _blas_result = _resolve_blas()
        return _blas_result


def _reset_blas_cache() -> None:
    """Test hook: forget the cached resolution."""
    global _blas_result
    with _blas_lock:
        _blas_result = None


# ----------------------------------------------------------------------
# The kernel library
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelLibrary:
    """The built kernel library: its ``.so`` ``path``, the BLAS routines
    bound into it and its entry point ``run`` (``repro_run``)."""

    path: Path
    blas: NumpyBlas
    run: Callable


_library_lock = threading.Lock()
_libraries: Dict[Path, KernelLibrary] = {}


def kernel_library() -> KernelLibrary:
    """The kernel library of the current codegen cache, built on first
    use (or found there, built by any earlier process), loaded once per
    process and handed numpy's BLAS routines. Thread safe: concurrent
    first calls build once (the build layer additionally guards
    cross-process races)."""
    blas, note = blas_probe()
    if blas is None:
        raise CompileError(f"cannot bind native kernels: {note}")
    with _library_lock:
        path = build_library(library_units(blas.ilp64), tag="kernels")
        library = _libraries.get(path)
        if library is None:
            handle = load_library(path)
            bind = handle.repro_bind_blas
            bind.restype = None
            bind.argtypes = [ctypes.c_void_p] * len(blas.addresses)
            bind(*blas.addresses)
            # No argtypes: callers pass ctypes objects built once (steps
            # address, step count, n, t as c_long, the pointer table).
            run = handle.repro_run
            run.restype = None
            library = _libraries[path] = KernelLibrary(path, blas, run)
        return library

