"""ctypes runtime for the ``compiled`` backend.

One :class:`GraphProgram` per compiled model collects every native
node's renderer at kernel-compile time; the first request renders one C
translation unit for all of them, builds (or reuses) the cached ``.so``,
loads it, and binds one function pointer per (node, role). Every
function takes the batch's request (or row) count as its first argument,
so that one library serves every batch size. Kernels then call straight
into native code with raw buffer addresses — no per-op numpy dispatch on
the glue.

Libraries are ``dlopen``ed once per process and memoized: two models
compiled from the same artifact share one mapped library.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.serve.codegen.build import build_library
from repro.serve.codegen.renderer import CSegment, render_module

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


class GraphProgram:
    """Lazily-built native code for one compiled graph.

    Kernels :meth:`register` their renderers while the backend compiles
    nodes; :meth:`table` returns the ``{(node id, role): function}``
    table, rendering + building on first use. Thread safe: concurrent
    first requests build once (the build layer additionally guards
    cross-process races). ``library`` is the built ``.so`` once bound.
    """

    def __init__(self, tag: str = "graph"):
        self.tag = tag
        self.library: Optional[Path] = None
        self._renderers: List[object] = []
        self._table: Optional[Dict[tuple, Callable]] = None
        self._lock = threading.Lock()

    def register(self, renderer) -> None:
        self._renderers.append(renderer)

    @property
    def node_count(self) -> int:
        return len(self._renderers)

    def table(self) -> Dict[tuple, Callable]:
        with self._lock:
            if self._table is None:
                self._table = self._build()
            return self._table

    def _build(self) -> Dict[tuple, Callable]:
        segments: List[CSegment] = [r.render() for r in self._renderers]
        source = render_module(segments, title=self.tag)
        self.library = build_library(source, tag=self.tag)
        library = load_library(self.library)
        table: Dict[tuple, Callable] = {}
        for segment in segments:
            for key, symbol, nargs in segment.functions:
                fn = getattr(library, symbol)
                fn.restype = None
                fn.argtypes = [ctypes.c_long] + [ctypes.c_void_p] * nargs
                table[key] = fn
        return table
