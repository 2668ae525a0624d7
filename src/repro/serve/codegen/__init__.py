"""Native code for the serving compiler: one shared kernel library.

``repro.serve.codegen`` runs compiled IR graphs on one C library
(``kernels.h`` and its units) whose templates take every shape and
constant as a run-time argument, so a graph compiles no C. :mod:`renderer` turns each
run of native nodes into a descriptor table (one step per node, the
batch size a run-time argument; GEMMs as the calls numpy's ``matmul``
makes), :mod:`build` probes for a C compiler once and maintains a
content-hash-keyed ``.so`` cache with atomic publication, and
:mod:`runtime` resolves numpy's own BLAS routines, builds (once per
cache) and loads the library, and hands it those routines. The
``compiled`` backend (:mod:`repro.serve.backends.compiled`) is the
consumer; everything here is policy-free mechanism.
"""

from repro.serve.codegen.build import (
    CFLAGS,
    build_library,
    cache_dir,
    cached_libraries,
    clear_cache,
    compiler_probe,
    have_compiler,
)
from repro.serve.codegen.renderer import (
    NATIVE_KINDS,
    Segment,
    c_float,
    library_units,
    supports,
)
from repro.serve.codegen.runtime import (
    KernelLibrary,
    NumpyBlas,
    blas_probe,
    kernel_library,
    load_library,
)

__all__ = [
    "CFLAGS",
    "KernelLibrary",
    "NATIVE_KINDS",
    "NumpyBlas",
    "Segment",
    "blas_probe",
    "build_library",
    "c_float",
    "cache_dir",
    "cached_libraries",
    "clear_cache",
    "compiler_probe",
    "have_compiler",
    "kernel_library",
    "library_units",
    "load_library",
    "supports",
]
