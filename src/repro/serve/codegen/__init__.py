"""Native code generation for the serving compiler.

``repro.serve.codegen`` turns each compiled IR graph into one C library
with one entry point per run of native nodes, the batch size a run-time
argument: :mod:`renderer` emits the source (quantizer clips and epilogue
constants baked in as literals, GEMMs as the calls numpy's ``matmul``
makes, an RNN's time loop as a call into the one recurrent library
every graph shares), :mod:`build` probes for a C compiler once and
maintains a content-hash-keyed ``.so`` cache with atomic publication,
and
:mod:`runtime` resolves numpy's own BLAS routines, hands them to the
built library once at load and binds its entry points through
``ctypes``. The ``compiled`` backend
(:mod:`repro.serve.backends.compiled`) is the consumer; everything here
is policy-free mechanism.
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
    SegmentRenderer,
    c_array,
    c_float,
    render_module,
    supports,
)
from repro.serve.codegen.runtime import (
    GraphProgram,
    NumpyBlas,
    blas_probe,
    load_library,
)

__all__ = [
    "CFLAGS",
    "GraphProgram",
    "NATIVE_KINDS",
    "NumpyBlas",
    "SegmentRenderer",
    "blas_probe",
    "build_library",
    "c_array",
    "c_float",
    "cache_dir",
    "cached_libraries",
    "clear_cache",
    "compiler_probe",
    "have_compiler",
    "load_library",
    "render_module",
    "supports",
]
