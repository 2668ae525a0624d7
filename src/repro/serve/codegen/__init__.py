"""Native code generation for the serving compiler.

``repro.serve.codegen`` turns each compiled IR graph into one C library
whose kernels take the batch size at run time: :mod:`renderer` emits the
source (quantizer clips, SP2 level grids and epilogue constants baked in
as literals), :mod:`build` probes
for a C compiler once and maintains a content-hash-keyed ``.so`` cache
with atomic publication, and :mod:`runtime` binds the built library's
entry points through ``ctypes``. The ``compiled`` backend
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
    CSegment,
    c_array,
    c_float,
    render_module,
    supports,
)
from repro.serve.codegen.runtime import GraphProgram, load_library

__all__ = [
    "CFLAGS",
    "CSegment",
    "GraphProgram",
    "NATIVE_KINDS",
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
