"""Pluggable kernel backends for the serving compiler.

``compile_graph`` is the one entry point: lower the artifact to the graph
IR, run the backend's optimization passes, build one kernel per node, and
— for any backend other than the reference oracle — verify the compiled
model's output is bit-identical (``np.array_equal``) to the reference
backend on a deterministic synthetic batch before handing it out. A
backend that cannot prove bit-exactness never serves a request.

Backends register themselves with :func:`register_backend`:

- ``reference`` — op-for-op numpy, bit-identical to eager inference (the
  oracle every other backend is diffed against);
- ``fused``     — epilogue fusion, pooled scratch buffers, direct BLAS
  GEMMs and in-place activation fake-quant;
- ``compiled``  — the fused graph run on one shared C kernel library,
  built once per codegen cache and driven by per-run descriptor tables
  (:mod:`repro.serve.codegen`); requires a C compiler and resolves to
  ``fused`` (with a warning) without one.

Writing a new backend is three steps: subclass
:class:`~repro.serve.backends.base.KernelBackend`, pick the graph passes it
wants (``passes = (...)``), implement ``compile_node`` (fall back to the
reference kernels for node kinds you don't specialize), and decorate with
``@register_backend``. Compile-time verification takes care of proving it
honest.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional, Tuple

from repro.errors import BackendError, ExportError
from repro.serve.artifact import ServeArtifact
from repro.serve.backends.base import (
    CompiledModel,
    ExecContext,
    Kernel,
    KernelBackend,
    verify_compiled,
)
from repro.serve.ir import lower_artifact, synthetic_batch
from repro.serve.passes import run_passes

DEFAULT_BACKEND = "reference"

_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(cls):
    """Class decorator: instantiate and register a :class:`KernelBackend`."""
    instance = cls()
    if not instance.name:
        raise ExportError(f"backend {cls.__name__} has no name")
    _REGISTRY[instance.name] = instance
    return cls


def get_backend(name: str) -> KernelBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(name, available=list_backends()) from None


def list_backends() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def backend_availability() -> Dict[str, Tuple[bool, str]]:
    """{name: (usable now?, note)} for every registered backend."""
    return {name: _REGISTRY[name].availability()
            for name in list_backends()}


def resolve_backend(name: str) -> KernelBackend:
    """Backend lookup with graceful degradation.

    Unknown names raise a typed :class:`~repro.errors.BackendError`
    naming the available set. A known-but-unavailable backend (e.g.
    ``compiled`` on a machine with no C compiler) resolves to its
    declared ``fallback`` with a warning, walking the fallback chain
    until a usable backend is found.
    """
    backend = get_backend(name)
    seen = set()
    while True:
        usable, note = backend.availability()
        if usable:
            return backend
        if backend.fallback is None or backend.name in seen:
            raise BackendError(backend.name, available=list_backends(),
                               reason=note)
        seen.add(backend.name)
        warnings.warn(
            f"serving backend {backend.name!r} is unavailable ({note}); "
            f"falling back to {backend.fallback!r}",
            RuntimeWarning, stacklevel=3)
        backend = get_backend(backend.fallback)


def compile_graph(artifact: ServeArtifact, backend: str = DEFAULT_BACKEND,
                  verify: Optional[bool] = None) -> CompiledModel:
    """Compile an artifact into an executable :class:`CompiledModel`.

    ``verify`` defaults to True for every backend except the reference
    oracle itself; verification failure raises
    :class:`~repro.errors.ExportError` — an optimized backend is only
    usable when it is provably bit-identical.
    """
    backend_obj = resolve_backend(backend)
    source_graph = lower_artifact(artifact)   # pristine: cost model, shapes
    graph = lower_artifact(artifact)          # rewritten by the passes
    pass_log = run_passes(graph, backend_obj.passes)
    ctx = ExecContext()
    kernels = backend_obj.compile_kernels(graph, artifact, ctx, pass_log)
    model = CompiledModel(
        artifact, graph, source_graph, kernels, backend_obj.name,
        pass_log=pass_log,
        copy_output=getattr(backend_obj, "copy_output", False))
    model.ctx = ctx
    if verify is None:
        verify = backend_obj.name != DEFAULT_BACKEND
    if verify:
        reference = compile_graph(artifact, DEFAULT_BACKEND, verify=False)
        probe = synthetic_batch(source_graph)
        verify_compiled(model, reference, [probe])
        # Arm the guardrail: every new batch size served gets one bitwise
        # check against a (lazily compiled, immediately discarded)
        # reference oracle — shape-dependent BLAS paths make each size its
        # own code path.
        model.runtime_oracle_factory = (
            lambda: compile_graph(artifact, DEFAULT_BACKEND, verify=False))
        model.mark_verified(probe.shape[0])
    return model


# Backend modules self-register on import (kept at the bottom so they can
# import register_backend from this module).
from repro.serve.backends import reference as _reference  # noqa: E402,F401
from repro.serve.backends import fused as _fused          # noqa: E402,F401
from repro.serve.backends import compiled as _compiled    # noqa: E402,F401

__all__ = [
    "CompiledModel",
    "DEFAULT_BACKEND",
    "ExecContext",
    "Kernel",
    "KernelBackend",
    "backend_availability",
    "compile_graph",
    "get_backend",
    "list_backends",
    "register_backend",
    "resolve_backend",
    "verify_compiled",
]
