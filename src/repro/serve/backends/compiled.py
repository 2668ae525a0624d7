"""``compiled`` backend: numpy's BLAS, called from C; one call per
native run.

The fused backend's per-request cost is numpy dispatch: a conv is ~10
ufunc invocations (6-pass activation fake-quant, strided window gather,
the GEMM, bias add, 4-pass batch-norm, ReLU), each a trip through
Python. This backend runs every native node on one shared C kernel
library (see :mod:`repro.serve.codegen`) — stage/gather, the GEMM, the
epilogue — and turns each maximal run of consecutive native nodes into a
descriptor table (one step per node, built here in Python) that the
library's entry point walks. No C is compiled per graph. A run is one
step of the slot program and one ctypes call per batch, whatever it
holds: compiled resnet_tiny and mobilenet_v2 are three Python steps per
batch (the run, ``globalavgpool``, ``linear``),
gru_speech is one (the recurrence, the time merge and the head) and
lstm_lm two (the ``embedding`` gather, then that run). A recurrent
node runs its whole time loop in C from the carried state, so
``run_stateful`` and streamed chunks stay native too.

The GEMMs stay bit-exact because C makes the **identical** BLAS call
numpy's ``matmul`` makes for the same shapes and strides, into the
library numpy itself loaded (function pointers bound once at load):
GEMM accumulation order is BLAS-internal, so making the same call is
what lets this backend pass the same bit-exactness chain as every other
backend.

A run ends wherever an intermediate result is read outside it, so each
run has one output. Its pointer table — run inputs, weights, epilogue
tables and every pooled buffer — is bound once per input shape and kept
beside those buffers in the shape's scratch pool, so the two are evicted
together; a call writes only the input addresses. The C code takes raw
pointers, so a run checks what it is handed: an input that is not
float32, a carried state of another shape or input rows of another shape
than the compiled ones raise :class:`~repro.errors.ShapeError`. Through
:class:`~repro.serve.plan.ExecutionPlan`, which checks serving input
once, none of them occurs.

Node kinds outside the library's coverage table (reductions with
numpy-internal accumulation order like ``avgpool``, the ``take_last``
and ``flatten`` views, integer gathers) run on the fused backend's
kernels inside the same plan — the ``annotate_codegen`` pass records
the split and the compile log lists every run and every remaining
Python step.

Availability: a C compiler (probed once per process: ``$REPRO_CC``,
``clang``, ``cc``, ``gcc``) and numpy's BLAS routines, resolved and
probed bitwise once per process. Without either, backend resolution
falls back to ``fused`` with a warning (see ``compile_graph``) — nothing
breaks on a bare machine.
"""

from __future__ import annotations

import ctypes
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.serve.artifact import ServeArtifact
from repro.serve.backends import register_backend
from repro.serve.backends.base import ExecContext, Kernel, KernelBackend
from repro.serve.backends.fused import FusedBackend
from repro.serve.codegen.build import compiler_probe
from repro.serve.codegen.renderer import (
    AddOp,
    ConvOp,
    EltwiseOp,
    LinearOp,
    MaxPoolOp,
    MergeTimeOp,
    NativeOp,
    RnnOp,
    Segment,
)
from repro.serve.codegen.runtime import blas_probe, kernel_library
from repro.serve.ir import Graph, IRNode

_F32 = np.dtype(np.float32)

#: Kinds whose output rows keep their input's row shape.
_ROW_PRESERVING = ("add", "batchnorm2d", "batchnorm1d", "relu", "relu6")

#: Native kinds that run no step (see ``NativeOp.view``).
_VIEWS = ("merge_time",)


def row_shapes(graph: Graph) -> Dict[int, Tuple[int, ...]]:
    """Each node's output shape per unit of its leading dimension at run
    time: the per-request shape, or per row once time is merged into
    the batch (``merge_time`` and the ops after it)."""
    rows: Dict[int, Tuple[int, ...]] = {}
    for node in graph.nodes:
        shape = tuple(node.output_shape)
        if node.kind == "linear":
            shape = rows[node.inputs[0]][:-1] + (node.spec["out_features"],)
        elif node.kind in _ROW_PRESERVING:
            shape = rows[node.inputs[0]]
        elif node.kind == "merge_time":
            shape = shape[1:]
        rows[node.id] = shape
    return rows


def native_runs(graph: Graph) -> List[List[IRNode]]:
    """Maximal runs of consecutive native nodes, cut after every node
    whose output is read outside its run (or is the graph output), so a
    run has exactly one output: its last node's."""
    consumers: Dict[int, List[int]] = {}
    for node in graph.nodes:
        for source in node.inputs:
            consumers.setdefault(source, []).append(node.id)
    stretches: List[List[IRNode]] = [[]]
    for node in graph.nodes:
        if node.codegen == "native":
            stretches[-1].append(node)
        elif stretches[-1]:
            stretches.append([])
    runs: List[List[IRNode]] = []
    for stretch in filter(None, stretches):
        # Cutting a run can strand a value read across the new cut, so
        # iterate to the fixed point.
        cuts = {len(stretch) - 1}
        while True:
            run_of, run = {}, 0
            for index, node in enumerate(stretch):
                run_of[node.id] = run
                run += index in cuts
            found = {index for index, node in enumerate(stretch)
                     if node.id == graph.output_id
                     or any(run_of.get(c) != run_of[node.id]
                            for c in consumers.get(node.id, ()))}
            if found <= cuts:
                break
            cuts |= found
        start = 0
        for cut in sorted(cuts):
            runs.append(stretch[start:cut + 1])
            start = cut + 1
    # A run of views alone has no code: its nodes stay Python steps.
    return [run for run in runs
            if any(node.kind not in _VIEWS for node in run)]


def _native_op(node: IRNode, artifact: ServeArtifact,
               rows: Dict[int, Tuple[int, ...]], strip: int,
               steps: bool) -> NativeOp:
    """The node's descriptor builder; ``strip`` leading dims (a
    time-shaped row's time axis) are dropped from its row shapes."""
    kind, row = node.kind, rows[node.inputs[0]][strip:]
    if kind == "conv":
        return ConvOp(node, row, artifact)
    if kind == "linear":
        return LinearOp(node, artifact, row, rows[node.id][strip:], steps)
    if kind == "add":
        return AddOp(node, row)
    if kind == "maxpool":
        return MaxPoolOp(node, row)
    if kind == "rnn":
        return RnnOp(node, artifact)
    if kind == "merge_time":
        return MergeTimeOp(node, rows[node.id])
    return EltwiseOp(node, artifact, row)


def _segment_ops(nodes: Sequence[IRNode], artifact: ServeArtifact,
                 rows: Dict[int, Tuple[int, ...]]):
    """``(op, inputs, merged)`` per node of a run. In a run over the time
    axis, the rows ahead of the time merge are time-shaped: ``(t, ...)``
    per request. A linear over ``(t, f)`` rows runs a GEMM per request
    over its ``t`` steps, as numpy's stacked ``matmul`` does; every other
    node counts them as ``n * t`` rows."""
    temporal = any(node.kind in ("rnn",) + _VIEWS for node in nodes)
    out, merged = [], False
    for node in nodes:
        time_shaped = temporal and not merged and node.kind != "rnn"
        steps = (time_shaped and node.kind == "linear"
                 and len(rows[node.inputs[0]]) == 2)
        op = _native_op(node, artifact, rows, int(time_shaped), steps)
        merged = merged or node.kind in _VIEWS
        out.append((op, node.inputs, merged or (time_shaped and not steps)))
    return out


class CodegenSegmentKernel(Kernel):
    """One run of native nodes: one call into the kernel library per
    batch.

    ``node`` is the run's last (output) node and ``sources`` the values
    it reads from outside, in pointer-table order. A recurrent node in
    the run takes its initial state from ``ctx.state_in`` and leaves its
    final state in ``ctx.state_out`` under ``run_stateful``, as the
    fused kernel does.
    """

    def __init__(self, nodes: Sequence[IRNode], artifact: ServeArtifact,
                 ctx: ExecContext, rows: Dict[int, Tuple[int, ...]]):
        super().__init__(nodes[-1], ctx)
        self.nodes = tuple(nodes)
        inside = {node.id for node in nodes}
        sources: List[int] = []
        for node in nodes:
            sources.extend(s for s in node.inputs
                           if s not in inside and s not in sources)
        self.sources = tuple(sources)
        self.segment = Segment(self.node.id,
                               _segment_ops(nodes, artifact, rows), sources)
        # A run over the time axis checks only the per-step shape: its
        # time extent is a run-time argument.
        skip = 2 if self.segment.temporal else 1
        self.input_rows = tuple(rows[s][skip - 1:] for s in sources)
        self._skip = skip
        self.recurrent = [(op, slot)
                          for op, _, slot, _ in self.segment.layout
                          if op.temporal]
        #: The library's entry point, bound on the first run (building
        #: the library if the cache has none).
        self._entry = None

    def describe(self) -> str:
        """One compile-log line: the run's nodes and calls per batch."""
        per_n, per_t, fixed = (sum(calls) for calls in zip(
            *(op.blas_calls for op, _, _, _ in self.segment.layout)))
        nodes = " ".join(f"{node.kind}#{node.id}" for node in self.nodes)
        steps = f"{per_t}t + " if per_t else ""
        dims = ("n, t = leading dim, time steps" if self.segment.temporal
                else "n = leading dim")
        return (f"codegen run {self.segment.symbol}: [{nodes}] -> "
                f"1 native call per batch "
                f"({per_n}n + {steps}{fixed} BLAS calls, {dims})")

    def _bind(self, inputs: Sequence[np.ndarray]):
        """The library's entry point and its arguments, ``n``, the pointer
        table (every slot but the inputs and initial states filled), the
        returned view and each pooled buffer by slot, for this input
        shape. The arguments are ctypes objects, built once: the entry
        point declares no argument types, so a call converts nothing."""
        skip = self._skip
        rows = tuple(x.shape[skip:] for x in inputs)
        if rows != self.input_rows:
            raise ShapeError(f"{self.segment.symbol} was built for "
                             f"input rows {self.input_rows}, got {rows}")
        n = inputs[0].shape[0]
        t = inputs[0].shape[1] if self.segment.temporal else 1
        table = (ctypes.c_void_p * self.segment.slot_count)()
        pooled: Dict[int, np.ndarray] = {}
        for op, _, slot, merged in self.segment.layout:
            for name, array in op.tables.items():
                table[slot[name]] = array.ctypes.data
            for buffer in op.buffers(n * t if merged else n, t):
                array = self.ctx.scratch(buffer.tag, buffer.shape,
                                         zeroed=buffer.zeroed)
                table[slot[buffer.name]] = array.ctypes.data
                pooled[slot[buffer.name]] = array
        shape = self.segment.output_shape(n, t)
        result = pooled[self.segment.output_slot].reshape(-1)[
            :int(np.prod(shape))].reshape(shape)
        if self._entry is None:
            self._entry = kernel_library().run
        steps = self.segment.steps
        args = (ctypes.c_void_p(ctypes.addressof(steps)),
                ctypes.c_long(len(steps)), ctypes.c_long(n), ctypes.c_long(t),
                table)
        return self._entry, args, n, table, result, pooled

    def run(self, *inputs: np.ndarray) -> np.ndarray:
        for x in inputs:
            if x.dtype is not _F32:
                raise ShapeError(f"{self.segment.symbol} takes float32 "
                                 f"input, got {x.dtype}")
        key = (self, inputs[0].shape)
        bound = self.ctx.bound.get(key)
        if bound is None:
            bound = self.ctx.bound[key] = self._bind(inputs)
        fn, args, n, table, result, pooled = bound
        if self.recurrent:
            held = self._seed_state(table, n)  # noqa: F841 (kept alive)
        for slot, x in enumerate(inputs):
            if not x.flags.c_contiguous:
                # A strided view (a ``take_last`` slice) from a Python
                # step: native code takes raw pointers.
                x = self._contiguous(x, slot)
            table[slot] = x.ctypes.data
        fn(*args)
        if self.recurrent and self.ctx.carry_state:
            for op, slot in self.recurrent:
                # h/c live in pooled scratch; hand out copies.
                final = {"c": None}
                for key in op.state_keys:
                    final[key] = [pooled[slot[f"{key}{index}"]].copy()
                                  for index in range(len(op.layers))]
                self.ctx.state_out[op.node_id] = final
        return result

    def _seed_state(self, table, n: int):
        """Point each recurrent node's initial-state slots at the carried
        state, or NULL (zeros) outside ``run_stateful``. Returns the
        arrays the table now points into."""
        held = []
        for op, slot in self.recurrent:
            state = (self.ctx.state_in.get(op.node_id)
                     if self.ctx.carry_state else None)
            for key in op.state_keys:
                layers = state.get(key) if state is not None else None
                for index in range(len(op.layers)):
                    address = None
                    if layers is not None:
                        array = np.ascontiguousarray(layers[index],
                                                     dtype=np.float32)
                        if array.shape != (n, op.hidden):
                            raise ShapeError(f"carried {key} is {array.shape}"
                                             f", not {(n, op.hidden)}")
                        held.append(array)
                        address = array.ctypes.data
                    table[slot[f"{key}_in{index}"]] = address
        return held

    def _contiguous(self, x: np.ndarray, slot: int) -> np.ndarray:
        buffer = self.ctx.scratch(f"cg.in{self.node.id}.{slot}", x.shape)
        np.copyto(buffer, x)
        return buffer


@register_backend
class CompiledBackend(KernelBackend):
    """Generated native code for every native run, GEMMs included.

    Same passes as the fused backend plus ``annotate_codegen`` (the
    coverage split lands in the compile log); same scratch-aliasing
    output semantics, hence ``copy_output``. Unavailable without a C
    compiler or numpy's BLAS routines — resolution then falls back to
    ``fused``.
    """

    name = "compiled"
    passes = ("fold_batchnorm", "fuse_activations", "eliminate_subsumed_relu",
              "eliminate_dead_ops", "plan_scratch", "annotate_codegen")
    copy_output = True
    fallback = "fused"

    def __init__(self):
        self._fused = FusedBackend()

    def availability(self):
        compiler, note = compiler_probe()
        if compiler is None:
            return False, note
        blas, blas_note = blas_probe()
        return blas is not None, f"{note}; {blas_note}"

    def compile_kernels(self, graph: Graph, artifact: ServeArtifact,
                        ctx: ExecContext, log: List[str]) -> Dict[int, Kernel]:
        rows = row_shapes(graph)
        kernels: Dict[int, Kernel] = {}
        covered = {graph.input_id}
        for run in native_runs(graph):
            kernel = CodegenSegmentKernel(run, artifact, ctx, rows)
            kernels[kernel.node.id] = kernel
            covered.update(node.id for node in run)
            log.append(kernel.describe())
        steps = []
        for node in graph.nodes:
            if node.id not in covered:
                kernels[node.id] = self._fused.compile_node(
                    node, graph, artifact, ctx)
                steps.append(f"{node.kind}#{node.id}")
        if steps:
            log.append(f"python steps (fused kernels, no native template): "
                       f"{' '.join(steps)}")
        return kernels
