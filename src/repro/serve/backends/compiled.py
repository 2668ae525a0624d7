"""``compiled`` backend: numpy's BLAS, called from C; one call per
native run.

The fused backend's per-request cost is numpy dispatch: a conv is ~10
ufunc invocations (6-pass activation fake-quant, strided window gather,
the GEMM, bias add, 4-pass batch-norm, ReLU), each a trip through
Python. This backend renders every native node to C (see
:mod:`repro.serve.codegen`) — stage/gather, the GEMM, the epilogue — and
folds each maximal run of consecutive native nodes into one generated
function. A run is one step of the slot program and one ctypes call per
batch, whatever it holds: compiled resnet_tiny and mobilenet_v2 are
three Python steps per batch (the run, ``globalavgpool``, ``linear``).

The GEMMs stay bit-exact because C makes the **identical** BLAS call
numpy's ``matmul`` makes for the same shapes and strides, into the
library numpy itself loaded (function pointers bound once at load):
GEMM accumulation order is BLAS-internal, so making the same call is
what lets this backend pass the same bit-exactness chain as every other
backend.

A run ends wherever an intermediate result is read outside it, so each
run has one output. Its pointer table — run inputs, weights and every
pooled buffer — is bound once per batch size (the pool never moves a
buffer); a call writes only the input addresses. Non-float32 inputs run
the run's nodes on the fused kernels.

Node kinds outside the renderer's coverage table (reductions with
numpy-internal accumulation order like ``avgpool``, recurrent cells,
views, integer gathers) run on the fused backend's kernels inside the
same plan — the ``annotate_codegen`` pass records the split and the
compile log lists every run and every remaining Python step.

Availability: a C compiler (probed once per process: ``$REPRO_CC``,
``clang``, ``cc``, ``gcc``) and numpy's BLAS routines, resolved and
probed bitwise once per process. Without either, backend resolution
falls back to ``fused`` with a warning (see ``compile_graph``) — nothing
breaks on a bare machine.
"""

from __future__ import annotations

import ctypes
import re
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.serve.artifact import ServeArtifact
from repro.serve.backends import register_backend
from repro.serve.backends.base import ExecContext, Kernel, KernelBackend
from repro.serve.backends.fused import FusedBackend
from repro.serve.codegen.build import compiler_probe
from repro.serve.codegen.renderer import (
    AddRenderer,
    ConvRenderer,
    EltwiseRenderer,
    LinearRenderer,
    MaxPoolRenderer,
    NodeRenderer,
    SegmentRenderer,
)
from repro.serve.codegen.runtime import GraphProgram, blas_probe
from repro.serve.ir import Graph, IRNode

_F32 = np.dtype(np.float32)

#: Kinds whose output rows keep their input's row shape.
_ROW_PRESERVING = ("add", "batchnorm2d", "batchnorm1d", "relu", "relu6")


def _graph_tag(artifact: ServeArtifact) -> str:
    model = str(artifact.manifest.get("model", "model")) or "model"
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", model)


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
    return runs


def _renderer(node: IRNode, graph: Graph, artifact: ServeArtifact,
              rows: Dict[int, Tuple[int, ...]]) -> NodeRenderer:
    kind, row = node.kind, rows[node.inputs[0]]
    if kind == "conv":
        return ConvRenderer(node, row, artifact)
    if kind == "linear":
        return LinearRenderer(node, artifact, rows[node.id])
    if kind == "add":
        return AddRenderer(node, row)
    if kind == "maxpool":
        return MaxPoolRenderer(node, row)
    return EltwiseRenderer(node, artifact, row)


class CodegenSegmentKernel(Kernel):
    """One run of native nodes: one native call per batch.

    ``node`` is the run's last (output) node and ``sources`` the values
    it reads from outside, in pointer-table order.
    """

    def __init__(self, nodes: Sequence[IRNode], graph: Graph,
                 artifact: ServeArtifact, ctx: ExecContext,
                 program: GraphProgram, rows: Dict[int, Tuple[int, ...]]):
        super().__init__(nodes[-1], ctx)
        self.nodes = tuple(nodes)
        inside = {node.id for node in nodes}
        sources: List[int] = []
        for node in nodes:
            sources.extend(s for s in node.inputs
                           if s not in inside and s not in sources)
        self.sources = tuple(sources)
        self.input_rows = tuple(rows[s] for s in sources)
        self.renderer = SegmentRenderer(
            self.node.id,
            [(_renderer(node, graph, artifact, rows), node.inputs)
             for node in nodes],
            sources)
        program.register(self.renderer)
        self.program = program
        self._graph, self._artifact = graph, artifact
        self._bound: dict = {}
        self._fused = None

    def describe(self) -> str:
        """One compile-log line: the run's nodes and calls per batch."""
        per_n, fixed = (sum(calls) for calls in zip(
            *(r.blas_calls for r, _, _ in self.renderer.layout)))
        nodes = " ".join(f"{node.kind}#{node.id}" for node in self.nodes)
        return (f"codegen run {self.renderer.symbol}: [{nodes}] -> "
                f"1 native call per batch "
                f"({per_n}n + {fixed} BLAS calls, n = leading dim)")

    def _bind(self, inputs: Sequence[np.ndarray]):
        """The native function, the pointer table (every slot but the
        inputs filled) and the returned view for this batch shape; None
        when the inputs' row shapes are not the ones the code was
        rendered for."""
        if tuple(x.shape[1:] for x in inputs) != self.input_rows:
            return None
        n = inputs[0].shape[0]
        table = (ctypes.c_void_p * self.renderer.slot_count)()
        for renderer, _, slot in self.renderer.layout:
            for name, array in renderer.constants().items():
                table[slot[name]] = array.ctypes.data
            for buffer in renderer.buffers(n):
                pooled = self.ctx.scratch(buffer.tag, buffer.shape,
                                          zeroed=buffer.zeroed)
                table[slot[buffer.name]] = pooled.ctypes.data
        # The last buffer bound is the run's output (its last node's).
        result = pooled[:n]
        return self.program.table()[self.renderer.segment_id], n, table, \
            result

    def run(self, *inputs: np.ndarray) -> np.ndarray:
        for x in inputs:
            if x.dtype is not _F32:
                return self._run_fused(inputs)
        key = inputs[0].shape
        bound = self._bound.get(key)
        if bound is None:
            bound = self._bound[key] = self._bind(inputs) or False
        if bound is False:
            return self._run_fused(inputs)
        fn, n, table, result = bound
        for slot, x in enumerate(inputs):
            if not x.flags.c_contiguous:
                # A strided view (a ``take_last`` slice) from a fallback
                # node: native code takes raw pointers.
                x = self._contiguous(x, slot)
            table[slot] = x.ctypes.data
        fn(n, table)
        return result

    def _contiguous(self, x: np.ndarray, slot: int) -> np.ndarray:
        buffer = self.ctx.scratch(f"cg.in{self.node.id}.{slot}", x.shape)
        np.copyto(buffer, x)
        return buffer

    def _run_fused(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        """The run's nodes on the fused kernels, bit-exact off the native
        path (non-float32 inputs)."""
        if self._fused is None:
            backend = FusedBackend()
            self._fused = [backend.compile_node(node, self._graph,
                                                self._artifact, self.ctx)
                           for node in self.nodes]
        values = dict(zip(self.sources, inputs))
        for kernel in self._fused:
            values[kernel.node.id] = kernel.run(
                *(values[s] for s in kernel.node.inputs))
        return values[self.node.id]


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
        program = GraphProgram(tag=_graph_tag(artifact))
        ctx.codegen_program = program
        rows = row_shapes(graph)
        kernels: Dict[int, Kernel] = {}
        for run in native_runs(graph):
            kernel = CodegenSegmentKernel(run, graph, artifact, ctx,
                                          program, rows)
            kernels[kernel.node.id] = kernel
            log.append(kernel.describe())
        steps = []
        for node in graph.nodes:
            if node.id != graph.input_id and node.codegen != "native":
                kernels[node.id] = self._fused.compile_node(
                    node, graph, artifact, ctx)
                steps.append(f"{node.kind}#{node.id}")
        if steps:
            log.append(f"python steps (fused kernels, no native template): "
                       f"{' '.join(steps)}")
        return kernels
