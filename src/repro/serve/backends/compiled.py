"""``compiled`` backend: fused-graph glue ops as generated native code.

The fused backend's per-request cost is numpy dispatch on the non-GEMM
glue: a conv is ~10 ufunc invocations (6-pass activation fake-quant,
strided window gather, bias add, 4-pass batch-norm, ReLU). This backend
renders that glue to C once per graph — see :mod:`repro.serve.codegen`;
every kernel passes its batch's request (or row) count as the first
argument — so a conv becomes *two* native calls around one BLAS GEMM:

- ``pre``:  one pass that writes the activation-quantized input into
  the interior of a pooled zero-bordered buffer (each element quantized
  once), then an im2col gather into the GEMM's column buffer that only
  copies — no bound tests, fixed trip counts;
- ``np.matmul``: the **identical** BLAS call on the identically
  laid-out buffer the fused backend uses — GEMM accumulation order is
  BLAS-internal, so rendering it in C could not stay bit-exact, and
  keeping it in numpy is what lets this backend pass the same
  bit-exactness chain as every other backend;
- ``post``: bias + folded batch-norm + ReLU in one pass over the GEMM
  output, per-channel constants baked into the code.

Every pooled buffer a kernel hands to native code (columns, staged
input, GEMM output, transposed output, linear ``xq``/output, add,
max-pool and elementwise outputs) stays put once allocated, so its
address is read once per batch size and kept with the bound functions;
a request only reads the addresses of its inputs.

Node kinds outside the renderer's coverage table (reductions with
numpy-internal accumulation order like ``avgpool``, recurrent cells,
views, integer gathers) run on the fused backend's kernels inside the
same plan — the ``annotate_codegen`` pass records the split in the
compile log.

Availability: a C compiler is probed once per process (``$REPRO_CC``,
``clang``, ``cc``, ``gcc``). Without one, backend resolution falls back
to ``fused`` with a warning (see ``compile_graph``) — nothing breaks on
a bare machine.
"""

from __future__ import annotations

import re

import numpy as np

from repro.serve.artifact import ServeArtifact, decode_weight_record
from repro.serve.backends import register_backend
from repro.serve.backends.base import (
    ExecContext,
    Kernel,
    KernelBackend,
    row_stable_matmul,
)
from repro.serve.backends.fused import FusedBackend, FusedConvKernel, \
    FusedLinearKernel
from repro.serve.codegen.build import compiler_probe
from repro.serve.codegen.renderer import (
    AddRenderer,
    ConvRenderer,
    EltwiseRenderer,
    LinearRenderer,
    MaxPoolRenderer,
)
from repro.serve.codegen.runtime import GraphProgram
from repro.serve.ir import Graph, IRNode


def _graph_tag(artifact: ServeArtifact) -> str:
    model = str(artifact.manifest.get("model", "model")) or "model"
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", model)


def _program(ctx: ExecContext, artifact: ServeArtifact) -> GraphProgram:
    """The per-compiled-model native code manager, shared by all kernels
    through their common :class:`ExecContext`."""
    program = getattr(ctx, "codegen_program", None)
    if program is None:
        program = GraphProgram(tag=_graph_tag(artifact))
        ctx.codegen_program = program
    return program


def _addresses(*buffers) -> tuple:
    """Raw addresses of the given pooled buffers, skipping ``None``."""
    return tuple(b.ctypes.data for b in buffers if b is not None)


class _CodegenKernel(Kernel):
    """Base: registers the node's renderer with the shared program,
    looks up its native functions and pools contiguity copies."""

    def __init__(self, node: IRNode, ctx: ExecContext,
                 program: GraphProgram, renderer):
        super().__init__(node, ctx)
        self.program = program
        program.register(renderer)
        self._bound: dict = {}

    def _fn(self, role: str):
        """This node's native ``role`` function (``None`` if the
        renderer emitted none); builds the library on first use."""
        return self.program.table().get((self.node.id, role))

    def _bind_out(self, key, shape: tuple) -> tuple:
        """``(main function, pooled output, its address)`` for a
        single-function kernel, bound once per ``key``."""
        bound = self._bound.get(key)
        if bound is None:
            out = self.ctx.scratch(f"out{self.node.id}", shape)
            bound = self._bound[key] = (self._fn("main"), out,
                                        out.ctypes.data)
        return bound

    def _contiguous(self, x: np.ndarray, slot: int = 0) -> np.ndarray:
        """Native code takes raw pointers; strided views (a depthwise
        conv's transposed output, a ``take_last`` slice) are copied into
        a pooled buffer first."""
        if x.flags["C_CONTIGUOUS"]:
            return x
        buffer = self.ctx.scratch(f"cg.cont{self.node.id}.{slot}", x.shape,
                                  dtype=x.dtype)
        np.copyto(buffer, x)
        return buffer


class CodegenConvKernel(_CodegenKernel):
    """Native pre/post around the fused backend's exact GEMM call."""

    def __init__(self, node: IRNode, graph: Graph, ctx: ExecContext,
                 artifact: ServeArtifact, program: GraphProgram):
        input_shape = graph.node(node.inputs[0]).output_shape
        renderer = ConvRenderer(node, input_shape, artifact)
        super().__init__(node, ctx, program, renderer)
        spec = node.spec
        self.kernel = spec["kernel"]
        self.padding = spec["padding"]
        self.oc = spec["out_channels"]
        self.cin = input_shape[0]
        self.oh, self.ow = node.output_shape[1], node.output_shape[2]
        weight = decode_weight_record(artifact, spec["weight"])
        self.w_mat = np.ascontiguousarray(weight.reshape(self.oc, -1))
        self.depthwise = spec["groups"] != 1
        if self.depthwise:
            self.w3 = self.w_mat.reshape(self.cin,
                                         self.kernel * self.kernel, 1)
        # Per-request shape of the zero-bordered buffer the native pre
        # stages its input in (None: the gather reads ``x`` directly).
        self.staged = ((self.cin, renderer.hp, renderer.wp)
                       if renderer.stages_input else None)
        self._artifact = artifact
        self._fallback = None

    def _bind(self, n: int) -> tuple:
        """Everything a batch of ``n`` needs besides its input: the
        native functions, the pooled buffers with their addresses (the
        pool never moves a buffer, so each is read once here) and the
        returned view."""
        bound = self._bound.get(n)
        if bound is None:
            pre, post = self._fn("pre"), self._fn("post")
            k, p = self.kernel, self.oh * self.ow
            cols = staged = final = None
            if pre is not None:
                cols = self.ctx.scratch(
                    "conv.cols", (self.cin, n * p, k * k) if self.depthwise
                    else (n, self.cin * k * k, p))
                if self.staged is not None:
                    # The native pre writes only the interior (see
                    # ``ConvRenderer._stage_pass``), so the zeroed border
                    # stays zero; the pad width keys the pool like the
                    # fused backend's padded arenas, which are the same
                    # buffers.
                    staged = self.ctx.scratch(
                        f"conv.padded.p{self.padding}", (n,) + self.staged,
                        zeroed=True)
            if self.depthwise:
                out = self.ctx.scratch(f"out{self.node.id}",
                                       (self.cin, n * p, 1))
                if post is None:
                    result = out.reshape(self.cin, n, self.oh,
                                         self.ow).transpose(1, 0, 2, 3)
                else:
                    # The transposing epilogue writes the request-major
                    # layout here — this is the kernel's output, so it
                    # is keyed per node like ``out``.
                    final = self.ctx.scratch(f"outt{self.node.id}",
                                             (n, self.cin, p))
                    result = final.reshape(n, self.cin, self.oh, self.ow)
            else:
                out = self.ctx.scratch(f"out{self.node.id}",
                                       (n, self.oc, p))
                result = out.reshape(n, self.oc, self.oh, self.ow)
            pre_args = _addresses(staged, cols)
            post_args = (n,) + _addresses(out, final)
            bound = (pre, pre_args, cols, out, post, post_args, result)
            self._bound[n] = bound
        return bound

    def run(self, x: np.ndarray) -> np.ndarray:
        if x.dtype != np.float32:
            # Off the native path, stay bit-exact (the fused kernel
            # itself falls back to the reference chain here).
            if self._fallback is None:
                self._fallback = FusedConvKernel(self.node, self.ctx,
                                                 self._artifact)
            return self._fallback.run(x)
        n = x.shape[0]
        pre, pre_args, cols, out, post, post_args, result = self._bind(n)
        x = self._contiguous(x)
        if pre is not None:
            pre(n, x.ctypes.data, *pre_args)
            gemm_in = cols
        else:
            gemm_in = x.reshape(n, self.cin, self.oh * self.ow)
        if self.depthwise:
            np.matmul(cols, self.w3, out=out)
        else:
            np.matmul(self.w_mat, gemm_in, out=out)
        if post is not None:
            post(*post_args)
        return result


class CodegenLinearKernel(_CodegenKernel):
    def __init__(self, node: IRNode, ctx: ExecContext,
                 artifact: ServeArtifact, program: GraphProgram):
        super().__init__(node, ctx, program, LinearRenderer(node, artifact))
        self.weight = decode_weight_record(artifact, node.spec["weight"])
        self.wT = self.weight.T
        self._artifact = artifact
        self._fallback = None

    def _bind(self, rows: int) -> tuple:
        bound = self._bound.get(rows)
        if bound is None:
            pre, post = self._fn("pre"), self._fn("post")
            xq = (self.ctx.scratch(f"cg.xq{self.node.id}",
                                   (rows, self.weight.shape[1]))
                  if pre is not None else None)
            out = self.ctx.scratch(f"out{self.node.id}",
                                   (rows, self.weight.shape[0]))
            bound = (pre, post, xq, _addresses(xq), out, _addresses(out))
            self._bound[rows] = bound
        return bound

    def run(self, x: np.ndarray) -> np.ndarray:
        if x.dtype != np.float32:
            # Off the native path, stay bit-exact on the fused kernel.
            if self._fallback is None:
                self._fallback = FusedLinearKernel(self.node, self.ctx,
                                                   self._artifact)
            return self._fallback.run(x)
        rows = x.shape[0]
        pre, post, xq, xq_at, out, out_at = self._bind(rows)
        x = self._contiguous(x)
        if pre is not None:
            pre(rows, x.ctypes.data, *xq_at)
            x = xq
        # The reference's exact row-stable `x @ weight.T` on identical
        # values.
        row_stable_matmul(x, self.wT, out=out)
        if post is not None:
            post(rows, *out_at)
        return out


class CodegenAddKernel(_CodegenKernel):
    def __init__(self, node: IRNode, ctx: ExecContext,
                 program: GraphProgram):
        super().__init__(node, ctx, program, AddRenderer(node))

    def run(self, main: np.ndarray, shortcut: np.ndarray) -> np.ndarray:
        n = main.shape[0]
        fn, out, out_at = self._bind_out(n, main.shape)
        main = self._contiguous(main, 0)
        shortcut = self._contiguous(shortcut, 1)
        fn(n, main.ctypes.data, shortcut.ctypes.data, out_at)
        return out


class CodegenEltwiseKernel(_CodegenKernel):
    """Standalone batch-norm / ReLU / ReLU6 as one native pass."""

    def __init__(self, node: IRNode, ctx: ExecContext,
                 artifact: ServeArtifact, program: GraphProgram):
        renderer = EltwiseRenderer(node, artifact)
        super().__init__(node, ctx, program, renderer)
        # The native loop runs over channel-period blocks, which also
        # tile a time-merged input holding partial requests.
        self.block = renderer.channels * renderer.inner

    def run(self, x: np.ndarray) -> np.ndarray:
        fn, out, out_at = self._bind_out(x.shape, x.shape)
        x = self._contiguous(x)
        fn(x.size // self.block, x.ctypes.data, out_at)
        return out


class CodegenMaxPoolKernel(_CodegenKernel):
    def __init__(self, node: IRNode, graph: Graph, ctx: ExecContext,
                 program: GraphProgram):
        input_shape = graph.node(node.inputs[0]).output_shape
        super().__init__(node, ctx, program,
                         MaxPoolRenderer(node, input_shape))

    def run(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        fn, out, out_at = self._bind_out(n, (n,) + self.node.output_shape)
        x = self._contiguous(x)
        fn(n, x.ctypes.data, out_at)
        return out


@register_backend
class CompiledBackend(KernelBackend):
    """Generated native kernels for the glue, numpy BLAS for the GEMMs.

    Same passes as the fused backend plus ``annotate_codegen`` (the
    coverage split lands in the compile log); same scratch-aliasing
    output semantics, hence ``copy_output``. Unavailable without a C
    compiler — resolution then falls back to ``fused``.
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
        return compiler is not None, note

    def compile_node(self, node: IRNode, graph: Graph,
                     artifact: ServeArtifact, ctx: ExecContext) -> Kernel:
        if node.codegen != "native":
            return self._fused.compile_node(node, graph, artifact, ctx)
        program = _program(ctx, artifact)
        kind = node.kind
        if kind == "conv":
            return CodegenConvKernel(node, graph, ctx, artifact, program)
        if kind == "linear":
            return CodegenLinearKernel(node, ctx, artifact, program)
        if kind == "add":
            return CodegenAddKernel(node, ctx, program)
        if kind == "maxpool":
            return CodegenMaxPoolKernel(node, graph, ctx, program)
        if kind in ("batchnorm2d", "batchnorm1d", "relu", "relu6"):
            return CodegenEltwiseKernel(node, ctx, artifact, program)
        # annotate_codegen marked it native but no kernel exists: keep
        # serving correctly on the fused kernel (and the coverage table
        # should be fixed).
        return self._fused.compile_node(node, graph, artifact, ctx)
