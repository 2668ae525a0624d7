"""Fused kernel backend: epilogue fusion, scratch arenas, hoisted GEMMs.

Same numerics as the reference backend — verified bit-identical at compile
time and re-verified on the first batch of every new size served — but the
per-request path is restructured for throughput:

- **Fused epilogues.** BatchNorm, ReLU and ReLU6 folded by the graph
  passes run inside the producing GEMM kernel as in-place stages over the
  GEMM output buffer — original numpy ops in the original order, zero
  intermediate allocations, no separate graph steps.
- **Scratch arenas.** Padded inputs, im2col columns, GEMM outputs and
  activation-quant workspaces live in a pooled arena
  (:meth:`ExecContext.scratch`), one per recent run-input shape, bound
  once per shape per kernel; same-shaped layers share allocations, padded
  borders are zeroed once per allocation, and the steady-state request
  path performs no large allocations.
- **Allocation-free activation fake-quant.** The exact reference ufunc
  chain, applied in place, with the final reconstruction multiply landing
  directly in the consumer's buffer (a padded-conv interior).
- **Hoisted RNN input GEMMs.** Layers are scheduled one at a time over the
  whole sequence, so each layer's input-side projection ``x_t @ W_ih.T``
  collapses from T small GEMMs into one batched GEMM over all timesteps
  (row-wise bit-identical — each output row is the same (1, in) x (in, 4H)
  product); only the genuinely sequential ``h @ W_hh.T`` stays in the time
  loop, with all gate math running in preallocated buffers.
- **Subsumed-ReLU elimination.** ``clip(relu(x), 0, a) == clip(x, 0, a)``,
  so ReLUs feeding an unsigned activation quantizer vanish entirely
  (see :func:`repro.serve.passes.eliminate_subsumed_relu`).

View kernels (reshape, embedding gather) reuse the reference
implementations — the win there is zero and reuse keeps the oracle in
lockstep.

The kernels take float32 activations only: serving input is checked and
cast once, by :meth:`repro.serve.plan.ExecutionPlan.coerce`, before it
reaches them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ExportError
from repro.serve.artifact import ServeArtifact, decode_weight_record
from repro.serve.backends import register_backend
from repro.serve.backends.base import (
    ExecContext,
    Kernel,
    KernelBackend,
    row_stable_matmul,
)
from repro.serve.backends.reference import (
    EmbeddingKernel,
    FlattenKernel,
    MergeTimeKernel,
    TakeLastKernel,
)
from repro.serve.ir import Graph, IRNode
from repro.tensor.conv import _output_size, pool_windows
from repro.tensor import stable_sigmoid, stable_tanh


# ----------------------------------------------------------------------
# Activation fake-quant
# ----------------------------------------------------------------------
class FusedActQuant:
    """Allocation-free activation fake-quant over a pooled scratch buffer.

    Exactly the reference ufunc sequence (clip → /alpha → *steps → round →
    /steps → *alpha, all float32), but every stage writes in place — the
    reference path allocates a fresh array per stage.
    """

    def __init__(self, spec: dict, ctx: ExecContext):
        self.ctx = ctx
        self.alpha = float(spec["alpha"])
        signed = spec["signed"]
        bits = spec["bits"]
        self.steps = (2 ** (bits - 1) - 1) if signed else (2 ** bits - 1)
        self.low = -self.alpha if signed else 0.0

    def __call__(self, x: np.ndarray, out=None) -> np.ndarray:
        buf = self.ctx.scratch("actq", x.shape)
        np.clip(x, self.low, self.alpha, out=buf)
        np.divide(buf, self.alpha, out=buf)
        np.multiply(buf, self.steps, out=buf)
        np.round(buf, out=buf)
        np.divide(buf, self.steps, out=buf)
        # The final reconstruction multiply can land directly in a consumer
        # buffer (e.g. a padded-conv interior), saving a copy pass.
        target = buf if out is None else out
        np.multiply(buf, self.alpha, out=target)
        return target


def _make_act(spec: Optional[dict], ctx: ExecContext):
    return FusedActQuant(spec, ctx) if spec else None


# ----------------------------------------------------------------------
# Epilogues (in-place stages over the GEMM output)
# ----------------------------------------------------------------------
def _compile_epilogues(node: IRNode, artifact: ServeArtifact,
                       channel_axis: int = 1):
    """Closures applying each fused epilogue in place, in fusion order.

    Every stage replays the reference kernel's ufuncs in the reference
    order — only the intermediate allocations and graph steps disappear.
    ``channel_axis=0`` builds the parameter broadcasts for kernels that
    keep their result channel-major (the depthwise fast path).
    """
    stages = []
    for epilogue in node.epilogues:
        op = epilogue["op"]
        if op in ("batchnorm2d", "batchnorm1d"):
            spec = epilogue["spec"]
            if op == "batchnorm2d":
                shape = ((spec["features"], 1, 1, 1) if channel_axis == 0
                         else (1, spec["features"], 1, 1))
            else:
                shape = (1, spec["features"])
            arrays = artifact.arrays
            mean = arrays[spec["mean"]].reshape(shape)
            gamma = arrays[spec["gamma"]].reshape(shape)
            beta = arrays[spec["beta"]].reshape(shape)
            eps = np.asarray(spec["eps"], dtype=np.float64).astype(np.float32)
            denom = np.sqrt(arrays[spec["var"]].reshape(shape) + eps)

            def batchnorm(res, mean=mean, denom=denom, gamma=gamma,
                          beta=beta):
                np.subtract(res, mean, out=res)
                np.divide(res, denom, out=res)
                np.multiply(res, gamma, out=res)
                np.add(res, beta, out=res)

            stages.append(batchnorm)
        elif op == "relu":
            stages.append(lambda res: np.maximum(res, 0.0, out=res))
        elif op == "relu6":
            stages.append(lambda res: np.clip(res, 0.0, 6.0, out=res))
        else:  # pragma: no cover - passes only emit the ops above
            raise ValueError(f"unknown fused epilogue {op!r}")
    return stages


# ----------------------------------------------------------------------
# GEMM kernels
# ----------------------------------------------------------------------
class FusedConvKernel(Kernel):
    """im2col conv with every geometry decision made at compile time.

    Per batch size the kernel binds one tuple of pooled buffers (padded
    input, im2col columns, GEMM output) and caches it, so the request path
    is: act-quant (final pass lands in the padded interior) → one C-level
    window gather → one broadcast BLAS matmul → in-place epilogues.
    """

    def __init__(self, node: IRNode, ctx: ExecContext,
                 artifact: ServeArtifact):
        super().__init__(node, ctx)
        spec = node.spec
        self.stride = spec["stride"]
        self.padding = spec["padding"]
        self.groups = spec["groups"]
        self.oc = spec["out_channels"]
        self.kernel = spec["kernel"]
        weight = decode_weight_record(artifact, spec["weight"])
        self.cg = weight.shape[1]
        self.w_mat = np.ascontiguousarray(weight.reshape(self.oc, -1))
        self.bias = (artifact.arrays[spec["bias"]].reshape(1, self.oc, 1, 1)
                     if spec["bias"] is not None else None)
        self.act = _make_act(spec["act_quant"], ctx)
        self.epilogues = _compile_epilogues(node, artifact)
        self.oh, self.ow = node.output_shape[1], node.output_shape[2]
        self.cin = spec["in_channels"]
        self.hw = (node.scratch["padded"][1] - 2 * self.padding,
                   node.scratch["padded"][2] - 2 * self.padding)
        # Depthwise convs take the channel-major fast path: one batched
        # GEMV replaying the reference einsum's internal decomposition.
        self.depthwise = self.groups == self.cin > 1 and self.cg == 1
        if self.depthwise:
            self.epilogues = _compile_epilogues(node, artifact,
                                                channel_axis=0)
            if self.bias is not None:
                self.bias = self.bias.reshape(self.oc, 1, 1, 1)
        self._groups_path = None  # cached einsum contraction path

    def _bind(self, n: int) -> tuple:
        """Resolve (padded, interior, cols, out) for one batch size."""
        key = (self, n)
        bound = self.ctx.bound.get(key)
        if bound is None:
            k, s, pad = self.kernel, self.stride, self.padding
            h, w = self.hw
            cin, oh, ow = self.cin, self.oh, self.ow
            if pad > 0:
                # Zeroed once; only the interior is ever written, so the
                # border stays zero across reuses. The padding width is
                # part of the pool key: two convs may share a padded shape
                # with different pad widths, and sharing across them would
                # let one conv's interior dirty the other's border.
                padded = self.ctx.scratch(
                    f"conv.padded.p{pad}", (n, cin, h + 2 * pad, w + 2 * pad),
                    zeroed=True)
                interior = padded[:, :, pad:pad + h, pad:pad + w]
            else:
                padded = interior = None
            if k == 1 and s == 1 and pad == 0:
                cols = None  # im2col is a plain reshape view
            else:
                cols = self.ctx.scratch(
                    "conv.cols", (n, cin * k * k, oh * ow))
            out = None
            if self.groups == 1:
                out = self.ctx.scratch(
                    f"out{self.node.id}", (n, self.oc, oh * ow))
            elif self.depthwise:
                # Channel-major operand + output of the batched GEMV.
                out = (self.ctx.scratch("conv.dwcols",
                                        (self.cin, n * oh * ow, k * k)),
                       self.ctx.scratch(f"out{self.node.id}",
                                        (self.cin, n * oh * ow, 1)))
            bound = (padded, interior, cols, out)
            self.ctx.bound[key] = bound
        return bound

    def _gather(self, src: np.ndarray, cols: np.ndarray, n: int) -> None:
        k, s = self.kernel, self.stride
        shape = (n, self.cin, k, k, self.oh, self.ow)
        strides = (src.strides[0], src.strides[1], src.strides[2],
                   src.strides[3], src.strides[2] * s, src.strides[3] * s)
        patches = np.lib.stride_tricks.as_strided(src, shape=shape,
                                                  strides=strides)
        # One C-level gather into the pooled buffer (the reference path
        # materializes a fresh array per call instead).
        np.copyto(cols.reshape(shape), patches)

    def run(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        k, pad = self.kernel, self.padding
        padded, interior, cols, out = self._bind(n)
        if pad > 0:
            # Quantize (or copy) straight into the padded interior: the
            # separate "write the interior" pass disappears.
            if self.act is not None:
                self.act(x, out=interior)
            else:
                interior[...] = x
            src = padded
        else:
            src = self.act(x) if self.act is not None else x
        if cols is None:
            gemm_in = src.reshape(n, self.cin, self.oh * self.ow)
        else:
            self._gather(src, cols, n)
            gemm_in = cols
        if self.depthwise:
            return self._run_depthwise(gemm_in, out, n)
        if self.groups == 1:
            np.matmul(self.w_mat, gemm_in, out=out)
        else:
            ocg = self.oc // self.groups
            cols_g = gemm_in.reshape(n, self.groups, self.cg * k * k,
                                     self.oh * self.ow)
            w_g = self.w_mat.reshape(self.groups, ocg, self.cg * k * k)
            if self._groups_path is None:
                # Same contraction the reference einsum performs; computing
                # the path once skips the per-call path search.
                self._groups_path = np.einsum_path(
                    "gof,ngfp->ngop", w_g, cols_g, optimize=True)[0]
            out = np.einsum("gof,ngfp->ngop", w_g, cols_g,
                            optimize=self._groups_path)
            out = out.reshape(n, self.oc, self.oh * self.ow)
        res = out.reshape(n, self.oc, self.oh, self.ow)
        if self.bias is not None:
            np.add(res, self.bias, out=res)
        for stage in self.epilogues:
            stage(res)
        return res

    def _run_depthwise(self, gemm_in: np.ndarray, buffers: tuple,
                       n: int) -> np.ndarray:
        """Depthwise conv as the reference einsum's own internal batched
        GEMV, minus its per-call overhead and output materialization.

        ``einsum("gof,ngfp->ngop", optimize=True)`` lowers (for o == 1) to
        ``matmul(cols.transpose(g,n,p,f).reshape(g, n*p, f), w.reshape(g,
        f, 1))`` — the identical call is made here against pooled buffers,
        the epilogues run over the contiguous channel-major result, and
        the batch-major output is handed out as a zero-cost transposed
        view instead of the reference's reshape copy.
        """
        k = self.kernel
        dwcols, dwout = buffers
        cols_g = gemm_in.reshape(n, self.cin, k * k, self.oh * self.ow)
        # einsum's operand prep ('DACE->ADEC' + reshape), into scratch.
        np.copyto(dwcols.reshape(self.cin, n, self.oh * self.ow, k * k),
                  cols_g.transpose(1, 0, 3, 2))
        np.matmul(dwcols, self.w_mat.reshape(self.cin, k * k, 1), out=dwout)
        base = dwout.reshape(self.cin, n, self.oh, self.ow)
        if self.bias is not None:
            np.add(base, self.bias, out=base)
        for stage in self.epilogues:
            stage(base)
        return base.transpose(1, 0, 2, 3)


class FusedLinearKernel(Kernel):
    def __init__(self, node: IRNode, ctx: ExecContext,
                 artifact: ServeArtifact):
        super().__init__(node, ctx)
        spec = node.spec
        self.weight = decode_weight_record(artifact, spec["weight"])
        self.wT = self.weight.T  # the reference's exact transposed view
        self.bias = (artifact.arrays[spec["bias"]]
                     if spec["bias"] is not None else None)
        self.act = _make_act(spec["act_quant"], ctx)
        self.epilogues = _compile_epilogues(node, artifact)

    def run(self, x: np.ndarray) -> np.ndarray:
        if self.act is not None:
            x = self.act(x)
        out = self.ctx.scratch(
            f"out{self.node.id}", x.shape[:-1] + (self.weight.shape[0],))
        # The same row-stable `x @ weight.T` the reference kernel runs,
        # just with a preallocated output.
        row_stable_matmul(x, self.wT, out=out)
        if self.bias is not None:
            np.add(out, self.bias, out=out)
        for stage in self.epilogues:
            stage(out)
        return out


# ----------------------------------------------------------------------
# Recurrent kernel: per-layer scheduling with a hoisted input GEMM
# ----------------------------------------------------------------------
class FusedRnnCell:
    def __init__(self, spec: dict, artifact: ServeArtifact,
                 ctx: ExecContext):
        self.hidden = spec["hidden_size"]
        self.w_ih = decode_weight_record(artifact, spec["weight_ih"])
        self.w_hh = decode_weight_record(artifact, spec["weight_hh"])
        arrays = artifact.arrays
        self.b_ih = arrays[spec["bias_ih"]]
        self.b_hh = arrays[spec["bias_hh"]]
        self.act = _make_act(spec["act_quant"], ctx)


class FusedRnnKernel(Kernel):
    """LSTM/GRU with the layer loop outermost and the input GEMM hoisted.

    Layer l's states depend only on layer l-1's full output sequence, so
    running each layer to completion first is a pure re-scheduling — same
    per-element arithmetic, same results. That unlocks the hoist: the
    input-side projection ``x_t @ W_ih.T (+ b_ih)`` for all T steps is one
    batched GEMM over ``n*T`` rows (each output row is the same
    ``(1, in) x (in, gates*H)`` product as the per-step call, so the rows
    are bit-identical), leaving only the sequential ``h_t @ W_hh.T`` and
    the gate nonlinearities inside the time loop, all in pooled buffers.
    """

    def __init__(self, node: IRNode, ctx: ExecContext,
                 artifact: ServeArtifact):
        super().__init__(node, ctx)
        spec = node.spec
        self.cell_kind = spec["cell"]
        self.cells = [FusedRnnCell(c, artifact, ctx) for c in spec["cells"]]
        self.hidden = spec["hidden_size"]

    def run(self, x: np.ndarray) -> np.ndarray:
        state = (self.ctx.state_in.get(self.node.id)
                 if self.ctx.carry_state else None)
        final_h: list = []
        final_c: list = []
        seq = x
        for index, cell in enumerate(self.cells):
            h0 = state["h"][index] if state is not None else None
            c0 = (state["c"][index]
                  if state is not None and state.get("c") is not None
                  else None)
            seq = self._layer(index, cell, seq, h0, c0, final_h, final_c)
        if self.ctx.carry_state:
            self.ctx.state_out[self.node.id] = {
                "h": final_h,
                "c": final_c if self.cell_kind == "lstm" else None,
            }
        return seq

    # ------------------------------------------------------------------
    def _layer(self, index: int, cell: FusedRnnCell, seq: np.ndarray,
               h0=None, c0=None, final_h=None, final_c=None) -> np.ndarray:
        n, steps, features = seq.shape
        hidden = cell.hidden
        gate_rows = cell.w_ih.shape[0]
        tag = f"rnn{self.node.id}.l{index}"
        flat = np.ascontiguousarray(seq).reshape(n * steps, features)
        if cell.act is not None:
            quantized = self.ctx.scratch(f"{tag}.xq", flat.shape)
            flat = cell.act(flat, out=quantized)
        # Hoisted input projection: T per-step GEMMs become one, and the
        # reference's per-step `x @ W_ih.T + b_ih` add folds in row-wise.
        gi = self.ctx.scratch(f"{tag}.gi", (n * steps, gate_rows))
        row_stable_matmul(flat, cell.w_ih.T, out=gi)
        np.add(gi, cell.b_ih, out=gi)
        gi = gi.reshape(n, steps, gate_rows)

        out_seq = self.ctx.scratch(f"{tag}.out", (n, steps, hidden))
        h = self.ctx.scratch(f"{tag}.h", (n, hidden))
        # Seeding the recursion from carried state (instead of zeros) is
        # the only difference between a streamed chunk and the matching
        # slice of a full-sequence run: the hoisted input GEMM is row-wise
        # bit-identical for any T, and the per-step gate math depends only
        # on the h/c values themselves.
        h[...] = 0.0 if h0 is None else h0
        gh = self.ctx.scratch(f"{tag}.gh", (n, gate_rows))
        gates = self.ctx.scratch(f"{tag}.g", (n, gate_rows))
        if self.cell_kind == "lstm":
            c = self.ctx.scratch(f"{tag}.c", (n, hidden))
            c[...] = 0.0 if c0 is None else c0
            for t in range(steps):
                self._lstm_step(cell, gi[:, t], h, c, gh, gates)
                out_seq[:, t] = h
        else:
            for t in range(steps):
                self._gru_step(cell, gi[:, t], h, gh)
                out_seq[:, t] = h
        if self.ctx.carry_state:
            # h/c live in pooled scratch; hand out copies that survive
            # the next run.
            final_h.append(h.copy())
            if self.cell_kind == "lstm":
                final_c.append(c.copy())
        return out_seq

    @staticmethod
    def _hq(cell: FusedRnnCell, h: np.ndarray) -> np.ndarray:
        return cell.act(h) if cell.act is not None else h

    def _lstm_step(self, cell, gi_t, h, c, gh, gates):
        # gates = ((x@W_ih.T + b_ih) + h@W_hh.T) + b_hh — reference order.
        row_stable_matmul(self._hq(cell, h), cell.w_hh.T, out=gh)
        np.add(gi_t, gh, out=gates)
        np.add(gates, cell.b_hh, out=gates)
        size = cell.hidden
        # Gates i and f are adjacent rows of the stacked gate matrix, so
        # one sigmoid call covers both (element-wise fn: identical bits).
        i_f = stable_sigmoid(gates[:, 0 * size:2 * size])
        i, f = i_f[:, :size], i_f[:, size:]
        g = stable_tanh(gates[:, 2 * size:3 * size])
        o = stable_sigmoid(gates[:, 3 * size:4 * size])
        # c = f*c + i*g, h = o*tanh(c) — same order, in place.
        fc = np.multiply(f, c, out=f)
        ig = np.multiply(i, g, out=g)
        np.add(fc, ig, out=c)
        np.multiply(o, stable_tanh(c), out=h)

    def _gru_step(self, cell, gi_t, h, gh):
        size = cell.hidden
        row_stable_matmul(self._hq(cell, h), cell.w_hh.T, out=gh)
        np.add(gh, cell.b_hh, out=gh)
        # r and z share one sigmoid over the adjacent gate rows.
        r_z = stable_sigmoid(gi_t[:, :2 * size] + gh[:, :2 * size])
        r, z = r_z[:, :size], r_z[:, size:]
        ngate = stable_tanh(gi_t[:, 2 * size:] + r * gh[:, 2 * size:])
        # h = (1 - z)*n + z*h — z*h read before h is overwritten.
        zh = np.multiply(z, h, out=gh[:, :size])
        onez = np.subtract(np.float32(1.0), z, out=gh[:, size:2 * size])
        np.multiply(onez, ngate, out=ngate)
        np.add(ngate, zh, out=h)


# ----------------------------------------------------------------------
# Element-wise / pooling kernels
# ----------------------------------------------------------------------
class FusedBatchNormKernel(Kernel):
    """Standalone BN (one the fold pass could not attach to a GEMM)."""

    def __init__(self, node: IRNode, ctx: ExecContext,
                 artifact: ServeArtifact):
        super().__init__(node, ctx)
        self.stages = _compile_epilogues(
            IRNode(id=node.id, kind=node.kind, spec={}, inputs=[],
                   output_shape=node.output_shape,
                   epilogues=[{"op": node.kind, "spec": node.spec}]),
            artifact)

    def run(self, x: np.ndarray) -> np.ndarray:
        out = self.ctx.scratch(f"out{self.node.id}", x.shape, dtype=x.dtype)
        np.copyto(out, x)
        for stage in self.stages:
            stage(out)
        return out


class FusedReluKernel(Kernel):
    def run(self, x):
        out = self.ctx.scratch(f"out{self.node.id}", x.shape, dtype=x.dtype)
        return np.maximum(x, 0.0, out=out)


class FusedRelu6Kernel(Kernel):
    def run(self, x):
        out = self.ctx.scratch(f"out{self.node.id}", x.shape, dtype=x.dtype)
        return np.clip(x, 0.0, 6.0, out=out)


class FusedAddKernel(Kernel):
    def run(self, main, shortcut):
        out = self.ctx.scratch(f"out{self.node.id}", main.shape,
                               dtype=np.result_type(main, shortcut))
        np.add(main, shortcut, out=out)
        if self.node.spec.get("post") == "relu":
            np.maximum(out, 0.0, out=out)
        return out


class FusedGlobalAvgPoolKernel(Kernel):
    def run(self, x):
        count = x.shape[2] * x.shape[3]
        out = self.ctx.scratch(f"out{self.node.id}", x.shape[:2],
                               dtype=x.dtype)
        np.sum(x, axis=(2, 3), out=out)
        np.multiply(out, np.float32(1.0 / count), out=out)
        return out


class FusedMaxPoolKernel(Kernel):
    def run(self, x):
        spec = self.node.spec
        kernel, stride, padding = spec["kernel"], spec["stride"], \
            spec["padding"]
        n, c, h, w = x.shape
        data = x
        if padding > 0:
            data = np.pad(
                x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
        oh = _output_size(h, kernel, stride, padding)
        ow = _output_size(w, kernel, stride, padding)
        windows = pool_windows(data, kernel, stride, oh, ow)
        out = self.ctx.scratch(f"out{self.node.id}", (n, c, oh, ow),
                               dtype=x.dtype)
        # One max reduction instead of argmax + take_along_axis: the
        # selected values are identical.
        np.max(windows, axis=(-2, -1), out=out)
        return out


class FusedAvgPoolKernel(Kernel):
    def run(self, x):
        spec = self.node.spec
        kernel, stride = spec["kernel"], spec["stride"]
        n, c = x.shape[:2]
        h, w = x.shape[2:]
        oh = _output_size(h, kernel, stride, 0)
        ow = _output_size(w, kernel, stride, 0)
        windows = pool_windows(x, kernel, stride, oh, ow)
        out = self.ctx.scratch(f"out{self.node.id}", (n, c, oh, ow),
                               dtype=x.dtype)
        np.mean(windows, axis=(-1, -2), out=out)
        return out


_FUSED_KERNELS = {
    "conv": FusedConvKernel,
    "linear": FusedLinearKernel,
    "batchnorm2d": FusedBatchNormKernel,
    "batchnorm1d": FusedBatchNormKernel,
    "relu": FusedReluKernel,
    "relu6": FusedRelu6Kernel,
    "add": FusedAddKernel,
    "globalavgpool": FusedGlobalAvgPoolKernel,
    "maxpool": FusedMaxPoolKernel,
    "avgpool": FusedAvgPoolKernel,
    "rnn": FusedRnnKernel,
    # View kernels shared with the oracle (no fusion win there).
    "flatten": FlattenKernel,
    "merge_time": MergeTimeKernel,
    "take_last": TakeLastKernel,
    "embedding": EmbeddingKernel,
}

_NEEDS_ARTIFACT = (FusedConvKernel, FusedLinearKernel, FusedBatchNormKernel,
                   FusedRnnKernel, EmbeddingKernel)


@register_backend
class FusedBackend(KernelBackend):
    """Pass-optimized kernels; outputs may alias pooled scratch, so the
    executor hands out a copy of the final graph output."""

    name = "fused"
    passes = ("fold_batchnorm", "fuse_activations", "eliminate_subsumed_relu",
              "eliminate_dead_ops", "plan_scratch")
    copy_output = True

    def compile_node(self, node: IRNode, graph: Graph,
                     artifact: ServeArtifact, ctx: ExecContext) -> Kernel:
        try:
            kernel_type = _FUSED_KERNELS[node.kind]
        except KeyError:
            raise ExportError(f"unknown plan op kind {node.kind!r}")
        if issubclass(kernel_type, _NEEDS_ARTIFACT):
            return kernel_type(node, ctx, artifact)
        return kernel_type(node, ctx)
