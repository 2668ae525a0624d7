"""Reference kernel backend: bit-exact batched numpy, the serving oracle.

Every kernel replicates the corresponding eval-mode :mod:`repro.nn` forward
*operation for operation* (same numpy calls, same evaluation order, same
float32 intermediates), which is what makes this backend bit-identical to
the eager quantized model — the invariant :func:`repro.serve.export
.build_artifact` enforces on every export. Optimized backends are in turn
verified against this one at compile time, so when editing a kernel here,
keep it in lockstep with the layer's ``forward``.

The reference backend runs **no** optimization passes: the graph it
executes is the pristine lowering of the manifest, one kernel per op, which
is also what makes it the oracle the fused backend is diffed against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ExportError
from repro.quant.ste import ActivationQuantizer
from repro.serve.artifact import ServeArtifact, decode_weight_record
from repro.serve.backends import register_backend
from repro.serve.backends.base import (
    ExecContext,
    Kernel,
    KernelBackend,
    row_stable_matmul,
)
from repro.serve.ir import Graph, IRNode
from repro.tensor.conv import _im2col, _output_size, pool_windows
from repro.tensor import stable_sigmoid, stable_tanh


# ----------------------------------------------------------------------
# Activation fake-quantization (mirrors ActivationQuantizer.__call__ with
# calibration off + fake_quant_ste, in plain numpy)
# ----------------------------------------------------------------------
class ActQuant:
    def __init__(self, spec: dict):
        self.alpha = spec["alpha"]
        self.signed = spec["signed"]
        self.bits = spec["bits"]
        self.low = -self.alpha if spec["signed"] else 0.0
        self._quantizer = ActivationQuantizer(
            spec["bits"], signed=spec["signed"], alpha=self.alpha)
        self._quantizer.calibrating = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # The eager hook computes ``clipped + (quantized - clipped)`` (an
        # STE artifact); since every level q is within half a step of its
        # clipped input c (and shares its sign), Sterbenz's lemma makes the
        # subtraction exact and the sum round back to exactly q — so
        # returning the quantized array directly is bit-identical and
        # skips two full passes plus the throwaway clip allocation.
        quantized = self._quantizer.quantize_array(x)
        return np.asarray(quantized, dtype=np.asarray(x).dtype)


def make_act(spec: Optional[dict]) -> Optional[ActQuant]:
    return ActQuant(spec) if spec else None


def _relu(x: np.ndarray) -> np.ndarray:
    return x * (x > 0)


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
class ConvKernel(Kernel):
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
        self.w_mat = weight.reshape(self.oc, -1)
        self.bias = (artifact.arrays[spec["bias"]]
                     if spec["bias"] is not None else None)
        self.act = make_act(spec["act_quant"])

    def run(self, x: np.ndarray) -> np.ndarray:
        if self.act is not None:
            x = self.act(x)
        n = x.shape[0]
        k = self.kernel
        cols, oh, ow = _im2col(x, k, k, self.stride, self.padding)
        if self.groups == 1:
            # Same broadcast matmul as the eager conv2d kernel.
            out = np.matmul(self.w_mat, cols)
        else:
            ocg = self.oc // self.groups
            cols_g = cols.reshape(n, self.groups, self.cg * k * k, oh * ow)
            w_g = self.w_mat.reshape(self.groups, ocg, self.cg * k * k)
            out = np.einsum("gof,ngfp->ngop", w_g, cols_g, optimize=True)
            out = out.reshape(n, self.oc, oh * ow)
        out = out.reshape(n, self.oc, oh, ow)
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.oc, 1, 1)
        return out


class LinearKernel(Kernel):
    def __init__(self, node: IRNode, ctx: ExecContext,
                 artifact: ServeArtifact):
        super().__init__(node, ctx)
        spec = node.spec
        self.weight = decode_weight_record(artifact, spec["weight"])
        self.bias = (artifact.arrays[spec["bias"]]
                     if spec["bias"] is not None else None)
        self.act = make_act(spec["act_quant"])

    def run(self, x: np.ndarray) -> np.ndarray:
        if self.act is not None:
            x = self.act(x)
        out = row_stable_matmul(x, self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out


class BatchNormKernel(Kernel):
    def __init__(self, node: IRNode, ctx: ExecContext,
                 artifact: ServeArtifact):
        super().__init__(node, ctx)
        spec = node.spec
        shape = ((1, spec["features"], 1, 1) if spec["kind"] == "batchnorm2d"
                 else (1, spec["features"]))
        arrays = artifact.arrays
        self.mean = arrays[spec["mean"]].reshape(shape)
        self.gamma = arrays[spec["gamma"]].reshape(shape)
        self.beta = arrays[spec["beta"]].reshape(shape)
        # Same float32 `(var + eps).sqrt()` the eager layer evaluates.
        eps = np.asarray(spec["eps"], dtype=np.float64).astype(np.float32)
        self.denom = np.sqrt(arrays[spec["var"]].reshape(shape) + eps)

    def run(self, x: np.ndarray) -> np.ndarray:
        return ((x - self.mean) / self.denom) * self.gamma + self.beta


class ReluKernel(Kernel):
    def run(self, x):
        return _relu(x)


class Relu6Kernel(Kernel):
    def run(self, x):
        return np.clip(x, 0.0, 6.0)


class FlattenKernel(Kernel):
    def run(self, x):
        return x.reshape(x.shape[:1] + (-1,))


class GlobalAvgPoolKernel(Kernel):
    def run(self, x):
        count = x.shape[2] * x.shape[3]
        # Tensor.mean computes sum * (1/count) in float32; keep that order.
        return x.sum(axis=(2, 3)) * np.float32(1.0 / count)


class MaxPoolKernel(Kernel):
    def run(self, x):
        kernel, stride = self.node.spec["kernel"], self.node.spec["stride"]
        padding = self.node.spec["padding"]
        n, c, h, w = x.shape
        data = x
        if padding > 0:
            data = np.pad(
                x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
        oh = _output_size(h, kernel, stride, padding)
        ow = _output_size(w, kernel, stride, padding)
        windows = pool_windows(data, kernel, stride, oh, ow)
        flat = windows.reshape(n, c, oh, ow, kernel * kernel)
        argmax = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
        return np.ascontiguousarray(out)


class AvgPoolKernel(Kernel):
    def run(self, x):
        kernel, stride = self.node.spec["kernel"], self.node.spec["stride"]
        h, w = x.shape[2:]
        oh = _output_size(h, kernel, stride, 0)
        ow = _output_size(w, kernel, stride, 0)
        windows = pool_windows(x, kernel, stride, oh, ow)
        return np.ascontiguousarray(windows.mean(axis=(-1, -2)))


class AddKernel(Kernel):
    """Residual join: main + shortcut, optional post-activation."""

    def run(self, main, shortcut):
        out = main + shortcut
        if self.node.spec.get("post") == "relu":
            out = _relu(out)
        return out


class EmbeddingKernel(Kernel):
    def __init__(self, node: IRNode, ctx: ExecContext,
                 artifact: ServeArtifact):
        super().__init__(node, ctx)
        self.weight = artifact.arrays[node.spec["weight"]]

    def run(self, ids):
        return self.weight[np.asarray(ids, dtype=np.int64)]


class MergeTimeKernel(Kernel):
    def run(self, x):
        n, t, h = x.shape
        return x.reshape(n * t, h)


class TakeLastKernel(Kernel):
    def run(self, x):
        return x[:, x.shape[1] - 1]


class RnnCellParams:
    def __init__(self, spec: dict, artifact: ServeArtifact):
        self.hidden = spec["hidden_size"]
        self.w_ih = decode_weight_record(artifact, spec["weight_ih"])
        self.w_hh = decode_weight_record(artifact, spec["weight_hh"])
        arrays = artifact.arrays
        self.b_ih = arrays[spec["bias_ih"]]
        self.b_hh = arrays[spec["bias_hh"]]
        self.act = make_act(spec["act_quant"])


class RnnKernel(Kernel):
    def __init__(self, node: IRNode, ctx: ExecContext,
                 artifact: ServeArtifact):
        super().__init__(node, ctx)
        spec = node.spec
        self.cell_kind = spec["cell"]
        self.cells = [RnnCellParams(c, artifact) for c in spec["cells"]]
        self.hidden = spec["hidden_size"]

    def run(self, x: np.ndarray) -> np.ndarray:
        n, steps, _ = x.shape
        state = (self.ctx.state_in.get(self.node.id)
                 if self.ctx.carry_state else None)
        if state is not None:
            # Per-step math never mutates its h/c arguments, so the
            # supplied arrays can seed the recursion directly.
            h = list(state["h"])
            c = list(state["c"]) if state.get("c") is not None \
                else [np.zeros((n, self.hidden), dtype=np.float32)
                      for _ in self.cells]
        else:
            zeros = np.zeros((n, self.hidden), dtype=np.float32)
            h = [zeros.copy() for _ in self.cells]
            c = [zeros.copy() for _ in self.cells]
        outputs = []
        for t in range(steps):
            inp = x[:, t]
            for index, cell in enumerate(self.cells):
                if self.cell_kind == "lstm":
                    h[index], c[index] = self._lstm_step(
                        cell, inp, h[index], c[index])
                else:
                    h[index] = self._gru_step(cell, inp, h[index])
                inp = h[index]
            outputs.append(inp)
        if self.ctx.carry_state:
            self.ctx.state_out[self.node.id] = {
                "h": [layer.copy() for layer in h],
                "c": ([layer.copy() for layer in c]
                      if self.cell_kind == "lstm" else None),
            }
        return np.stack(outputs, axis=1)

    @staticmethod
    def _lstm_step(cell, x, h, c):
        if cell.act is not None:
            x = cell.act(x)
            h = cell.act(h)
        gates = (row_stable_matmul(x, cell.w_ih.T) + cell.b_ih
                 + row_stable_matmul(h, cell.w_hh.T) + cell.b_hh)
        size = cell.hidden
        i_f = stable_sigmoid(gates[:, 0 * size:2 * size])
        i, f = i_f[:, :size], i_f[:, size:]
        g = stable_tanh(gates[:, 2 * size:3 * size])
        o = stable_sigmoid(gates[:, 3 * size:4 * size])
        c_next = f * c + i * g
        return o * stable_tanh(c_next), c_next

    @staticmethod
    def _gru_step(cell, x, h):
        if cell.act is not None:
            x_in = cell.act(x)
            h_in = cell.act(h)
        else:
            x_in, h_in = x, h
        gi = row_stable_matmul(x_in, cell.w_ih.T) + cell.b_ih
        gh = row_stable_matmul(h_in, cell.w_hh.T) + cell.b_hh
        size = cell.hidden
        r_z = stable_sigmoid(gi[:, :2 * size] + gh[:, :2 * size])
        r, z = r_z[:, :size], r_z[:, size:]
        n = stable_tanh(gi[:, 2 * size:] + r * gh[:, 2 * size:])
        return (np.float32(1.0) - z) * n + z * h


_KERNELS = {
    "conv": ConvKernel,
    "linear": LinearKernel,
    "batchnorm2d": BatchNormKernel,
    "batchnorm1d": BatchNormKernel,
    "relu": ReluKernel,
    "relu6": Relu6Kernel,
    "flatten": FlattenKernel,
    "globalavgpool": GlobalAvgPoolKernel,
    "maxpool": MaxPoolKernel,
    "avgpool": AvgPoolKernel,
    "add": AddKernel,
    "embedding": EmbeddingKernel,
    "merge_time": MergeTimeKernel,
    "take_last": TakeLastKernel,
    "rnn": RnnKernel,
}

_NEEDS_ARTIFACT = (ConvKernel, LinearKernel, BatchNormKernel,
                   EmbeddingKernel, RnnKernel)


@register_backend
class ReferenceBackend(KernelBackend):
    """Un-optimized, op-for-op numpy execution (the bit-exactness oracle)."""

    name = "reference"
    passes = ()

    def compile_node(self, node: IRNode, graph: Graph,
                     artifact: ServeArtifact, ctx: ExecContext) -> Kernel:
        try:
            kernel_type = _KERNELS[node.kind]
        except KeyError:
            raise ExportError(f"unknown plan op kind {node.kind!r}")
        if issubclass(kernel_type, _NEEDS_ARTIFACT):
            return kernel_type(node, ctx, artifact)
        return kernel_type(node, ctx)
