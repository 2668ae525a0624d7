"""Descriptor tables for the ``compiled`` serving backend's kernel library.

Native code is one C library (``kernels.h`` and three units beside this
module, built once per codegen cache by
:mod:`repro.serve.codegen.runtime`) whose
templates take every shape, stride, pad width, quantizer constant and
epilogue stage as a run-time argument. A compiled graph therefore
compiles no C: each maximal run of native nodes becomes a
:class:`Segment`, a table of ``struct repro_step`` descriptors (one per
node, one per layer of a recurrent node) that the library's one entry
point ``repro_run(steps, count, n, t, b)`` walks per batch. ``n`` is the
leading dimension of the run's input (requests, or rows) and ``t`` its
time extent; each step derives its own count from them (``n * t`` after
a time merge); ``b`` is the run's pointer table: run inputs first, then
every node's weights, epilogue tables and pooled buffers.

**Bit-exactness is the design constraint, not speed at any cost.** The
library's loops cover exactly the ops whose numpy implementations are
per-element IEEE-754 float32 arithmetic in a fixed order (quantizer
chains, bias/batch-norm/ReLU epilogues, window gathers, max-pooling, and
the RNN gates, whose sigmoid/tanh :mod:`repro.tensor.activations`
defines as such a sequence) — for those, C built with
``-ffp-contract=off -fno-fast-math`` reproduces numpy bit for bit. GEMM
accumulation order is BLAS-internal, so GEMMs are never C loops: the
library's ``matmul`` makes the call numpy's ``matmul`` makes for the
same shapes and strides (sgemm, sgemv or sdot, or numpy's own loop when
the inner dimension is 1), through function pointers into the library
numpy itself loaded. A stacked linear input runs one GEMM per slice, as
numpy's stacked ``matmul`` does. Reductions numpy orders its own way
(``avgpool``'s pairwise-summed mean) fall back to the fused kernels.
:func:`supports` is the coverage table backends consult.

Descriptor constants are float32 values stored in ``c_float`` fields,
so they reach C with their bits unchanged; the activation constants of
:mod:`repro.tensor.activations` are prepended to the library source as
C99 hex float literals (:func:`library_units`).
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RendererError
from repro.serve.artifact import ServeArtifact, decode_weight_record
from repro.serve.ir import IRNode
from repro.tensor import activations as act

#: Node kinds the library has templates for (``merge_time`` is a view:
#: no step, no buffer). Anything else (reductions numpy orders its own
#: way, the ``take_last``/``flatten`` views, integer gathers) is served
#: by the fused backend's kernels inside the compiled plan.
NATIVE_KINDS = frozenset({
    "conv", "linear", "add", "batchnorm2d", "batchnorm1d",
    "relu", "relu6", "maxpool", "rnn", "merge_time",
})

#: The BLAS routines numpy's ``matmul`` reaches for float32, in the
#: order the runtime binds them (``repro_bind_blas``).
BLAS_ROUTINES = ("sgemm", "sgemv", "sdot")

#: CBLAS enum values (``cblas.h``).
CBLAS_ROW_MAJOR, CBLAS_COL_MAJOR = 101, 102
CBLAS_NO_TRANS, CBLAS_TRANS = 111, 112

#: Where the library's C sources live (beside this module).
SOURCE_DIR = Path(__file__).parent

#: ``repro_step.op`` codes (``OP_*`` in C).
OP_CONV, OP_LINEAR, OP_ADD, OP_ELTWISE, OP_MAXPOOL, OP_RNN = range(1, 7)

#: Channels shorter than this many floats take an expanded epilogue
#: table (:func:`expand_epilogue`): one 8-float vector spans them.
EXPAND_BELOW = 8

#: The epilogue's activation clamp ``[lo, hi]`` per final activation.
CLAMPS = {None: (-np.inf, np.inf), "relu": (0.0, np.inf),
          "relu6": (0.0, 6.0)}


def c_float(value) -> str:
    """A float32 value as an exact C literal (C99 hex float)."""
    f = float(np.float32(value))
    if f != f:
        return "NAN"
    if f == float("inf"):
        return "INFINITY"
    if f == float("-inf"):
        return "-INFINITY"
    if f == 0.0:
        return "-0.0f" if np.signbit(np.float32(value)) else "0.0f"
    return f"{f.hex()}f"


#: The library's translation units: ``(name, extra flags)``. Each is
#: ``kernels.h`` and ``<name>.c`` after the build's constants; they build
#: side by side and link into one ``.so``. The conv and recurrent units
#: build at ``-O1`` after the probed tier: their hot loops are written on
#: vector types, the tier's ``-ftree-vectorize`` survives the ``-O1`` and
#: vectorizes the glue around them, and ``-O2`` would add ~0.1 s of CPU
#: each to the build (gcc 12) for no measured speed. The dense unit's
#: loops are left to the vectorizer and lose 5-18% of a model's run time
#: at ``-O1``.
LIBRARY_UNITS = (("dense", ()), ("conv", ("-O1",)), ("rnn", ("-O1",)))


@functools.lru_cache(maxsize=None)
def library_units(ilp64: bool) -> Tuple[Tuple[str, str, Tuple[str, ...]],
                                        ...]:
    """The kernel library's units as ``(name, source, extra flags)``:
    the BLAS integer width and the activation constants, then
    ``kernels.h`` and the unit's ``.c``, the same for every model."""
    constants = {"EXP_FLOOR": act.EXP_FLOOR, "LOG2E": act.LOG2E,
                 "LN2_HI": act.LN2_HI, "LN2_LO": act.LN2_LO,
                 "K_FLOOR": act.K_FLOOR, "TANH_SMALL": act.TANH_SMALL,
                 "TANH_CLAMP": act.TANH_CLAMP}
    constants.update((f"EXP_POLY{i}", c) for i, c in enumerate(act.EXP_POLY))
    constants.update((f"TANH_POLY{i}", c)
                     for i, c in enumerate(act.TANH_POLY))
    if len(act.EXP_POLY) != 6 or len(act.TANH_POLY) != 5:
        raise RendererError("rnn.c evaluates a degree-5 exp and a degree-4 "
                            "tanh polynomial")
    lines = ["/* Generated by repro.serve.codegen: the build's constants, "
             "then kernels.h and the unit. */",
             f"typedef {'long long' if ilp64 else 'int'} blasint;"]
    lines += [f"#define ACT_{name} ({c_float(value)})"
              for name, value in constants.items()]
    head = "\n".join(lines) + "\n" + (SOURCE_DIR / "kernels.h").read_text()
    return tuple((name, head + (SOURCE_DIR / f"{name}.c").read_text(), extra)
                 for name, extra in LIBRARY_UNITS)


def supports(node: IRNode) -> bool:
    """Coverage table: can this node run on the native kernel library?

    Conservative by construction — a ``False`` routes the node to the
    (bit-exact) fused kernels, never to an error.
    """
    if node.kind not in NATIVE_KINDS:
        return False
    if node.output_dtype != "float32":
        return False
    if not epilogue_form([e["op"] for e in node.epilogues]):
        return False
    if node.kind == "conv":
        spec = node.spec
        groups = spec["groups"]
        if groups == 1:
            return True
        # Depthwise only: one k*k tap column per channel. General grouped
        # convs keep the reference einsum (its contraction order is not
        # per-element reproducible).
        return (groups == spec["in_channels"] > 1
                and spec["out_channels"] == groups)
    return True


# ----------------------------------------------------------------------
# The descriptors (mirrors of the structs in kernels.h)
# ----------------------------------------------------------------------
class Quant(ctypes.Structure):
    _fields_ = [("on", ctypes.c_int), ("low", ctypes.c_float),
                ("alpha", ctypes.c_float), ("steps", ctypes.c_float)]


class Epilogue(ctypes.Structure):
    _fields_ = [("table", ctypes.c_int), ("expanded", ctypes.c_int),
                ("lo", ctypes.c_float), ("hi", ctypes.c_float)]


def _longs(*names):
    return [(name, ctypes.c_long) for name in names]


def _ints(*names):
    return [(name, ctypes.c_int) for name in names]


class ConvDesc(ctypes.Structure):
    _fields_ = (_longs("cin", "h", "w", "pad", "k", "stride", "oc", "oh",
                       "ow")
                + _ints("depthwise", "x", "wt", "staged", "cols", "gemv",
                        "out")
                + [("q", Quant), ("e", Epilogue)])


class LinearDesc(ctypes.Structure):
    _fields_ = (_longs("features", "outputs", "stack", "m")
                + _ints("x", "wt", "lhs", "out")
                + [("q", Quant), ("e", Epilogue)])


class AddDesc(ctypes.Structure):
    _fields_ = _longs("size") + _ints("relu", "x0", "x1", "out")


class EltwiseDesc(ctypes.Structure):
    _fields_ = (_longs("blocks", "channels", "inner") + _ints("x", "out")
                + [("e", Epilogue)])


class PoolDesc(ctypes.Structure):
    _fields_ = (_longs("c", "h", "w", "k", "stride", "pad", "oh", "ow")
                + _ints("x", "out"))


class RnnDesc(ctypes.Structure):
    _fields_ = (_longs("features", "hidden")
                + _ints("lstm", "x", "y", "wih", "whh", "bih", "bhh", "h0",
                        "c0", "xq", "gi", "hq", "gh", "h", "c")
                + [("q", Quant)])


class Step(ctypes.Structure):
    _fields_ = [("op", ctypes.c_int), ("merged", ctypes.c_int),
                ("node", ctypes.c_void_p)]


# ----------------------------------------------------------------------
# Activation fake-quant and epilogues
# ----------------------------------------------------------------------
class ActQuant:
    """One activation quantizer's constants: the clip range ``[low,
    alpha]`` and the grid ``steps``, which the library's chain (clip ->
    /alpha -> *steps -> round -> /steps -> *alpha, all float32) takes at
    run time, bitwise equal to the reference ufunc sequence.

    ``levels`` holds the SP2 level grid — every representable output,
    computed with the same float32 ufuncs the chain ends with, so
    ``levels[code + offset]`` is bitwise the chain's result for code
    ``code``; tests cross-check the library's chain against it.
    """

    def __init__(self, spec: dict):
        self.alpha = float(spec["alpha"])
        self.signed = bool(spec["signed"])
        bits = spec["bits"]
        self.steps = (2 ** (bits - 1) - 1) if self.signed \
            else (2 ** bits - 1)
        self.low = -self.alpha if self.signed else 0.0
        codes = np.arange(-self.steps if self.signed else 0, self.steps + 1,
                          dtype=np.float32)
        self.levels = codes / np.float32(self.steps) * np.float32(self.alpha)
        self.offset = self.steps if self.signed else 0

    @staticmethod
    def descriptor(quant: Optional["ActQuant"]) -> Quant:
        if quant is None:
            return Quant(0, 0.0, 0.0, 0.0)
        return Quant(1, quant.low, quant.alpha, quant.steps)


def _act(spec: Optional[dict]) -> Optional[ActQuant]:
    return ActQuant(spec) if spec else None


def epilogue_form(ops: Sequence[str]) -> bool:
    """Whether fused epilogue ``ops`` fit the library's one epilogue: at
    most one batch-norm, then any ReLU/ReLU6 (which compose to a single
    clamp). The fusion passes only emit that order."""
    bns = sum(op.startswith("batchnorm") for op in ops)
    return bns <= 1 and all(op in ("relu", "relu6")
                            for op in ops[bns:])


def epilogue_table(node: IRNode, artifact: ServeArtifact, channels: int,
                   bias: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, Optional[str]]:
    """A node's epilogue: its float32 ``(5, channels)`` table (rows bias,
    mean, ``sqrt(var + eps)``, gamma, beta; identity rows -0.0 and 0, 1,
    1, -0.0 for a missing bias or batch-norm) and its final activation
    (``None``, ``"relu"`` or ``"relu6"``).

    Mirrors the fused backend's ``_compile_epilogues`` math exactly —
    including computing the batch-norm denominator ``sqrt(var + eps)``
    with the same numpy ufuncs at compile time. A ReLU6 anywhere in a
    run of activations subsumes the ReLUs around it, bit for bit.
    """
    ops = [epilogue["op"] for epilogue in node.epilogues]
    rows = [np.full(channels, -0.0), np.zeros(channels), np.ones(channels),
            np.ones(channels), np.full(channels, -0.0)]
    if bias is not None:
        rows[0] = bias
    for epilogue in node.epilogues:
        if epilogue["op"].startswith("batchnorm"):
            spec = epilogue["spec"]
            arrays = artifact.arrays
            eps = np.asarray(spec["eps"], dtype=np.float64).astype(np.float32)
            rows[1:] = (arrays[spec["mean"]],
                        np.sqrt(arrays[spec["var"]].ravel() + eps),
                        arrays[spec["gamma"]], arrays[spec["beta"]])
    table = np.ascontiguousarray(np.stack([np.ravel(r) for r in rows]),
                                 dtype=np.float32)
    activation = ("relu6" if "relu6" in ops
                  else "relu" if "relu" in ops else None)
    return table, activation


def expand_epilogue(table: np.ndarray, inner: int
                    ) -> Tuple[np.ndarray, bool]:
    """An epilogue table for channels of ``inner`` floats, and whether
    it is expanded: below :data:`EXPAND_BELOW` floats each channel's
    values repeat ``inner`` times, so the library runs a block of
    channels as one row (see ``struct repro_epilogue``)."""
    if 1 < inner < EXPAND_BELOW:
        return np.repeat(table, inner, axis=1), True
    return table, False


def _epilogue(activation: Optional[str], slot: Dict[str, int],
              expanded: bool = False) -> Epilogue:
    lo, hi = CLAMPS[activation]
    return Epilogue(table=slot["epilogue"], expanded=int(expanded), lo=lo,
                    hi=hi)


# ----------------------------------------------------------------------
# Per-node descriptors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Buffer:
    """A pooled scratch buffer of one node: its pointer-table ``name``,
    the pool ``tag``, its ``shape`` for one batch size, and whether it
    must start zeroed (a padded border is never written)."""

    name: str
    tag: str
    shape: Tuple[int, ...]
    zeroed: bool = False


class NativeOp:
    """One native node: the library steps it runs, with its ``count``
    (the step's leading dimension: ``n``, or ``n * t`` when ``merged``).

    ``tables`` (weights and epilogue tables, bound once) and
    :meth:`buffers` (pooled scratch, bound once per input shape, ending
    with ``"out"``, the node's output: ``row_shape`` per unit of the
    count, or per time step of a ``temporal`` node) fill the
    pointer-table entries the node owns beyond its inputs; ``slots``
    names them in order. BLAS calls per batch are ``blas_calls[0] * n +
    blas_calls[1] * t + blas_calls[2]``.
    A ``temporal`` node (the RNN) runs over the time axis; a ``view``
    has no step and owns no slot.
    """

    temporal = False
    view = False
    blas_calls: Tuple[int, int, int] = (0, 0, 0)

    def __init__(self, node: IRNode, row_shape: Tuple[int, ...]):
        if not supports(node):
            raise RendererError(
                f"node {node.name or node.id} ({node.kind}) is outside "
                "the native coverage table")
        self.node_id = node.id
        self.row_shape = tuple(row_shape)
        self.tables: Dict[str, np.ndarray] = {}

    @property
    def slots(self) -> Tuple[str, ...]:
        return tuple(self.tables) + tuple(b.name for b in self.buffers(1))

    def buffers(self, count: int, t: int = 1) -> List[Buffer]:
        return [Buffer("out", f"out{self.node_id}",
                       (count,) + self.row_shape)]

    def descriptors(self, inputs: Sequence[int], slot: Dict[str, int]
                    ) -> List[Tuple[int, ctypes.Structure]]:
        """``(op, descriptor)`` per library step, for input slots
        ``inputs`` and the node's own ``slot`` indices."""
        raise NotImplementedError


class ConvOp(NativeOp):
    """Conv: quant + zero-pad + im2col or depthwise gather, the GEMM
    through numpy's BLAS, then bias + batch-norm + ReLU.

    The prologue quantizes each input element once, in one pass that
    writes the interior of a zero-bordered pool buffer, and then gathers
    by plain copies. The GEMM is one ``matmul`` per request (``w @
    cols``, numpy's sgemm), or for a depthwise conv one per channel
    (numpy's sgemv over the channel-major columns, as the fused backend
    lays them out).
    """

    def __init__(self, node: IRNode, input_shape: Tuple[int, ...],
                 artifact: ServeArtifact):
        super().__init__(node, node.output_shape)
        spec = node.spec
        self.kernel = spec["kernel"]
        self.stride = spec["stride"]
        self.padding = spec["padding"]
        self.cin, self.h, self.w = input_shape
        self.oc = spec["out_channels"]
        self.oh, self.ow = node.output_shape[1], node.output_shape[2]
        self.depthwise = spec["groups"] != 1
        # Everything but an unpadded stride-1 1x1 conv gathers windows
        # (a pointwise conv's GEMM reads its input as laid out).
        self.gathers = self.depthwise or not (
            self.kernel == 1 and self.stride == 1 and self.padding == 0)
        self.act = _act(spec["act_quant"])
        weight = decode_weight_record(artifact, spec["weight"])
        bias = (artifact.arrays[spec["bias"]]
                if spec["bias"] is not None else None)
        epilogue, self.activation = epilogue_table(node, artifact, self.oc,
                                                   bias)
        # The depthwise epilogue runs over each channel's whole GEMV
        # result, n * oh * ow floats, so it is never expanded.
        self.expanded = False
        if not self.depthwise:
            epilogue, self.expanded = expand_epilogue(epilogue,
                                                      self.oh * self.ow)
        self.tables = {"w": np.ascontiguousarray(weight.reshape(self.oc, -1)),
                       "epilogue": epilogue}
        self.blas_calls = (0, 0, self.cin) if self.depthwise else (1, 0, 0)

    @property
    def stages_input(self) -> bool:
        """Whether the gathering prologue stages its input into the
        pooled zero-bordered buffer (quantizing or padding it) rather
        than gathering straight from ``x``."""
        return self.gathers and (self.act is not None or self.padding > 0)

    def buffers(self, count: int, t: int = 1) -> List[Buffer]:
        k, p, pad = self.kernel, self.oh * self.ow, self.padding
        out: List[Buffer] = []
        if self.stages_input:
            # The pad width keys the pool like the fused backend's padded
            # arenas, which are the same buffers.
            out.append(Buffer("q", f"conv.padded.p{pad}",
                              (count, self.cin, self.h + 2 * pad,
                               self.w + 2 * pad), zeroed=True))
        if self.gathers or self.act is not None:
            out.append(Buffer("cols", "conv.cols",
                              (self.cin, count * p, k * k) if self.depthwise
                              else (count, self.cin * k * k, p)))
        if self.depthwise:
            out.append(Buffer("gemv", "conv.dwout", (self.cin, count * p)))
        return out + super().buffers(count)

    def descriptors(self, inputs, slot):
        return [(OP_CONV, ConvDesc(
            cin=self.cin, h=self.h, w=self.w, pad=self.padding,
            k=self.kernel, stride=self.stride, oc=self.oc, oh=self.oh,
            ow=self.ow, depthwise=int(self.depthwise), x=inputs[0],
            wt=slot["w"], staged=slot.get("q", -1),
            cols=slot.get("cols", -1), gemv=slot.get("gemv", -1),
            out=slot["out"], q=ActQuant.descriptor(self.act),
            e=_epilogue(self.activation, slot, self.expanded)))]


class LinearOp(NativeOp):
    """Linear: activation quant, ``x @ W.T`` through numpy's BLAS, then
    the per-row epilogue.

    A 2-D input (``row_in`` of one dim) is one GEMM over its rows, the
    row count, not the request count: a streamed chunk of a time-merged
    graph carries any number of rows per request. One row runs as a
    duplicated two-row GEMM whose row 0 is kept, exactly as
    ``row_stable_matmul`` pins it. A stacked input runs one GEMM per
    slice of its second-to-last dim, as numpy's stacked ``matmul`` does;
    ahead of a recurrence (``steps``) a request's slice is its time
    steps, whatever their count.
    """

    def __init__(self, node: IRNode, artifact: ServeArtifact,
                 row_in: Tuple[int, ...], row_shape: Tuple[int, ...],
                 steps: bool):
        super().__init__(node, row_shape)
        spec = node.spec
        self.in_features = spec["in_features"]
        self.out_features = spec["out_features"]
        self.act = _act(spec["act_quant"])
        bias = (artifact.arrays[spec["bias"]]
                if spec["bias"] is not None else None)
        epilogue, self.activation = epilogue_table(
            node, artifact, self.out_features, bias)
        #: GEMM slices per unit of the count (0: one GEMM over the count
        #: rows) and rows per slice (0: the time extent).
        if steps:
            self.stack, self.m = 1, 0
        elif len(row_in) > 1:
            self.stack, self.m = int(np.prod(row_in[:-2])), row_in[-2]
        else:
            self.stack, self.m = 0, 0
        self.tables = {"w": decode_weight_record(artifact, spec["weight"]),
                       "epilogue": epilogue}
        self.blas_calls = (self.stack, 0, 0) if self.stack else (0, 0, 1)

    def buffers(self, count: int, t: int = 1) -> List[Buffer]:
        rows = count * self.stack * (self.m or t) if self.stack else count
        rows = max(rows, 2)
        # The GEMM's left operand: the quantized rows, or (unquantized)
        # only the duplicated single row.
        lhs = Buffer("lhs", "linear.lhs",
                     (rows if self.act is not None else 2, self.in_features))
        return [lhs, Buffer("out", f"out{self.node_id}",
                            (rows, self.out_features))]

    def descriptors(self, inputs, slot):
        return [(OP_LINEAR, LinearDesc(
            features=self.in_features, outputs=self.out_features,
            stack=self.stack, m=self.m, x=inputs[0], wt=slot["w"],
            lhs=slot["lhs"], out=slot["out"],
            q=ActQuant.descriptor(self.act),
            e=_epilogue(self.activation, slot)))]


class AddOp(NativeOp):
    """Residual add (+ optional post-ReLU) in one pass."""

    def __init__(self, node: IRNode, row_shape: Tuple[int, ...]):
        super().__init__(node, row_shape)
        self.size = int(np.prod(row_shape))
        self.post_relu = node.spec.get("post") == "relu"

    def descriptors(self, inputs, slot):
        return [(OP_ADD, AddDesc(size=self.size, relu=int(self.post_relu),
                                 x0=inputs[0], x1=inputs[1],
                                 out=slot["out"]))]


class EltwiseOp(NativeOp):
    """Standalone batch-norm / ReLU / ReLU6 node (one the fusion passes
    could not attach to a GEMM) as a single out-of-place pass over
    blocks of ``channels * inner`` elements. The block is the channel
    period, not the request, so a time-merged stream chunk carrying a
    partial request still covers whole blocks."""

    def __init__(self, node: IRNode, artifact: ServeArtifact,
                 row_shape: Tuple[int, ...]):
        super().__init__(node, row_shape)
        shape = node.output_shape
        if node.kind in ("batchnorm2d", "batchnorm1d"):
            self.channels = shape[0] if node.kind == "batchnorm2d" \
                else shape[-1]
            self.inner = (int(np.prod(shape[1:]))
                          if node.kind == "batchnorm2d" else 1)
        else:
            self.channels, self.inner = 1, shape[-1]
        # The node as the epilogue of an identity GEMM.
        probe = IRNode(id=node.id, kind=node.kind, spec={}, inputs=[],
                       output_shape=shape,
                       epilogues=[{"op": node.kind, "spec": node.spec}])
        table, self.activation = epilogue_table(probe, artifact,
                                                self.channels)
        table, self.expanded = expand_epilogue(table, self.inner)
        self.tables = {"epilogue": table}
        # Blocks per unit of the run's leading dimension.
        self.blocks, rest = divmod(int(np.prod(row_shape)),
                                   self.channels * self.inner)
        if rest:
            raise RendererError(
                f"node {node.name or node.id}: rows of shape {row_shape} do "
                f"not tile {self.channels}x{self.inner} channel blocks")

    def descriptors(self, inputs, slot):
        return [(OP_ELTWISE, EltwiseDesc(
            blocks=self.blocks, channels=self.channels, inner=self.inner,
            x=inputs[0], out=slot["out"],
            e=_epilogue(self.activation, slot, self.expanded)))]


class MaxPoolOp(NativeOp):
    """Max pooling: order-independent reduction, so the C loop matches
    numpy's windowed max for every finite and infinite input, bit for
    bit (pads compare as -inf). The compare is NaN-sticky like numpy's
    max: a window holding a NaN yields NaN (the NaN's payload bits are
    not pinned)."""

    def __init__(self, node: IRNode, input_shape: Tuple[int, ...]):
        super().__init__(node, node.output_shape)
        spec = node.spec
        c, h, w = input_shape
        self.desc = dict(c=c, h=h, w=w, k=spec["kernel"],
                         stride=spec["stride"], pad=spec.get("padding", 0),
                         oh=node.output_shape[1], ow=node.output_shape[2])

    def descriptors(self, inputs, slot):
        return [(OP_MAXPOOL, PoolDesc(x=inputs[0], out=slot["out"],
                                      **self.desc))]


class RnnOp(NativeOp):
    """LSTM/GRU: one library step per layer, each running the layer's
    whole time loop.

    Per layer, in the fused kernel's order: activation fake-quant of the
    ``(n*t, in)`` input sequence, the hoisted input GEMM over all ``n*t``
    rows (+ ``b_ih``), then per step the fake-quant of ``h``, the
    recurrent GEMM ``h @ W_hh.T`` (a 1-row ``h`` as the duplicated
    two-row GEMM ``row_stable_matmul`` makes) and the gate and ``c``/``h``
    update with the repo's own sigmoid/tanh, in the reference's op order.
    Layers run to completion one after another, the last writing the
    node's ``(n, t, hidden)`` output. The ``h_in<l>``/``c_in<l>`` slots
    carry a layer's initial state (NULL: zeros) and its ``h<l>``/``c<l>``
    buffers hold the final state after the call, so a stateful run stays
    native.
    """

    temporal = True

    def __init__(self, node: IRNode, artifact: ServeArtifact):
        spec = node.spec
        self.hidden = spec["hidden_size"]
        super().__init__(node, (self.hidden,))
        self.cell = spec["cell"]
        self.gates = (4 if self.cell == "lstm" else 3) * self.hidden
        arrays = artifact.arrays
        self.layers = []
        for index, cell in enumerate(spec["cells"]):
            self.layers.append((cell["input_size"], _act(cell["act_quant"])))
            for name, array in (
                    ("wih", decode_weight_record(artifact, cell["weight_ih"])),
                    ("whh", decode_weight_record(artifact, cell["weight_hh"])),
                    ("bih", arrays[cell["bias_ih"]]),
                    ("bhh", arrays[cell["bias_hh"]])):
                self.tables[f"{name}{index}"] = np.ascontiguousarray(
                    array, dtype=np.float32)
        self.state_keys = ("h", "c") if self.cell == "lstm" else ("h",)
        self.blas_calls = (0, len(self.layers), len(self.layers))

    @property
    def slots(self) -> Tuple[str, ...]:
        states = tuple(f"{key}_in{index}" for index in range(len(self.layers))
                       for key in self.state_keys)
        return tuple(self.tables) + states + tuple(
            b.name for b in self.buffers(1))

    def buffers(self, count: int, t: int = 1) -> List[Buffer]:
        n = count
        rows, hidden, gates = max(n * t, 2), self.hidden, self.gates
        out: List[Buffer] = []
        last = len(self.layers) - 1
        for index, (features, _) in enumerate(self.layers):
            own = f"rnn{self.node_id}.l{index}"
            out += [Buffer(f"xq{index}", "rnn.xq", (rows, features)),
                    Buffer(f"gi{index}", "rnn.gi", (rows, gates)),
                    Buffer(f"hq{index}", "rnn.hq", (max(n, 2), hidden)),
                    Buffer(f"gh{index}", "rnn.gh", (max(n, 2), gates))]
            out += [Buffer(f"{key}{index}", f"{own}.{key}", (n, hidden))
                    for key in self.state_keys]
            if index < last:
                out.append(Buffer(f"y{index}", f"{own}.y", (n, t, hidden)))
        return out + [Buffer("out", f"out{self.node_id}", (n, t, hidden))]

    def descriptors(self, inputs, slot):
        steps = []
        source = inputs[0]
        last = len(self.layers) - 1
        lstm = self.cell == "lstm"
        for index, (features, quant) in enumerate(self.layers):
            target = slot["out"] if index == last else slot[f"y{index}"]
            fields = {name: slot[f"{name}{index}"]
                      for name in ("wih", "whh", "bih", "bhh", "xq", "gi",
                                   "hq", "gh", "h")}
            steps.append((OP_RNN, RnnDesc(
                features=features, hidden=self.hidden, lstm=int(lstm),
                x=source, y=target, h0=slot[f"h_in{index}"],
                c0=slot[f"c_in{index}"] if lstm else -1,
                c=slot[f"c{index}"] if lstm else -1,
                q=ActQuant.descriptor(quant), **fields)))
            source = target
        return steps


class MergeTimeOp(NativeOp):
    """``(n, t, f) -> (n*t, f)``: a view. The nodes after it in the run
    take ``n * t`` as their leading dimension and read the same buffer."""

    view = True


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
class Segment:
    """A run of native nodes as one step table for ``repro_run``.

    ``n`` is the leading dimension of the run's input and ``t`` its time
    extent (its second dimension) when the run holds a ``temporal`` node
    or a time merge, else 1. Nodes after a ``merge_time`` (and the
    time-shaped rows ahead of it) take ``n * t`` as their leading
    dimension. The pointer table ``b`` holds the run's inputs in slots
    ``0 .. len(inputs) - 1`` (the only entries written per call, with a
    recurrent node's initial-state slots), then each node's ``slots`` in
    node order. ``layout`` lists ``(op, input slots, {slot name: index},
    merged)`` per non-view node, ``merged`` telling whether its count is
    ``n * t``. ``steps`` is the descriptor table, built once.
    """

    def __init__(self, segment_id: int,
                 nodes: Sequence[Tuple[NativeOp, Sequence[int], bool]],
                 inputs: Sequence[int]):
        self.segment_id = segment_id
        self.symbol = f"seg{segment_id}"
        self.temporal = any(op.temporal or op.view for op, _, _ in nodes)
        if self.temporal and len(inputs) != 1:
            raise RendererError(
                f"segment {segment_id}: a run over the time axis must have "
                f"one input, not {len(inputs)}")
        where = {node_id: index for index, node_id in enumerate(inputs)}
        self.layout: List[Tuple[NativeOp, Tuple[int, ...], Dict[str, int],
                                bool]] = []
        count = len(inputs)
        for op, sources, merged in nodes:
            if op.view:
                where[op.node_id] = where[sources[0]]
                continue
            slot = {name: count + index
                    for index, name in enumerate(op.slots)}
            count += len(op.slots)
            self.layout.append((op, tuple(where[s] for s in sources), slot,
                                merged))
            where[op.node_id] = slot["out"]
        self.slot_count = count
        #: The run's output: its pointer-table slot, the op writing it and
        #: whether it is read per row of the time merge (``(n * t, ...)``)
        #: rather than per request.
        self.output_slot = where[nodes[-1][0].node_id]
        self.output_op = self.layout[-1][0]
        self.output_merged = any(op.view for op, _, _ in nodes)
        descriptors = [(op_code, desc, merged)
                       for op, inputs_, slot, merged in self.layout
                       for op_code, desc in op.descriptors(inputs_, slot)]
        #: The descriptors the step table points into (kept alive here).
        self.descriptors = [desc for _, desc, _ in descriptors]
        self.steps = (Step * len(descriptors))(*(
            Step(op_code, int(merged), ctypes.addressof(desc))
            for op_code, desc, merged in descriptors))

    def output_shape(self, n: int, t: int) -> Tuple[int, ...]:
        """Shape of the run's output for input leading dims ``(n, t)``."""
        row = self.output_op.row_shape
        if not self.temporal:
            return (n,) + row
        return ((n * t,) if self.output_merged else (n, t)) + row
