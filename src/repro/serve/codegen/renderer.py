"""C renderer for the ``compiled`` serving backend: numpy's BLAS, called
from C; one call per native run.

Walks compiled IR nodes and emits one C translation unit per graph.
Each maximal run of native nodes becomes one entry point
``seg<id>(long n, long t, void *const *b)`` (:class:`SegmentRenderer`)
that calls one ``static`` function per node in order: stage/gather, then
the node's GEMM through numpy's own BLAS, then the epilogue. ``n`` is the
leading dimension of the run's input (requests, or rows) and ``t`` its
time extent; each node derives its own count from them (``n * t`` after
a time merge); ``b`` is the run's pointer table — run inputs first, then
every node's weights and pooled buffers. A recurrent node's whole time
loop runs in the recurrent library (:func:`rnn_module`), one build
shared by every graph.
Everything else — per-request strides, spatial bounds, padding widths,
quantizer clip constants and epilogue tables — is baked in as a
literal, so the compiler sees static inner loop nests.

**Bit-exactness is the design constraint, not speed at any cost.** The
generated loops cover exactly the ops whose numpy implementations are
per-element IEEE-754 float32 arithmetic in a fixed order (quantizer
chains, bias/batch-norm/ReLU epilogues, window gathers, max-pooling, and
the RNN gates, whose sigmoid/tanh :mod:`repro.tensor.activations`
defines as such a sequence) — for those, C code compiled with
``-ffp-contract=off -fno-fast-math`` reproduces numpy bit for bit.
GEMM accumulation order is BLAS-internal, so GEMMs are never written
as C loops: the generated ``matmul`` makes
the call numpy's ``matmul`` makes for the same shapes and strides
(sgemm, sgemv or sdot, or numpy's own loop when the inner dimension is
1), through function pointers into the library numpy itself loaded
(bound once at load, see :mod:`repro.serve.codegen.runtime`).
Reductions numpy orders its own way (``avgpool``'s pairwise-summed mean)
fall back to the fused kernels. :func:`supports` is the coverage table
backends consult.

Numerics that make the emitted code exact:

- Constants are printed as C99 hex float literals (``0x1.5bp+3f``) —
  the bits survive the round trip through the compiler unchanged.
- The activation fake-quant ``clip -> /alpha -> *steps -> round ->
  /steps -> *alpha`` chain is emitted op for op, rounding half to even
  with a magic constant (bitwise ``np.round`` on the quantizer's range).
- Padded-conv borders come from a pool buffer zeroed once whose
  interior alone the prologue writes — the fused backend's padded
  arenas (the same pool entries), so gathers never test a bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RendererError
from repro.serve.artifact import ServeArtifact, decode_weight_record
from repro.serve.ir import IRNode
from repro.tensor import activations as act

#: Node kinds the renderer has templates for (``merge_time`` is a view:
#: no code, no buffer). Anything else (reductions numpy orders its own
#: way, the ``take_last``/``flatten`` views, integer gathers) is served
#: by the fused backend's kernels inside the compiled plan.
NATIVE_KINDS = frozenset({
    "conv", "linear", "add", "batchnorm2d", "batchnorm1d",
    "relu", "relu6", "maxpool", "rnn", "merge_time",
})

MODULE_PREAMBLE = """\
/* Generated by repro.serve.codegen — one translation unit per graph,
 * batch size a runtime argument. Do not edit; the content hash is the
 * cache key. */
#include <math.h>
"""

#: The BLAS routines numpy's ``matmul`` reaches for float32, in the
#: order the runtime binds them (``repro_bind_blas``).
BLAS_ROUTINES = ("sgemm", "sgemv", "sdot")

#: CBLAS enum values (``cblas.h``).
CBLAS_ROW_MAJOR, CBLAS_COL_MAJOR = 101, 102
CBLAS_NO_TRANS, CBLAS_TRANS = 111, 112

_BLAS_PREAMBLE = """\
/* numpy's BLAS, bound once at load by repro_bind_blas. */
typedef {blasint} blasint;
typedef void (*sgemm_t)(int, int, int, blasint, blasint, blasint, float,
                        const float *, blasint, const float *, blasint,
                        float, float *, blasint);
typedef void (*sgemv_t)(int, int, blasint, blasint, float, const float *,
                        blasint, const float *, blasint, float, float *,
                        blasint);
typedef float (*sdot_t)(blasint, const float *, blasint, const float *,
                        blasint);
static sgemm_t blas_sgemm;
static sgemv_t blas_sgemv;
static sdot_t blas_sdot;

void repro_bind_blas(void *sgemm, void *sgemv, void *sdot) {{
  blas_sgemm = (sgemm_t)sgemm;
  blas_sgemv = (sgemv_t)sgemv;
  blas_sdot = (sdot_t)sdot;
}}

/* c (m x p) = a (m x k) @ b, all C order; b is (k x p), or with bt the
 * transpose of a C-order (p x k) matrix. The route is the one numpy's
 * matmul takes for these shapes and strides (umath/matmul.c.src), so
 * every output element accumulates exactly as np.matmul's does. */
static NOINLINE void matmul(long m, long k, long p, const float *a,
                            const float *b, int bt, float *c) {{
  const long bk = bt ? 1 : p, bp = bt ? k : 1;  /* b's strides */
  if (m == 1 && p == 1) {{  /* row @ column: numpy's dot */
    double sum = 0.0;
    sum += blas_sdot(k, a, 1, b, bk);
    c[0] = (float)sum;
  }} else if (k == 1) {{  /* numpy's own loop */
    for (long i = 0; i < m; ++i)
      for (long j = 0; j < p; ++j) {{
        float acc = 0.0f;
        acc += a[i] * b[j * bp];
        c[i * p + j] = acc;
      }}
  }} else if (m == 1) {{  /* vector @ matrix */
    blas_sgemv(bt ? {col} : {row}, {trans}, k, p, 1.0f, b, bt ? k : p,
               a, 1, 0.0f, c, 1);
  }} else if (p == 1) {{  /* matrix @ vector */
    blas_sgemv({col}, {trans}, k, m, 1.0f, a, k, b, bk, 0.0f, c, 1);
  }} else {{
    blas_sgemm({row}, {no_trans}, bt ? {trans} : {no_trans}, m, p, k,
               1.0f, a, k, b, bt ? k : p, 0.0f, c, p);
  }}
}}
"""


def blas_preamble(ilp64: bool) -> str:
    """The BLAS pointer slots, their load-time setter and ``matmul``."""
    return _BLAS_PREAMBLE.format(
        blasint="long long" if ilp64 else "int", row=CBLAS_ROW_MAJOR,
        col=CBLAS_COL_MAJOR, no_trans=CBLAS_NO_TRANS, trans=CBLAS_TRANS)


def supports(node: IRNode) -> bool:
    """Coverage table: can this node run as a generated native kernel?

    Conservative by construction — a ``False`` routes the node to the
    (bit-exact) fused kernels, never to an error.
    """
    if node.kind not in NATIVE_KINDS:
        return False
    if node.output_dtype != "float32":
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
# Literals
# ----------------------------------------------------------------------
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


def c_array(symbol: str, values: np.ndarray) -> str:
    """``static const float symbol[n] = {...};`` with exact literals."""
    flat = np.asarray(values, dtype=np.float32).ravel()
    body: List[str] = []
    line = "  "
    for value in flat:
        token = c_float(value) + ","
        if len(line) + len(token) > 78:
            body.append(line.rstrip())
            line = "  "
        line += token + " "
    body.append(line.rstrip())
    joined = "\n".join(body)
    return (f"static const float {symbol}[{flat.size}] = {{\n{joined}\n}};")


# ----------------------------------------------------------------------
# Activation fake-quant
# ----------------------------------------------------------------------
#: Round-to-nearest-even magic constant: adding then subtracting
#: ``1.5 * 2**23`` rounds any |v| <= 2**22 float32 to the nearest even
#: integer in one add + one sub (the sum's ulp is exactly 1.0 across the
#: whole range, so the addition itself performs the rounding). Bitwise
#: equal to ``np.round``/``rintf`` for the quantizer's |v| <= steps <=
#: 255 range, but branch-free, libm-free and SIMD-vectorizable.
RNE_MAGIC = "0x1.8p+23f"

#: Keeps the loop after it rolled. The conv prologues' row loops have
#: literal trip counts, and complete peeling of them (k*k taps x rows,
#: each holding a vectorized copy) made a graph compile ~50% slower —
#: set-up time every model pays — and the bloated code ran no faster.
#: Unrolling never changes a result bit; compilers without the pragma
#: ignore it (clang accepts the GCC spelling).
ROLLED = "#pragma GCC unroll 1"


class ActQuantC:
    """Renders one activation quantizer: clip constants baked in, then
    the reference reconstruction chain, bitwise equal to the reference
    ufunc sequence (clip -> /alpha -> *steps -> round -> /steps ->
    *alpha, all float32).

    ``levels`` holds the SP2 level grid — every representable output,
    computed with the same float32 ufuncs the chain ends with, so
    ``levels[code + offset]`` is bitwise the chain's result for code
    ``code``. The emitted code reconstructs through the chain (it
    vectorizes; a table gather does not), and tests cross-check the
    generated kernel against this grid.
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

    def emit(self, symbol: str) -> str:
        # NaN needs no guard: it survives clip (both compares false) and
        # propagates through the arithmetic exactly as numpy's ufuncs do.
        return f"""\
static inline float {symbol}(float v) {{
  if (v < {c_float(self.low)}) v = {c_float(self.low)};
  if (v > {c_float(self.alpha)}) v = {c_float(self.alpha)};
  v = v / {c_float(self.alpha)};
  v = v * {c_float(self.steps)};
  v = (v + {RNE_MAGIC}) - {RNE_MAGIC};  /* round half to even */
  v = v / {c_float(self.steps)};
  v = v * {c_float(self.alpha)};
  return v;
}}"""


# ----------------------------------------------------------------------
# Epilogue stages (bias / batch-norm / ReLU / ReLU6)
# ----------------------------------------------------------------------
def epilogue_stages(node: IRNode, artifact: ServeArtifact,
                    bias: Optional[np.ndarray] = None) -> List[dict]:
    """Per-channel epilogue stage descriptors, in fusion order.

    Mirrors the fused backend's ``_compile_epilogues`` math exactly —
    including computing the batch-norm denominator ``sqrt(var + eps)``
    with the same numpy ufuncs at compile time.
    """
    stages: List[dict] = []
    if bias is not None:
        stages.append({"op": "bias", "bias": np.asarray(bias).ravel()})
    for epilogue in node.epilogues:
        op = epilogue["op"]
        if op in ("batchnorm2d", "batchnorm1d"):
            spec = epilogue["spec"]
            arrays = artifact.arrays
            eps = np.asarray(spec["eps"], dtype=np.float64).astype(np.float32)
            stages.append({
                "op": "batchnorm",
                "mean": arrays[spec["mean"]].ravel(),
                "denom": np.sqrt(arrays[spec["var"]].ravel() + eps),
                "gamma": arrays[spec["gamma"]].ravel(),
                "beta": arrays[spec["beta"]].ravel(),
            })
        elif op in ("relu", "relu6"):
            stages.append({"op": op})
        else:  # pragma: no cover - passes only emit the ops above
            raise RendererError(f"no template for fused epilogue {op!r}")
    return stages


def _stage_tables(prefix: str, stages: List[dict]) -> List[str]:
    tables = []
    for index, stage in enumerate(stages):
        for key, values in stage.items():
            if key != "op":
                tables.append(c_array(f"{prefix}_s{index}_{key}", values))
    return tables


def _stage_body(prefix: str, stages: List[dict], channel: str = "c") -> str:
    """Per-element statements applying every stage to ``v`` in order."""
    lines = []
    for index, stage in enumerate(stages):
        op = stage["op"]
        sym = f"{prefix}_s{index}"
        if op == "bias":
            lines.append(f"v = v + {sym}_bias[{channel}];")
        elif op == "batchnorm":
            lines.append(f"v = v - {sym}_mean[{channel}];")
            lines.append(f"v = v / {sym}_denom[{channel}];")
            lines.append(f"v = v * {sym}_gamma[{channel}];")
            lines.append(f"v = v + {sym}_beta[{channel}];")
        elif op == "relu":
            lines.append("if (v < 0.0f) v = 0.0f;")
        elif op == "relu6":
            lines.append("if (v < 0.0f) v = 0.0f;")
            lines.append("if (v > 6.0f) v = 6.0f;")
        else:  # pragma: no cover
            raise RendererError(f"no template for stage {op!r}")
    return "\n        ".join(lines)


def _channel_loop(prefix: str, stages: List[dict], count: str,
                  channels: int, inner: int, src: str, dst: str) -> str:
    """Statements applying ``stages`` over a ``(count, channels, inner)``
    block, reading ``src`` and writing ``dst`` (in place when they are
    the same pointer: the GEMM epilogues)."""
    body = _stage_body(prefix, stages)
    read = "d[j]" if src == dst else "s[j]"
    setup = "" if src == dst else (
        f"\n      const float *s = {src} + (o * {channels} + c) * {inner}L;")
    return f"""\
  for (long o = 0; o < {count}; ++o)
    for (long c = 0; c < {channels}L; ++c) {{
      float *d = {dst} + (o * {channels} + c) * {inner}L;{setup}
      for (long j = 0; j < {inner}L; ++j) {{
        float v = {read};
        {body}
        d[j] = v;
      }}
    }}
"""


def _function(symbol: str, params: str, body: str) -> str:
    """A ``static`` function the compiler may not inline."""
    return f"static NOINLINE void {symbol}({params}) {{\n{body}}}"


# ----------------------------------------------------------------------
# Per-node renderers
# ----------------------------------------------------------------------
#: Pointer declarations: a node's inputs and the buffers it writes are
#: distinct pool entries, so ``restrict`` spares the compiler overlap
#: checks (and code versioned on them).
CONST_IN = "const float *restrict "
OUT = "float *restrict "


@dataclass(frozen=True)
class Buffer:
    """A pooled scratch buffer of one node: its pointer-table ``name``,
    the pool ``tag``, its ``shape`` for one batch size, and whether it
    must start zeroed (a padded border is never written)."""

    name: str
    tag: str
    shape: Tuple[int, ...]
    zeroed: bool = False


class NodeRenderer:
    """One native node: a ``static void k<id>(long n, void *const *b)``
    called by its segment, ``n`` the node's leading dimension.

    ``slots`` names the pointer-table entries the node owns beyond its
    inputs: :meth:`constants` (weights, bound once) and :meth:`buffers`
    (pooled scratch, bound once per input shape), ending with ``"out"``,
    the node's output, shaped ``(rows,) + row_shape`` with ``rows >= n``.
    BLAS calls per batch are ``blas_calls[0] * n + blas_calls[1] * t +
    blas_calls[2]``. A ``temporal`` node (the RNN) runs over the time
    axis: its function is ``k<id>(long n, long t, void *const *b)``; a
    ``view`` emits no code and owns no slot.
    """

    slots: Tuple[str, ...] = ("out",)
    blas_calls: Tuple[int, int, int] = (0, 0, 0)
    temporal = False
    view = False

    def __init__(self, node: IRNode, row_shape: Tuple[int, ...]):
        if not supports(node):
            raise RendererError(
                f"node {node.name or node.id} ({node.kind}) is outside "
                "the native coverage table")
        self.node_id = node.id
        self.kind = node.kind
        self.name = node.name or f"{node.kind}{node.id}"
        self.row_shape = tuple(row_shape)

    def constants(self) -> Dict[str, np.ndarray]:
        return {}

    def buffers(self, n: int, t: int = 1) -> List[Buffer]:
        return [Buffer("out", f"out{self.node_id}", (n,) + self.row_shape)]

    def out_shape(self, n: int, t: int) -> Tuple[int, ...]:
        """The node's output for leading dimension ``n`` (and time
        extent ``t``)."""
        return (n,) + self.row_shape

    def emit(self, symbol: str, inputs: Sequence[int],
             slot: Dict[str, int]) -> str:
        raise NotImplementedError

    @staticmethod
    def _head(symbol: str, comment: str,
              pointers: Sequence[Tuple[str, str, int]]) -> str:
        """Comment, signature and one ``type *name = b[slot];`` per
        pointer."""
        lines = [f"/* {comment} */",
                 f"static NOINLINE void {symbol}(long n, void *const *b) {{"]
        lines.extend(f"  {ctype}{name} = b[{index}];"
                     for ctype, name, index in pointers)
        return "\n".join(lines) + "\n"


class ConvRenderer(NodeRenderer):
    """Conv: quant + zero-pad + im2col or depthwise gather, the GEMM
    through numpy's BLAS, then bias + batch-norm + ReLU.

    The prologue quantizes each input element once, in one pass shared
    by both gather templates (:meth:`_stage_pass`) that writes the
    interior of a zero-bordered pool buffer, and then gathers by plain
    copies: no bound tests, fixed trip counts. The GEMM is one
    ``matmul`` per request (``w @ cols``, numpy's sgemm), or for a
    depthwise conv one per channel (numpy's sgemv over the
    channel-major columns, as the fused backend lays them out).
    """

    def __init__(self, node: IRNode, input_shape: Tuple[int, ...],
                 artifact: ServeArtifact):
        super().__init__(node, node.output_shape)
        spec = node.spec
        self.kernel = spec["kernel"]
        self.stride = spec["stride"]
        self.padding = spec["padding"]
        self.cin, self.h, self.w = input_shape
        # The padded plane the gathers read.
        self.hp = self.h + 2 * self.padding
        self.wp = self.w + 2 * self.padding
        self.oc = spec["out_channels"]
        self.oh, self.ow = node.output_shape[1], node.output_shape[2]
        self.depthwise = spec["groups"] != 1
        # Everything but an unpadded stride-1 1x1 conv gathers windows
        # (a pointwise conv's GEMM reads its input as laid out).
        self.gathers = self.depthwise or not (
            self.kernel == 1 and self.stride == 1 and self.padding == 0)
        self.act = ActQuantC(spec["act_quant"]) if spec["act_quant"] else None
        weight = decode_weight_record(artifact, spec["weight"])
        self.weight = np.ascontiguousarray(weight.reshape(self.oc, -1))
        bias = (artifact.arrays[spec["bias"]]
                if spec["bias"] is not None else None)
        self.stages = epilogue_stages(node, artifact, bias=bias)
        slots = ["w"]
        if self.stages_input:
            slots.append("q")
        if self.gathers or self.act is not None:
            slots.append("cols")
        if self.depthwise:
            slots.append("gemv")
        self.slots = tuple(slots) + ("out",)
        self.blas_calls = (0, 0, self.cin) if self.depthwise else (1, 0, 0)

    @property
    def stages_input(self) -> bool:
        """Whether the gathering prologue stages its input into the
        pooled zero-bordered buffer (quantizing or padding it) rather
        than gathering straight from ``x``."""
        return self.gathers and (self.act is not None or self.padding > 0)

    def constants(self) -> Dict[str, np.ndarray]:
        return {"w": self.weight}

    def buffers(self, n: int, t: int = 1) -> List[Buffer]:
        k, p = self.kernel, self.oh * self.ow
        out: List[Buffer] = []
        if self.stages_input:
            # The pad width keys the pool like the fused backend's padded
            # arenas, which are the same buffers.
            out.append(Buffer("q", f"conv.padded.p{self.padding}",
                              (n, self.cin, self.hp, self.wp), zeroed=True))
        if "cols" in self.slots:
            out.append(Buffer("cols", "conv.cols",
                              (self.cin, n * p, k * k) if self.depthwise
                              else (n, self.cin * k * k, p)))
        if self.depthwise:
            out.append(Buffer("gemv", "conv.dwout", (self.cin, n * p)))
        return out + super().buffers(n)

    def _stage_pass(self, symbol: str, dst: str) -> str:
        """The one pass over the input, shared by every conv template.

        It writes ``quant(x)`` (or ``x`` itself, for a conv without a
        quantizer) into ``dst``: the interior of a zero-bordered
        ``(n, cin, h + 2*pad, w + 2*pad)`` pool buffer, or a pointwise
        conv's GEMM columns. So each input element runs the quant chain
        exactly once, however many window cells it lands in (bitwise
        identical: the chain is a pure per-element function), and the
        gathers that follow read only valid memory and never test a
        bound. The border is zeroed when the buffer is pooled and never
        written.
        """
        cin, h, w, pad = self.cin, self.h, self.w, self.padding
        hp, wp = self.hp, self.wp
        value = f"{symbol}_q(%s)" if self.act is not None else "%s"
        if pad == 0:
            return (f"  for (long i = 0; i < n * {cin * h * w}L; "
                    f"++i) {dst}[i] = {value % 'x[i]'};\n")
        return f"""\
  for (long c = 0; c < n * {cin}L; ++c)
{ROLLED}
    for (long y = 0; y < {h}L; ++y) {{
      const float *xr = x + (c * {h} + y) * {w}L;
      float *row = {dst} + (c * {hp} + y + {pad}) * {wp}L + {pad};
      for (long j = 0; j < {w}L; ++j) row[j] = {value % 'xr[j]'};
    }}
"""

    def _gather_im2col(self, src: str) -> str:
        """Gather into the ``(n, cin*k*k, oh*ow)`` column buffer: every
        cell is a plain copy from the zero-bordered source, so the loop
        nest has fixed trip counts and no branch (a contiguous copy per
        output row at stride 1)."""
        k, s = self.kernel, self.stride
        cin, hp, wp, oh, ow = self.cin, self.hp, self.wp, self.oh, self.ow
        p = oh * ow
        return f"""\
  for (long i = 0; i < n * {cin}L; ++i) {{
    const float *sc = {src} + i * {hp * wp}L;
    float *d = cols + i * {k * k * p}L;
{ROLLED}
    for (long kh = 0; kh < {k}L; ++kh)
{ROLLED}
      for (long kw = 0; kw < {k}L; ++kw) {{
        float *dst = d + (kh * {k} + kw) * {p}L;
{ROLLED}
        for (long oy = 0; oy < {oh}L; ++oy) {{
          const float *srow = sc + (oy * {s} + kh) * {wp}L + kw;
          for (long ox = 0; ox < {ow}L; ++ox)
            dst[oy * {ow} + ox] = srow[ox * {s}];
        }}
      }}
  }}
"""

    def _gather_depthwise(self, src: str) -> str:
        """Gather into the channel-major ``(cin, n*oh*ow, k*k)`` columns
        the per-channel GEMVs read."""
        k, s = self.kernel, self.stride
        cin, hp, wp, oh, ow = self.cin, self.hp, self.wp, self.oh, self.ow
        p = oh * ow
        return f"""\
  for (long c = 0; c < {cin}L; ++c) {{
    float *cc = cols + c * n * {p * k * k}L;
    for (long i = 0; i < n; ++i) {{
      const float *sc = {src} + (i * {cin} + c) * {hp * wp}L;
      float *ci = cc + i * {p * k * k}L;
{ROLLED}
      for (long oy = 0; oy < {oh}L; ++oy)
{ROLLED}
        for (long ox = 0; ox < {ow}L; ++ox) {{
          float *cell = ci + (oy * {ow} + ox) * {k * k}L;
          const float *win = sc + (oy * {s}) * {wp}L + ox * {s};
          for (long kh = 0; kh < {k}L; ++kh)
            for (long kw = 0; kw < {k}L; ++kw)
              cell[kh * {k} + kw] = win[kh * {wp} + kw];
        }}
    }}
  }}
"""

    def _untranspose(self, symbol: str) -> str:
        """Epilogue over the channel-major GEMV result ``(cin, n*p)``
        that writes the request-major ``(n, cin, p)`` output directly,
        folding the transpose into the pass that already touches each
        element. Per-element math is identical to the in-place loop."""
        p = self.oh * self.ow
        body = _stage_body(symbol, self.stages)
        return f"""\
  for (long c = 0; c < {self.cin}L; ++c) {{
    const float *gc = gemv + c * n * {p}L;
    for (long i = 0; i < n; ++i) {{
      const float *s = gc + i * {p}L;
      float *d = r + (i * {self.cin} + c) * {p}L;
      for (long j = 0; j < {p}L; ++j) {{
        float v = s[j];
        {body}
        d[j] = v;
      }}
    }}
  }}
"""

    def emit(self, symbol: str, inputs: Sequence[int],
             slot: Dict[str, int]) -> str:
        k, p = self.kernel, self.oh * self.ow
        f = self.cin * k * k
        comment = (f"{self.name}: conv {self.cin}x{self.h}x{self.w} -> "
                   f"{self.oc}x{self.oh}x{self.ow} k{k} s{self.stride} "
                   f"p{self.padding}{' depthwise' if self.depthwise else ''}")
        pointers = [(CONST_IN, "x", inputs[0]), ("const float *", "w",
                                                 slot["w"])]
        pointers.extend((OUT, name, slot[name])
                        for name in ("q", "cols", "gemv") if name in slot)
        pointers.append((OUT, "r", slot["out"]))
        parts = _stage_tables(symbol, self.stages)
        if self.act is not None:
            parts.append(self.act.emit(f"{symbol}_q"))
        # Prologue, GEMM and epilogue stay separate functions: one
        # function holding all three compiles markedly slower.
        prologue = ""
        if self.stages_input:
            prologue = self._stage_pass(symbol, "q")
        elif self.act is not None:
            # A pointwise conv: the quant pass writes the columns.
            prologue = self._stage_pass(symbol, "cols")
        source = "q" if self.stages_input else "x"
        if self.depthwise:
            prologue += self._gather_depthwise(source)
        elif self.gathers:
            prologue += self._gather_im2col(source)
        body = self._head(symbol, comment, pointers)
        if prologue:
            staged = ", q" if "q" in slot else ""
            parts.append(_function(
                f"{symbol}_pre", f"long n, {CONST_IN}x, "
                + (f"{OUT}q, " if staged else "") + f"{OUT}cols", prologue))
            body += f"  {symbol}_pre(n, x{staged}, cols);\n"
        if self.depthwise:
            parts.append(_function(
                f"{symbol}_post", f"long n, {CONST_IN}gemv, {OUT}r",
                self._untranspose(symbol)))
            body += f"""\
  for (long c = 0; c < {self.cin}L; ++c)
    matmul(n * {p}L, {k * k}, 1, cols + c * n * {p * k * k}L,
           w + c * {k * k}L, 0, gemv + c * n * {p}L);
  {symbol}_post(n, gemv, r);
"""
        else:
            columns = "cols" if "cols" in slot else "x"
            body += f"""\
  for (long i = 0; i < n; ++i)
    matmul({self.oc}, {f}, {p}, w, {columns} + i * {f * p}L, 0,
           r + i * {self.oc * p}L);
"""
            if self.stages:
                parts.append(_function(
                    f"{symbol}_post", "long n, float *r",
                    _channel_loop(symbol, self.stages, "n", self.oc, p,
                                  "r", "r")))
                body += f"  {symbol}_post(n, r);\n"
        parts.append(body + "}")
        return "\n".join(parts)


class LinearRenderer(NodeRenderer):
    """Linear: activation quant, ``x @ W.T`` through numpy's BLAS, then
    the per-row epilogue. The count is the row count, not the request
    count: a streamed chunk of a time-merged graph carries any number of
    rows per request. One row runs as a duplicated two-row GEMM whose
    row 0 is kept, exactly as ``row_stable_matmul`` pins it, so a row's
    bits never depend on the row count."""

    slots = ("w", "lhs", "out")
    blas_calls = (0, 0, 1)

    def __init__(self, node: IRNode, artifact: ServeArtifact,
                 row_shape: Tuple[int, ...]):
        super().__init__(node, row_shape)
        spec = node.spec
        self.in_features = spec["in_features"]
        self.out_features = spec["out_features"]
        self.weight = decode_weight_record(artifact, spec["weight"])
        self.act = ActQuantC(spec["act_quant"]) if spec["act_quant"] else None
        bias = (artifact.arrays[spec["bias"]]
                if spec["bias"] is not None else None)
        self.stages = epilogue_stages(node, artifact, bias=bias)

    def constants(self) -> Dict[str, np.ndarray]:
        return {"w": self.weight}

    def buffers(self, n: int, t: int = 1) -> List[Buffer]:
        rows = max(n, 2)
        # The GEMM's left operand: the quantized rows, or (unquantized)
        # only the duplicated single row.
        lhs = Buffer("lhs", "linear.lhs",
                     (rows if self.act is not None else 2, self.in_features))
        return [lhs, Buffer("out", f"out{self.node_id}",
                            (rows, self.out_features))]

    def emit(self, symbol: str, inputs: Sequence[int],
             slot: Dict[str, int]) -> str:
        features = self.in_features
        parts = _stage_tables(symbol, self.stages)
        body = self._head(
            symbol, f"{self.name}: linear {features} -> "
                    f"{self.out_features}",
            [("const float *", "x", inputs[0]), ("const float *", "w",
                                                 slot["w"]),
             ("float *", "a", slot["lhs"]), ("float *", "r", slot["out"])])
        body += "  const float *lhs = x;\n"
        if self.act is not None:
            parts.append(self.act.emit(f"{symbol}_q"))
            body += (f"  for (long i = 0; i < n * {features}L; ++i) "
                     f"a[i] = {symbol}_q(x[i]);\n  lhs = a;\n")
        body += f"""\
  if (n == 1) {{
    for (long j = 0; j < {features}L; ++j) a[{features} + j] = a[j] = lhs[j];
    lhs = a;
  }}
  matmul(n < 2 ? 2 : n, {features}, {self.out_features}, lhs, w, 1, r);
"""
        if self.stages:
            body += _channel_loop(symbol, self.stages, "n",
                                  self.out_features, 1, "r", "r")
        parts.append(body + "}")
        return "\n".join(parts)


class AddRenderer(NodeRenderer):
    """Residual add (+ optional post-ReLU) in one pass."""

    def __init__(self, node: IRNode, row_shape: Tuple[int, ...]):
        super().__init__(node, row_shape)
        self.size = int(np.prod(row_shape))
        self.post_relu = node.spec.get("post") == "relu"

    def emit(self, symbol: str, inputs: Sequence[int],
             slot: Dict[str, int]) -> str:
        post = "\n    if (v < 0.0f) v = 0.0f;" if self.post_relu else ""
        label = " + relu" if self.post_relu else ""
        return self._head(
            symbol, f"{self.name}: add over {self.size} elements per "
                    f"request{label}",
            [(CONST_IN, "x0", inputs[0]), (CONST_IN, "x1", inputs[1]),
             (OUT, "r", slot["out"])]) + f"""\
  for (long i = 0; i < n * {self.size}L; ++i) {{
    float v = x0[i] + x1[i];{post}
    r[i] = v;
  }}
}}"""


class EltwiseRenderer(NodeRenderer):
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
            probe = IRNode(id=node.id, kind=node.kind, spec={}, inputs=[],
                           output_shape=shape,
                           epilogues=[{"op": node.kind, "spec": node.spec}])
            self.stages = epilogue_stages(probe, artifact)
            self.channels = shape[0] if node.kind == "batchnorm2d" \
                else shape[-1]
            self.inner = (int(np.prod(shape[1:]))
                          if node.kind == "batchnorm2d" else 1)
        else:
            self.stages = [{"op": node.kind}]
            self.channels = 1
            self.inner = shape[-1]
        # Blocks per unit of the run's leading dimension.
        self.blocks, rest = divmod(int(np.prod(row_shape)),
                                   self.channels * self.inner)
        if rest:
            raise RendererError(
                f"{self.name}: rows of shape {row_shape} do not tile "
                f"{self.channels}x{self.inner} channel blocks")

    def emit(self, symbol: str, inputs: Sequence[int],
             slot: Dict[str, int]) -> str:
        parts = _stage_tables(symbol, self.stages)
        parts.append(self._head(
            symbol, f"{self.name}: standalone {self.kind}",
            [(CONST_IN, "x", inputs[0]), (OUT, "r", slot["out"])])
            + _channel_loop(symbol, self.stages, f"n * {self.blocks}L",
                            self.channels, self.inner, "x", "r") + "}")
        return "\n".join(parts)


class MaxPoolRenderer(NodeRenderer):
    """Max pooling: order-independent reduction, so the C loop matches
    numpy's windowed max for every finite and infinite input, bit for
    bit (pads compare as -inf). The compare is NaN-sticky like numpy's
    max: a window holding a NaN yields NaN (the NaN's payload bits are
    not pinned)."""

    def __init__(self, node: IRNode, input_shape: Tuple[int, ...]):
        super().__init__(node, node.output_shape)
        spec = node.spec
        self.kernel = spec["kernel"]
        self.stride = spec["stride"]
        self.padding = spec.get("padding", 0)
        self.c, self.h, self.w = input_shape
        self.oh, self.ow = node.output_shape[1], node.output_shape[2]

    def emit(self, symbol: str, inputs: Sequence[int],
             slot: Dict[str, int]) -> str:
        k, s, pad = self.kernel, self.stride, self.padding
        c, h, w, oh, ow = self.c, self.h, self.w, self.oh, self.ow
        guard_y = f"if (iy < 0 || iy >= {h}L) continue;" if pad > 0 else ""
        guard_x = f"if (ix < 0 || ix >= {w}L) continue;" if pad > 0 else ""
        return self._head(
            symbol, f"{self.name}: maxpool k{k} s{s} p{pad} {c}x{h}x{w} "
                    f"-> {c}x{oh}x{ow}",
            [(CONST_IN, "x", inputs[0]), (OUT, "r", slot["out"])]) + f"""\
  for (long i = 0; i < n * {c}L; ++i) {{
    const float *xc = x + i * {h * w}L;
    float *oc = r + i * {oh * ow}L;
    for (long oy = 0; oy < {oh}L; ++oy)
      for (long ox = 0; ox < {ow}L; ++ox) {{
        float m = -INFINITY;
        for (long kh = 0; kh < {k}L; ++kh) {{
          long iy = oy * {s} + kh - {pad};
          {guard_y}
          for (long kw = 0; kw < {k}L; ++kw) {{
            long ix = ox * {s} + kw - {pad};
            {guard_x}
            float v = xc[iy * {w} + ix];
            if (v > m || v != v) m = v;  /* NaN wins, as in numpy */
          }}
        }}
        oc[oy * {ow} + ox] = m;
      }}
  }}
}}"""


# ----------------------------------------------------------------------
# Recurrent layers: the owned gate activations and the time loop
# ----------------------------------------------------------------------
#: Lanes of the vector type the activation loops run on (GNU C vector
#: extensions: element-wise IEEE float32 arithmetic, so each lane gets
#: exactly the scalar sequence's bits).
VECTOR_LANES = 8


def activation_functions(prefix: str) -> str:
    """``<prefix>_sigmoid_v``/``<prefix>_tanh_v(long m, float *v)``,
    applied in place over ``m`` floats: the float32 operation sequences
    :mod:`repro.tensor.activations` defines, statement for statement and
    with its constants, so each returns numpy's bits.

    They are written on an 8-lane vector type, so they run vectorized
    without the compiler's auto-vectorizer (the recurrent library is
    built without it, to keep its build short); a tail shorter than a
    vector is padded with zeros. Selects are bit masks. ``rint`` is the
    round-half-even magic add (exact for |k| <= 2**22; a ``-0.0`` it
    turns into ``+0.0`` only flips the sign of an ``r`` that is itself 0,
    which ``p`` absorbs). ``ldexp`` is two multiplies: by ``2**(k+64)``,
    exact, since the product stays normal, then by ``2**-64``, the one
    rounding ``ldexp`` itself performs. The exponent is clamped before
    its float-to-int conversion, so neither a NaN nor an out-of-range
    value is ever converted.
    """
    f = c_float
    poly = "\n".join(f"  p = p + {f(c)};\n  p = p * r;"
                     for c in act.EXP_POLY[1:-1])
    tpoly = "\n".join(f"  q = q + {f(c)};\n  q = q * z;"
                      for c in act.TANH_POLY[1:])
    small = f(act.TANH_SMALL)
    sel, splat = f"{prefix}_sel", f"{prefix}_splat"
    loops = "\n".join(f"""\
static NOINLINE void {prefix}_{name}_v(long m, float *v) {{
  long i = 0;
  for (; i + {VECTOR_LANES} <= m; i += {VECTOR_LANES}) {{
    vf x;
    __builtin_memcpy(&x, v + i, sizeof x);
    x = {prefix}_{name}(x);
    __builtin_memcpy(v + i, &x, sizeof x);
  }}
  if (i < m) {{
    vf x = {{0}};
    __builtin_memcpy(&x, v + i, (m - i) * sizeof(float));
    x = {prefix}_{name}(x);
    __builtin_memcpy(v + i, &x, (m - i) * sizeof(float));
  }}
}}""" for name in ("sigmoid", "tanh"))
    return f"""\
typedef float vf __attribute__((vector_size({4 * VECTOR_LANES})));
typedef int vi __attribute__((vector_size({4 * VECTOR_LANES})));
static inline vf {prefix}_sel(vi m, vf a, vf b) {{  /* m ? a : b */
  return (vf)((m & (vi)a) | (~m & (vi)b));
}}
static inline vf {prefix}_splat(float c) {{
  vf v = {{0}};
  return v + c;
}}
static inline vf {prefix}_exp(vf a) {{  /* a <= 0, or NaN */
  a = {sel}(a < {f(act.EXP_FLOOR)}, {splat}({f(act.EXP_FLOOR)}), a);
  vf k = a * {f(act.LOG2E)};
  k = (k + {RNE_MAGIC}) - {RNE_MAGIC};  /* rint */
  vf r = a - k * {f(act.LN2_HI)};
  r = r - k * {f(act.LN2_LO)};
  vf p = r * {f(act.EXP_POLY[0])};
{poly}
  p = p + {f(act.EXP_POLY[-1])};
  p = p * (r * r);
  p = p + r;
  p = p + 1.0f;
  vf kc = {sel}(k > {f(act.K_FLOOR)}, k, {splat}({f(act.K_FLOOR)}));
  vi scale = (__builtin_convertvector(kc, vi) + 191) << 23;  /* 2**(k+64) */
  return (p * (vf)scale) * 0x1p-64f;
}}
static inline vf {prefix}_sigmoid(vf x) {{
  vf e = {prefix}_exp(-(vf)((vi)x & 0x7fffffff));
  vf num = {prefix}_sel(x >= 0.0f, {prefix}_splat(1.0f), e);
  return num / (e + 1.0f);
}}
static inline vf {prefix}_tanh(vf x) {{
  vf a = (vf)((vi)x & 0x7fffffff);
  vf s = {prefix}_sel(x < -{small}, {prefix}_splat(-{small}), x);
  s = {prefix}_sel(s > {small}, {prefix}_splat({small}), s);
  vf z = s * s;
  vf q = z * {f(act.TANH_POLY[0])};
{tpoly}
  q = q * s;
  q = q + s;
  vf b = {sel}(a > {f(act.TANH_CLAMP)}, {splat}({f(act.TANH_CLAMP)}), a);
  vf e = {prefix}_exp(b * -2.0f);
  vf big = 1.0f - e;
  big = big / (e + 1.0f);
  vf t = {prefix}_sel(a < {small}, q, big);
  /* copysign */
  return (vf)(((vi)t & 0x7fffffff) | ((vi)x & (int)0x80000000u));
}}
{loops}"""


class RnnRenderer(NodeRenderer):
    """LSTM/GRU: every layer's whole time loop, one ``repro_rnn_layer``
    call per layer (see :func:`rnn_module`).

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
    native. The node's function only fills the argument block: shapes,
    quantizer constants and buffer addresses.
    """

    temporal = True

    def __init__(self, node: IRNode, artifact: ServeArtifact):
        super().__init__(node, node.output_shape)
        spec = node.spec
        self.cell = spec["cell"]
        self.hidden = spec["hidden_size"]
        self.gates = (4 if self.cell == "lstm" else 3) * self.hidden
        arrays = artifact.arrays
        self.layers = []
        for cell in spec["cells"]:
            self.layers.append({
                "features": cell["input_size"],
                "wih": np.ascontiguousarray(decode_weight_record(
                    artifact, cell["weight_ih"]), dtype=np.float32),
                "whh": np.ascontiguousarray(decode_weight_record(
                    artifact, cell["weight_hh"]), dtype=np.float32),
                "bih": np.ascontiguousarray(arrays[cell["bias_ih"]],
                                            dtype=np.float32),
                "bhh": np.ascontiguousarray(arrays[cell["bias_hh"]],
                                            dtype=np.float32),
                "act": (ActQuantC(cell["act_quant"]) if cell["act_quant"]
                        else None),
            })
        self.state_keys = ("h", "c") if self.cell == "lstm" else ("h",)
        slots: List[str] = []
        for index in range(len(self.layers)):
            slots.extend(f"{name}{index}" for name in ("wih", "whh", "bih",
                                                       "bhh"))
            slots.extend(f"{key}_in{index}" for key in self.state_keys)
            slots.extend(f"{name}{index}" for name in ("xq", "gi", "hq",
                                                       "gh"))
            slots.extend(f"{key}{index}" for key in self.state_keys)
            if index < len(self.layers) - 1:
                slots.append(f"y{index}")
        self.slots = tuple(slots) + ("out",)
        self.blas_calls = (0, len(self.layers), len(self.layers))

    def constants(self) -> Dict[str, np.ndarray]:
        return {f"{name}{index}": layer[name]
                for index, layer in enumerate(self.layers)
                for name in ("wih", "whh", "bih", "bhh")}

    def buffers(self, n: int, t: int = 1) -> List[Buffer]:
        rows, hidden, gates = max(n * t, 2), self.hidden, self.gates
        out: List[Buffer] = []
        last = len(self.layers) - 1
        for index, layer in enumerate(self.layers):
            own = f"rnn{self.node_id}.l{index}"
            out += [Buffer(f"xq{index}", "rnn.xq", (rows, layer["features"])),
                    Buffer(f"gi{index}", "rnn.gi", (rows, gates)),
                    Buffer(f"hq{index}", "rnn.hq", (max(n, 2), hidden)),
                    Buffer(f"gh{index}", "rnn.gh", (max(n, 2), gates))]
            out += [Buffer(f"{key}{index}", f"{own}.{key}", (n, hidden))
                    for key in self.state_keys]
            if index < last:
                out.append(Buffer(f"y{index}", f"{own}.y", (n, t, hidden)))
        return out + [Buffer("out", f"out{self.node_id}", (n, t, hidden))]

    def out_shape(self, n: int, t: int) -> Tuple[int, ...]:
        return (n, t, self.hidden)

    def emit(self, symbol: str, inputs: Sequence[int],
             slot: Dict[str, int]) -> str:
        lines = [f"/* {self.name}: {self.cell} x{len(self.layers)} layers, "
                 f"hidden {self.hidden}: every time loop in "
                 "repro_rnn_layer */",
                 f"static NOINLINE void {symbol}(long n, long t, "
                 "void *const *b) {",
                 "  struct repro_rnn L = {0};",
                 f"  L.n = n; L.t = t; L.hidden = {self.hidden}; "
                 f"L.lstm = {int(self.cell == 'lstm')};"]
        source = f"b[{inputs[0]}]"
        last = len(self.layers) - 1
        for index, layer in enumerate(self.layers):
            act = layer["act"]
            lines.append(f"  L.features = {layer['features']}; "
                         f"L.quant = {int(act is not None)};")
            if act is not None:
                lines.append(f"  L.low = {c_float(act.low)}; "
                             f"L.alpha = {c_float(act.alpha)}; "
                             f"L.steps = {c_float(act.steps)};")
            target = slot["out"] if index == last else slot[f"y{index}"]
            fields = [("x", source), ("y", f"b[{target}]")]
            fields += [(name, f"b[{slot[f'{name}{index}']}]")
                       for name in ("wih", "whh", "bih", "bhh", "xq", "gi",
                                    "hq", "gh")]
            fields += [(f"{key}0", f"b[{slot[f'{key}_in{index}']}]")
                       for key in self.state_keys]
            fields += [(key, f"b[{slot[f'{key}{index}']}]")
                       for key in self.state_keys]
            lines.extend(f"  L.{name} = {value};" for name, value in fields)
            lines.append("  rnn_layer(&L);")
            source = f"b[{target}]"
        return "\n".join(lines) + "\n}"


#: The argument block of ``repro_rnn_layer``, shared by the recurrent
#: library and the graphs that call it.
RNN_STRUCT = """\
struct repro_rnn {
  long n, t, features, hidden;
  int lstm, quant;  /* cell kind; fake-quant of x and h */
  float low, alpha, steps;  /* the quantizer's clip range and grid */
  const float *x, *wih, *whh, *bih, *bhh, *h0, *c0;  /* h0/c0: NULL = 0 */
  float *xq, *gi, *hq, *gh, *h, *c, *y;
};
typedef void (*rnn_layer_t)(const struct repro_rnn *);
"""

_RNN_LIBRARY = """\
/* The fake-quant chain of ActQuantC with run-time constants. */
static NOINLINE void rnn_quant(long m, const float *restrict x,
                               float *restrict r, float low, float alpha,
                               float steps) {{
  for (long i = 0; i < m; ++i) {{
    float v = x[i];
    if (v < low) v = low;
    if (v > alpha) v = alpha;
    v = v / alpha;
    v = v * steps;
    v = (v + {rne}) - {rne};
    v = v / steps;
    v = v * alpha;
    r[i] = v;
  }}
}}

/* One LSTM step over the n rows: preactivations land in the step's gh
 * row, the activation loops run over its gate spans in place. */
static NOINLINE void lstm_step(long n, long t, long s, long hd,
                               const float *restrict gi,
                               float *restrict gh,
                               const float *restrict bhh,
                               float *restrict h, float *restrict c,
                               float *restrict y) {{
  const long g4 = 4 * hd;
  for (long i = 0; i < n; ++i) {{
    const float *gx = gi + (i * t + s) * g4;
    float *g = gh + i * g4;
    float *hr = h + i * hd, *cr = c + i * hd, *yr = y + (i * t + s) * hd;
    for (long j = 0; j < g4; ++j) g[j] = (gx[j] + g[j]) + bhh[j];
    rnn_sigmoid_v(2 * hd, g);  /* i, f */
    rnn_tanh_v(hd, g + 2 * hd);  /* g */
    rnn_sigmoid_v(hd, g + 3 * hd);  /* o */
    for (long j = 0; j < hd; ++j) {{
      float fc = g[hd + j] * cr[j];
      float ig = g[j] * g[2 * hd + j];
      cr[j] = fc + ig;
      g[2 * hd + j] = cr[j];
    }}
    rnn_tanh_v(hd, g + 2 * hd);  /* tanh(c) */
    for (long j = 0; j < hd; ++j) {{
      float hn = g[3 * hd + j] * g[2 * hd + j];
      hr[j] = hn;
      yr[j] = hn;
    }}
  }}
}}

/* One GRU step, the same way. */
static NOINLINE void gru_step(long n, long t, long s, long hd,
                              const float *restrict gi, float *restrict gh,
                              const float *restrict bhh, float *restrict h,
                              float *restrict y) {{
  const long g3 = 3 * hd;
  for (long i = 0; i < n; ++i) {{
    const float *gx = gi + (i * t + s) * g3;
    float *g = gh + i * g3;
    float *hr = h + i * hd, *yr = y + (i * t + s) * hd;
    for (long j = 0; j < g3; ++j) g[j] = g[j] + bhh[j];
    for (long j = 0; j < 2 * hd; ++j) g[j] = gx[j] + g[j];
    rnn_sigmoid_v(2 * hd, g);  /* r, z */
    for (long j = 0; j < hd; ++j)
      g[2 * hd + j] = gx[2 * hd + j] + g[j] * g[2 * hd + j];
    rnn_tanh_v(hd, g + 2 * hd);  /* n */
    for (long j = 0; j < hd; ++j) {{
      float zh = g[hd + j] * hr[j];
      float onez = 1.0f - g[hd + j];
      float hn = onez * g[2 * hd + j];
      hn = hn + zh;
      hr[j] = hn;
      yr[j] = hn;
    }}
  }}
}}

/* One layer over an (n, t, features) sequence, in the fused kernel's
 * order: fake-quant of the sequence, the hoisted input GEMM over its
 * n*t rows (+ b_ih), then per step the fake-quant of h, the recurrent
 * GEMM (a 1-row h as the duplicated two-row GEMM row_stable_matmul
 * makes) and the gates. h (and c) end holding the final state. */
void repro_rnn_layer(const struct repro_rnn *L) {{
  const long n = L->n, t = L->t, f = L->features, hd = L->hidden;
  const long gates = (L->lstm ? 4 : 3) * hd, rows = n * t;
  float *restrict xq = L->xq, *restrict gi = L->gi, *restrict hq = L->hq;
  float *restrict h = L->h, *restrict c = L->c;
  const float *lhs = L->x;
  if (L->quant) {{
    rnn_quant(rows * f, L->x, xq, L->low, L->alpha, L->steps);
    lhs = xq;
  }}
  if (rows == 1) {{
    for (long j = 0; j < f; ++j) xq[f + j] = xq[j] = lhs[j];
    lhs = xq;
  }}
  matmul(rows < 2 ? 2 : rows, f, gates, lhs, L->wih, 1, gi);
  for (long i = 0; i < rows; ++i)
    for (long j = 0; j < gates; ++j)
      gi[i * gates + j] = gi[i * gates + j] + L->bih[j];
  for (long i = 0; i < n * hd; ++i) {{
    h[i] = L->h0 ? L->h0[i] : 0.0f;
    if (L->lstm) c[i] = L->c0 ? L->c0[i] : 0.0f;
  }}
  for (long s = 0; s < t; ++s) {{
    const float *hl = h;
    if (L->quant) {{
      rnn_quant(n * hd, h, hq, L->low, L->alpha, L->steps);
      hl = hq;
    }}
    if (n == 1) {{
      for (long j = 0; j < hd; ++j) hq[hd + j] = hq[j] = hl[j];
      hl = hq;
    }}
    matmul(n < 2 ? 2 : n, hd, gates, hl, L->whh, 1, L->gh);
    if (L->lstm)
      lstm_step(n, t, s, hd, gi, L->gh, L->bhh, h, c, L->y);
    else
      gru_step(n, t, s, hd, gi, L->gh, L->bhh, h, L->y);
  }}
}}
"""


def rnn_module(ilp64: bool = True) -> str:
    """The recurrent library: ``repro_rnn_layer`` over run-time shapes and
    quantizer constants, with the owned activations and numpy's BLAS. Its
    source is the same for every model, so one build (cached by content
    hash) serves every recurrent graph of a process; each graph library
    gets its address bound at load (``repro_bind_rnn``)."""
    return (f"{MODULE_PREAMBLE}#define NOINLINE __attribute__((noinline))"
            f"\n\n{blas_preamble(ilp64)}\n{RNN_STRUCT}\n"
            f"{activation_functions('rnn')}\n\n"
            + _RNN_LIBRARY.format(rne=RNE_MAGIC))


#: Extra flags of the recurrent library's build (after the probed ones,
#: so its ``-O`` wins). Its hot loops are written on vector types, and
#: this build runs beside the graph build, on a recurrent deployment's
#: setup path. The probed tier's explicit ``-ftree-vectorize`` survives
#: the later ``-O1`` and pays: it vectorizes the glue loops around the
#: gates, so lstm_lm and gru_speech run 1.2-1.4x faster at batch 8/16
#: (equal at batch 1) for ~0.1 s more build (gcc 12). The whole tier
#: would add ~0.2 s of build and no speed.
RNN_CFLAGS = ("-O1",)


#: Goes ahead of the segments of a graph with recurrent nodes: the slot
#: they call the recurrent library's layer loop through.
RNN_BINDING = RNN_STRUCT + """\
/* The recurrent library's layer loop, bound once at load. */
static rnn_layer_t rnn_layer;

void repro_bind_rnn(void *layer) {
  rnn_layer = (rnn_layer_t)layer;
}
"""


class MergeTimeRenderer(NodeRenderer):
    """``(n, t, f) -> (n*t, f)``: a view. The nodes after it in the run
    take ``n * t`` as their leading dimension and read the same buffer."""

    slots = ()
    view = True

    def emit(self, symbol: str, inputs: Sequence[int],
             slot: Dict[str, int]) -> str:
        return ""


# ----------------------------------------------------------------------
# Segments and the module
# ----------------------------------------------------------------------
class SegmentRenderer:
    """A run of native nodes as one entry point
    ``seg<id>(long n, long t, void *const *b)`` that calls each node's
    function in order.

    ``n`` is the leading dimension of the run's input and ``t`` its time
    extent (its second dimension) when the run holds a ``temporal`` node
    or a time merge, else 1. Nodes after a ``merge_time`` take ``n * t``
    as their leading dimension. The pointer table ``b`` holds the run's
    inputs in slots ``0 .. len(inputs) - 1`` (the only entries written
    per call, with a recurrent node's initial-state slots), then each
    node's ``slots`` in node order. ``layout`` lists ``(renderer, input
    slots, {slot name: index}, merged)`` per non-view node, ``merged``
    telling whether it runs after the time merge.
    """

    def __init__(self, segment_id: int,
                 nodes: Sequence[Tuple[NodeRenderer, Sequence[int]]],
                 inputs: Sequence[int]):
        self.segment_id = segment_id
        self.symbol = f"seg{segment_id}"
        self.temporal = any(r.temporal or r.view for r, _ in nodes)
        #: Whether the run calls the recurrent library.
        self.recurrent = any(r.temporal for r, _ in nodes)
        if self.temporal and len(inputs) != 1:
            raise RendererError(
                f"segment {segment_id}: a run over the time axis must have "
                f"one input, not {len(inputs)}")
        where = {node_id: index for index, node_id in enumerate(inputs)}
        self.layout: List[Tuple[NodeRenderer, Tuple[int, ...],
                                Dict[str, int], bool]] = []
        count = len(inputs)
        merged = False
        for renderer, sources in nodes:
            if renderer.view:
                where[renderer.node_id] = where[sources[0]]
                merged = True
                continue
            slot = {name: count + index
                    for index, name in enumerate(renderer.slots)}
            count += len(renderer.slots)
            self.layout.append((renderer, tuple(where[s] for s in sources),
                                slot, merged))
            where[renderer.node_id] = slot["out"]
        self.slot_count = count
        last = nodes[-1][0]
        #: The run's output: its pointer-table slot and whether it is
        #: read with the merged (``n * t``) leading dimension.
        self.output_slot = where[last.node_id]
        self.output_merged = merged
        self.output_renderer = last

    def output_shape(self, n: int, t: int) -> Tuple[int, ...]:
        """Shape of the run's output for input leading dims ``(n, t)``."""
        last = self.output_renderer
        if last.temporal:
            return last.out_shape(n, t)
        return last.out_shape(n * t if self.output_merged else n, t)

    def render(self) -> str:
        parts = [renderer.emit(f"k{renderer.node_id}", inputs, slot)
                 for renderer, inputs, slot, _ in self.layout]
        calls = []
        for renderer, _, _, merged in self.layout:
            count = "n, t" if renderer.temporal else (
                "n * t" if merged else "n")
            calls.append(f"  k{renderer.node_id}({count}, b);")
        parts.append(f"""\
/* segment {self.segment_id}: {len(self.layout)} nodes, one call per batch */
void {self.symbol}(long n, long t, void *const *b) {{
  if (n <= 0 || t <= 0) return;
{chr(10).join(calls)}
}}""")
        return "\n\n".join(parts)


def render_module(segments: Sequence[str], title: str = "graph",
                  ilp64: bool = True) -> str:
    """Assemble one translation unit from rendered segments."""
    header = (f"{MODULE_PREAMBLE}#define NOINLINE __attribute__((noinline))"
              f"\n\n{blas_preamble(ilp64)}\n"
              f"/* {title}: {len(segments)} segments */\n")
    return header + "\n\n".join(segments) + "\n"
