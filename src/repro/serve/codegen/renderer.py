"""C renderer for the ``compiled`` serving backend: numpy's BLAS, called
from C; one call per native run.

Walks compiled IR nodes and emits one C translation unit per graph.
Each maximal run of native nodes becomes one entry point
``seg<id>(long n, void *const *b)`` (:class:`SegmentRenderer`) that
calls one ``static`` function per node in order: stage/gather, then the
node's GEMM through numpy's own BLAS, then the epilogue. ``n`` is the
leading dimension of the run's input (requests; rows after a time merge)
and each node derives its own count from it; ``b`` is the run's pointer
table — run inputs first, then every node's weights and pooled buffers.
Everything else — per-request strides, spatial bounds, padding widths,
quantizer clip constants and epilogue tables — is baked in as a
literal, so the compiler sees static inner loop nests.

**Bit-exactness is the design constraint, not speed at any cost.** The
generated loops cover exactly the ops whose numpy implementations are
per-element IEEE-754 float32 arithmetic in a fixed order (quantizer
chains, bias/batch-norm/ReLU epilogues, window gathers, max-pooling) —
for those, C code compiled with ``-ffp-contract=off -fno-fast-math``
reproduces numpy bit for bit. GEMM accumulation order is BLAS-internal,
so GEMMs are never written as C loops: the generated ``matmul`` makes
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

#: Node kinds the renderer has templates for. Anything else (GEMM-order
#: sensitive reductions, views, recurrent cells, integer gathers) is
#: served by the fused backend's kernels inside the compiled plan.
NATIVE_KINDS = frozenset({
    "conv", "linear", "add", "batchnorm2d", "batchnorm1d",
    "relu", "relu6", "maxpool",
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
    called by its segment.

    ``slots`` names the pointer-table entries the node owns beyond its
    inputs: :meth:`constants` (weights, bound once) and :meth:`buffers`
    (pooled scratch, bound once per batch size), ending with ``"out"``,
    the node's output, shaped ``(rows,) + row_shape`` with ``rows >= n``.
    BLAS calls per batch are ``blas_calls[0] * n + blas_calls[1]``.
    """

    slots: Tuple[str, ...] = ("out",)
    blas_calls: Tuple[int, int] = (0, 0)

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

    def buffers(self, n: int) -> List[Buffer]:
        return [Buffer("out", f"out{self.node_id}", (n,) + self.row_shape)]

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
        self.blas_calls = (0, self.cin) if self.depthwise else (1, 0)

    @property
    def stages_input(self) -> bool:
        """Whether the gathering prologue stages its input into the
        pooled zero-bordered buffer (quantizing or padding it) rather
        than gathering straight from ``x``."""
        return self.gathers and (self.act is not None or self.padding > 0)

    def constants(self) -> Dict[str, np.ndarray]:
        return {"w": self.weight}

    def buffers(self, n: int) -> List[Buffer]:
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
    blas_calls = (0, 1)

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

    def buffers(self, n: int) -> List[Buffer]:
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
# Segments and the module
# ----------------------------------------------------------------------
class SegmentRenderer:
    """A run of native nodes as one entry point
    ``seg<id>(long n, void *const *b)`` that calls each node's function
    in order.

    The pointer table ``b`` holds the run's inputs in slots
    ``0 .. len(inputs) - 1`` (the only entries written per call), then
    each node's ``slots`` in node order. ``layout`` lists
    ``(renderer, input slots, {slot name: index})`` per node.
    """

    def __init__(self, segment_id: int,
                 nodes: Sequence[Tuple[NodeRenderer, Sequence[int]]],
                 inputs: Sequence[int]):
        self.segment_id = segment_id
        self.symbol = f"seg{segment_id}"
        where = {node_id: index for index, node_id in enumerate(inputs)}
        self.layout: List[Tuple[NodeRenderer, Tuple[int, ...],
                                Dict[str, int]]] = []
        count = len(inputs)
        for renderer, sources in nodes:
            slot = {name: count + index
                    for index, name in enumerate(renderer.slots)}
            count += len(renderer.slots)
            self.layout.append((renderer, tuple(where[s] for s in sources),
                                slot))
            where[renderer.node_id] = slot["out"]
        self.slot_count = count

    def render(self) -> str:
        parts = [renderer.emit(f"k{renderer.node_id}", inputs, slot)
                 for renderer, inputs, slot in self.layout]
        calls = "\n".join(f"  k{renderer.node_id}(n, b);"
                          for renderer, _, _ in self.layout)
        parts.append(f"""\
/* segment {self.segment_id}: {len(self.layout)} nodes, one call per batch */
void {self.symbol}(long n, void *const *b) {{
  if (n <= 0) return;
{calls}
}}""")
        return "\n\n".join(parts)


def render_module(segments: Sequence[str], title: str = "graph",
                  ilp64: bool = True) -> str:
    """Assemble one translation unit from rendered segments."""
    header = (f"{MODULE_PREAMBLE}#define NOINLINE __attribute__((noinline))"
              f"\n\n{blas_preamble(ilp64)}\n"
              f"/* {title}: {len(segments)} segments */\n")
    return header + "\n\n".join(segments) + "\n"
