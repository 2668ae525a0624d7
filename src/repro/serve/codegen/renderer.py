"""C renderer for the ``compiled`` serving backend.

Walks compiled IR nodes and emits one C translation unit per graph.
Every generated function takes the count of its outermost unit as a
leading ``long n`` argument (requests; rows for linear layers; channel
periods for standalone elementwise nodes), so one library serves every
batch size. Everything else — per-request strides,
spatial bounds, padding widths, quantizer clip constants, SP2 level-grid
entries and epilogue tables — is baked in as a literal, so the compiler
sees static inner loop nests and the runtime performs zero dispatch on
the glue ops.

**Bit-exactness is the design constraint, not speed at any cost.** The
generated kernels cover exactly the ops whose numpy implementations are
per-element IEEE-754 float32 arithmetic in a fixed order (quantizer
chains, bias/batch-norm/ReLU epilogues, window gathers, max-pooling) —
for those, C code compiled with ``-ffp-contract=off -fno-fast-math``
reproduces numpy bit for bit. Reductions whose accumulation order numpy
does not define per element (BLAS GEMMs, pairwise-summed means) are
deliberately *not* rendered: the compiled backend keeps those as the
identical ``np.matmul`` calls on identically laid-out buffers, and ops
like ``avgpool`` fall back to the fused kernels. :func:`supports` is the
coverage table backends consult.

Numerics that make the emitted code exact:

- Constants are printed as C99 hex float literals (``0x1.5bp+3f``) —
  the bits survive the round trip through the compiler unchanged.
- The activation fake-quant ``clip -> /alpha -> *steps -> round ->
  /steps -> *alpha`` chain becomes ``rintf`` (round-half-even, numpy's
  rounding) into a precomputed level-grid lookup: ``levels[k]`` is the
  float32 value code ``k`` reconstructs to, computed by the same numpy
  ufuncs, so the lookup and the chain agree bitwise.
- Padded-conv borders come from a pool buffer zeroed once whose
  interior alone the prologue writes — the fused backend's padded
  arenas (the same pool entries), so gathers never test a bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import RendererError
from repro.serve.artifact import ServeArtifact
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


def _channel_loop(symbol: str, prefix: str, stages: List[dict],
                  channels: int, inner: int, in_place: bool) -> str:
    """An (n, channels, inner) epilogue loop nest, ``n`` a runtime count.

    ``in_place=True`` renders ``void f(long n, float *r)`` updating the
    GEMM output; otherwise ``void f(long n, const float *x, float *r)``
    (standalone batch-norm / ReLU nodes).
    """
    body = _stage_body(prefix, stages)
    sig = "float *r" if in_place else "const float *x, float *r"
    read = "p[j]" if in_place else "q[j]"
    setup = "" if in_place else (
        f"\n      const float *q = x + (o * {channels} + c) * {inner}L;")
    return f"""\
void {symbol}(long n, {sig}) {{
  for (long o = 0; o < n; ++o) {{
    for (long c = 0; c < {channels}L; ++c) {{
      float *p = r + (o * {channels} + c) * {inner}L;{setup}
      for (long j = 0; j < {inner}L; ++j) {{
        float v = {read};
        {body}
        p[j] = v;
      }}
    }}
  }}
}}"""


# ----------------------------------------------------------------------
# Per-node renderers
# ----------------------------------------------------------------------
@dataclass
class CSegment:
    """One node's contribution to the translation unit."""

    source: str
    #: [(binding key, C symbol, pointer-argument count)]
    functions: List[Tuple[tuple, str, int]] = field(default_factory=list)


class ConvRenderer:
    """Conv prologue (quant + zero-pad + im2col or depthwise gather) and
    epilogue (bias + batch-norm + ReLU) around the numpy GEMM.

    The prologue quantizes each input element once, in one pass shared
    by every conv template (:meth:`_stage_pass`) that writes the
    interior of a zero-bordered pool buffer, and then gathers by plain
    copies: no bound tests, fixed trip counts. The GEMM itself is *not*
    rendered: the backend runs the identical ``np.matmul`` on the
    identically laid-out column buffer, keeping the float32 accumulation
    order (and therefore the bits) of the reference backend.
    """

    def __init__(self, node: IRNode, input_shape: Tuple[int, ...],
                 artifact: ServeArtifact):
        if not supports(node):
            raise RendererError(
                f"node {node.name or node.id} ({node.kind}) is outside "
                "the native coverage table")
        spec = node.spec
        self.node_id = node.id
        self.name = node.name or f"conv{node.id}"
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
        bias = (artifact.arrays[spec["bias"]]
                if spec["bias"] is not None else None)
        self.stages = epilogue_stages(node, artifact, bias=bias)

    # -- prologue -------------------------------------------------------
    @staticmethod
    def _pre_head(prefix: str, staged: bool) -> str:
        """Opening of ``void pre(long n, x, [q,] cols)``. The buffers
        are distinct pool entries, so they are ``restrict``: the
        compiler needs no overlap checks (nor code versioned on them)."""
        q = "float *restrict q, " if staged else ""
        return (f"void {prefix}_pre(long n, const float *restrict x, "
                f"{q}float *restrict cols) {{\n")

    def _stage_pass(self, prefix: str, dst: str) -> str:
        """The head of a native prologue whose first statement is the
        one pass over the input, shared by every conv template.

        It writes ``quant(x)`` (or ``x`` itself, for a conv without a
        quantizer) into ``dst``, the interior of a zero-bordered
        ``(n, cin, h + 2*pad, w + 2*pad)`` pool buffer. So each input
        element runs the quant chain exactly once, however many window
        cells it lands in (bitwise identical: the chain is a pure
        per-element function), and the gathers that follow read only
        valid memory and never test a bound. The border is zeroed when
        the buffer is pooled and never written.
        """
        cin, h, w, pad = self.cin, self.h, self.w, self.padding
        hp, wp = self.hp, self.wp
        helper, value = "", "%s"
        if self.act is not None:
            helper = self.act.emit(f"{prefix}_q") + "\n"
            value = f"{prefix}_q(%s)"
        head = helper + self._pre_head(prefix, staged=dst == "q")
        if pad == 0:
            return head + (f"  for (long i = 0; i < n * {cin * h * w}L; "
                           f"++i) {dst}[i] = {value % 'x[i]'};\n")
        return head + f"""\
  for (long c = 0; c < n * {cin}L; ++c)
{ROLLED}
    for (long y = 0; y < {h}L; ++y) {{
      const float *xr = x + (c * {h} + y) * {w}L;
      float *row = {dst} + (c * {hp} + y + {pad}) * {wp}L + {pad};
      for (long j = 0; j < {w}L; ++j) row[j] = {value % 'xr[j]'};
    }}
"""

    @property
    def stages_input(self) -> bool:
        """Whether the gathering prologue stages its input into the
        pooled zero-bordered buffer (quantizing or padding it) rather
        than gathering straight from ``x``."""
        return self.gathers and (self.act is not None or self.padding > 0)

    def _gather_head(self, prefix: str) -> Tuple[str, str]:
        """``(head, source)`` of a gathering prologue: its code up to the
        gather, and the buffer the gather copies from."""
        if not self.stages_input:
            return self._pre_head(prefix, staged=False), "x"
        return self._stage_pass(prefix, "q"), "q"

    def _pre_im2col(self, prefix: str) -> str:
        """Gather into the ``(n, cin*k*k, oh*ow)`` column buffer: every
        cell is a plain copy from the zero-bordered source, so the loop
        nest has fixed trip counts and no branch (a contiguous copy per
        output row at stride 1)."""
        k, s = self.kernel, self.stride
        cin, hp, wp, oh, ow = self.cin, self.hp, self.wp, self.oh, self.ow
        p = oh * ow
        head, src = self._gather_head(prefix)
        return f"""\
{head}  for (long i = 0; i < n * {cin}L; ++i) {{
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
}}"""

    def _pre_depthwise(self, prefix: str) -> str:
        k, s = self.kernel, self.stride
        cin, hp, wp, oh, ow = self.cin, self.hp, self.wp, self.oh, self.ow
        p = oh * ow
        head, src = self._gather_head(prefix)
        return f"""\
{head}  for (long c = 0; c < {cin}L; ++c) {{
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
}}"""

    def _post_depthwise(self, symbol: str, prefix: str) -> str:
        """Epilogue over the channel-major GEMM result ``(cin, n*p)``
        that writes the request-major ``(n, cin, p)`` layout directly —
        folding the transpose every consumer would otherwise pay a
        contiguity copy for into the pass that already touches each
        element. Per-element math is identical to the in-place loop."""
        p = self.oh * self.ow
        body = _stage_body(prefix, self.stages)
        return f"""\
void {symbol}(long n, const float *r, float *out) {{
  for (long c = 0; c < {self.cin}L; ++c) {{
    const float *rc = r + c * n * {p}L;
    for (long i = 0; i < n; ++i) {{
      const float *s = rc + i * {p}L;
      float *d = out + (i * {self.cin} + c) * {p}L;
      for (long j = 0; j < {p}L; ++j) {{
        float v = s[j];
        {body}
        d[j] = v;
      }}
    }}
  }}
}}"""

    # -- render ---------------------------------------------------------
    def render(self) -> CSegment:
        prefix = f"k{self.node_id}"
        parts: List[str] = [f"/* {self.name}: conv "
                            f"{self.cin}x{self.h}x{self.w} -> "
                            f"{self.oc}x{self.oh}x{self.ow} "
                            f"k{self.kernel} s{self.stride} "
                            f"p{self.padding}"
                            f"{' depthwise' if self.depthwise else ''} */"]
        functions: List[Tuple[tuple, str, int]] = []
        pre, post = f"{prefix}_pre", f"{prefix}_post"
        if not self.gathers:
            # The quant pass writes the GEMM's columns directly.
            if self.act is not None:
                parts.append(self._stage_pass(prefix, "cols") + "}")
                functions.append(((self.node_id, "pre"), pre, 2))
        else:
            emit = self._pre_depthwise if self.depthwise \
                else self._pre_im2col
            parts.append(emit(prefix))
            # (x, cols), plus the staged input ``q`` between them.
            functions.append(((self.node_id, "pre"), pre,
                              3 if self.stages_input else 2))
        if self.stages:
            parts.extend(_stage_tables(prefix, self.stages))
            if self.depthwise:
                # Out-of-place: untransposes the channel-major result.
                parts.append(self._post_depthwise(post, prefix))
                functions.append(((self.node_id, "post"), post, 2))
            else:
                parts.append(_channel_loop(
                    post, prefix, self.stages, channels=self.oc,
                    inner=self.oh * self.ow, in_place=True))
                functions.append(((self.node_id, "post"), post, 1))
        return CSegment("\n".join(parts), functions)


class LinearRenderer:
    """Linear prologue (activation quant) and per-row epilogue around the
    numpy ``x @ W.T`` GEMM. Both take the row count, not the request
    count: a streamed chunk of a time-merged graph carries any number of
    rows per request."""

    def __init__(self, node: IRNode, artifact: ServeArtifact):
        spec = node.spec
        self.node_id = node.id
        self.name = node.name or f"linear{node.id}"
        self.in_features = spec["in_features"]
        self.out_features = spec["out_features"]
        self.act = ActQuantC(spec["act_quant"]) if spec["act_quant"] else None
        bias = (artifact.arrays[spec["bias"]]
                if spec["bias"] is not None else None)
        self.stages = epilogue_stages(node, artifact, bias=bias)

    def render(self) -> CSegment:
        prefix = f"k{self.node_id}"
        parts = [f"/* {self.name}: linear {self.in_features} -> "
                 f"{self.out_features} */"]
        functions: List[Tuple[tuple, str, int]] = []
        if self.act is not None:
            sym, pre = f"{prefix}_q", f"{prefix}_pre"
            parts.append(self.act.emit(sym))
            parts.append(f"""\
void {pre}(long n, const float *x, float *xq) {{
  for (long i = 0; i < n * {self.in_features}L; ++i) xq[i] = {sym}(x[i]);
}}""")
            functions.append(((self.node_id, "pre"), pre, 2))
        if self.stages:
            post = f"{prefix}_post"
            parts.extend(_stage_tables(prefix, self.stages))
            parts.append(_channel_loop(post, prefix, self.stages,
                                       channels=self.out_features,
                                       inner=1, in_place=True))
            functions.append(((self.node_id, "post"), post, 1))
        return CSegment("\n".join(parts), functions)


class AddRenderer:
    """Residual add (+ optional post-ReLU) in one pass."""

    def __init__(self, node: IRNode):
        self.node_id = node.id
        self.name = node.name or f"add{node.id}"
        self.size = int(np.prod(node.output_shape))
        self.post_relu = node.spec.get("post") == "relu"

    def render(self) -> CSegment:
        symbol = f"k{self.node_id}_add"
        post = "\n    if (v < 0.0f) v = 0.0f;" if self.post_relu else ""
        label = " + relu" if self.post_relu else ""
        source = f"""\
/* {self.name}: add over {self.size} elements per request{label} */
void {symbol}(long n, const float *a, const float *b, float *out) {{
  for (long i = 0; i < n * {self.size}L; ++i) {{
    float v = a[i] + b[i];{post}
    out[i] = v;
  }}
}}"""
        return CSegment(source, [((self.node_id, "main"), symbol, 3)])


class EltwiseRenderer:
    """Standalone batch-norm / ReLU / ReLU6 node (one the fusion passes
    could not attach to a GEMM) as a single out-of-place pass over ``n``
    blocks of ``channels * inner`` elements. The block is the channel
    period, not the request, so a time-merged stream chunk carrying a
    partial request still covers whole blocks."""

    def __init__(self, node: IRNode, artifact: ServeArtifact):
        self.node_id = node.id
        self.name = node.name or f"{node.kind}{node.id}"
        self.kind = node.kind
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

    def render(self) -> CSegment:
        prefix = f"k{self.node_id}"
        symbol = f"{prefix}_elt"
        parts = [f"/* {self.name}: standalone {self.kind} */"]
        parts.extend(_stage_tables(prefix, self.stages))
        parts.append(_channel_loop(symbol, prefix, self.stages,
                                   channels=self.channels, inner=self.inner,
                                   in_place=False))
        return CSegment("\n".join(parts), [((self.node_id, "main"),
                                            symbol, 2)])


class MaxPoolRenderer:
    """Max pooling: order-independent reduction, so the C loop matches
    numpy's windowed max for every finite and infinite input, bit for
    bit (pads compare as -inf). The compare is NaN-sticky like numpy's
    max: a window holding a NaN yields NaN (the NaN's payload bits are
    not pinned)."""

    def __init__(self, node: IRNode, input_shape: Tuple[int, ...]):
        spec = node.spec
        self.node_id = node.id
        self.name = node.name or f"maxpool{node.id}"
        self.kernel = spec["kernel"]
        self.stride = spec["stride"]
        self.padding = spec.get("padding", 0)
        self.c, self.h, self.w = input_shape
        self.oh, self.ow = node.output_shape[1], node.output_shape[2]

    def render(self) -> CSegment:
        k, s, pad = self.kernel, self.stride, self.padding
        c, h, w, oh, ow = self.c, self.h, self.w, self.oh, self.ow
        symbol = f"k{self.node_id}_pool"
        guard_y = f"if (iy < 0 || iy >= {h}L) continue;" if pad > 0 else ""
        guard_x = f"if (ix < 0 || ix >= {w}L) continue;" if pad > 0 else ""
        source = f"""\
/* {self.name}: maxpool k{k} s{s} p{pad} {c}x{h}x{w} -> {c}x{oh}x{ow} */
void {symbol}(long n, const float *x, float *out) {{
  for (long i = 0; i < n * {c}L; ++i) {{
    const float *xc = x + i * {h * w}L;
    float *oc = out + i * {oh * ow}L;
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
        return CSegment(source, [((self.node_id, "main"), symbol, 2)])


def render_module(segments: List[CSegment], title: str = "graph") -> str:
    """Assemble one translation unit from per-node segments."""
    header = (f"{MODULE_PREAMBLE}\n"
              f"/* {title}: {sum(len(s.functions) for s in segments)} "
              "entry points */\n")
    return header + "\n\n".join(segment.source for segment in segments) + "\n"
