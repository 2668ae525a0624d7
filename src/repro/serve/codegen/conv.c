/* The kernel library's conv unit: stage pass, im2col or depthwise
 * gather, the GEMMs and the epilogue. */

/* fake_quant on the lanes of a vector (see VECTOR_TYPE in kernels.h). */
#define VECTOR_QUANT(W)                                                 \
  INLINE v##W quant##W(v##W v, float low, float alpha, float steps) {  \
    v = clamp##W(v, low, alpha);                                        \
    v = v / alpha;                                                      \
    v = v * steps;                                                      \
    v = (v + RNE) - RNE;                                                \
    v = v / steps;                                                      \
    v = v * alpha;                                                      \
    return v;                                                           \
  }
VECTOR_QUANT(8)
VECTOR_QUANT(4)
#define QUANT(W, v) quant##W(v, low, alpha, steps)

/* s[0], s[2], s[4], s[6] (reading no further). */
INLINE v4 load4_even(const float *s) {
  return __builtin_shufflevector(load4(s), load4(s + 3), 0, 2, 5, 7);
}

/* How a row of len floats at a stride moves: as exactly 4, 8 or 16
 * floats, in 8- or 4-float vectors, as 4-float vectors of every other
 * float, or float by float. */
enum { ROW_4, ROW_8, ROW_16, ROW_V8, ROW_V4, ROW_EVEN4, ROW_SCALAR };

INLINE int row_kind(long len, long stride) {
  if (stride == 2 && len >= 4) return ROW_EVEN4;
  if (stride != 1 || len < 4) return ROW_SCALAR;
  if (len == 4 || len == 8 || len == 16)
    return len == 4 ? ROW_4 : len == 8 ? ROW_8 : ROW_16;
  return len > 8 ? ROW_V8 : ROW_V4;
}

/* d[j] = s[j * stride] over len floats, moved as kind says (a literal
 * at the calls that run in a loop, so the loop holds no branch). */
INLINE void copy_row_as(int kind, float *restrict d, const float *restrict s,
                        long len, long stride) {
  switch (kind) {
  case ROW_4:
    store4(d, load4(s));
    break;
  case ROW_8:
    store8(d, load8(s));
    break;
  case ROW_16:
    store8(d, load8(s));
    store8(d + 8, load8(s + 8));
    break;
  case ROW_V8:
    CHUNKS(8, d, s, len, SAME);
    break;
  case ROW_V4:
    CHUNKS(4, d, s, len, SAME);
    break;
  case ROW_EVEN4:
    for (long j = 0; j + 4 < len; j += 4) store4(d + j, load4_even(s + 2 * j));
    store4(d + len - 4, load4_even(s + 2 * (len - 4)));
    break;
  default:
    for (long j = 0; j < len; ++j) d[j] = s[j * stride];
  }
}

INLINE void copy_row(float *restrict d, const float *restrict s, long len,
                     long stride) {
  copy_row_as(row_kind(len, stride), d, s, len, stride);
}

/* d[j] = quant(s[j]) (or s[j]) over len floats. */
INLINE void stage_row(struct repro_quant q, const float *restrict s,
                      float *restrict d, long len) {
  const float low = q.low, alpha = q.alpha, steps = q.steps;
  if (!q.on)
    copy_row(d, s, len, 1);
  else if (len >= 8)
    CHUNKS(8, d, s, len, QUANT);
  else if (len >= 4)
    CHUNKS(4, d, s, len, QUANT);
  else
    for (long j = 0; j < len; ++j) d[j] = fake_quant(s[j], low, alpha, steps);
}

/* The one pass over the input: quant(x) (or x) into the interior of the
 * zero-bordered (n, cin, h + 2 pad, w + 2 pad) staging plane, or (pad 0)
 * into dst as laid out. Each input element runs the quant chain once
 * however many windows it lands in; the border is zeroed when the buffer
 * is pooled and never written, so the gathers never test a bound. */
static NOINLINE SCALAR void conv_stage(const struct repro_conv *d, long n,
                                       const float *restrict x,
                                       float *restrict dst) {
  const long h = d->h, w = d->w, pad = d->pad;
  const long hp = h + 2 * pad, wp = w + 2 * pad;
  const struct repro_quant q = d->q;  /* dst may alias d */
  if (pad == 0) {  /* staged only to quantize */
    repro_fake_quant(n * d->cin * h * w, x, dst, q.low, q.alpha, q.steps);
    return;
  }
  for (long c = 0; c < n * d->cin; ++c)
    for (long y = 0; y < h; ++y)
      stage_row(q, x + (c * h + y) * w, dst + (c * hp + y + pad) * wp + pad,
                w);
}

/* Gather into the (n, cin*k*k, oh*ow) columns: every cell is a plain
 * copy from the zero-bordered source, the destination written in order
 * (a row order that rewrote three column blocks at once ran at half the
 * speed). kind is a literal at every call (see copy_row_as). */
INLINE void im2col(const struct repro_conv *d, long n, int kind,
                   const float *restrict src, float *restrict cols) {
  const long k = d->k, s = d->stride, oh = d->oh, ow = d->ow;
  const long wp = d->w + 2 * d->pad, plane = (d->h + 2 * d->pad) * wp;
  for (long i = 0; i < n * d->cin; ++i)
    for (long kh = 0; kh < k; ++kh)
      for (long kw = 0; kw < k; ++kw) {
        const float *row = src + i * plane + kh * wp + kw;
        for (long oy = 0; oy < oh; ++oy, row += s * wp, cols += ow)
          copy_row_as(kind, cols, row, ow, s);
      }
}

static NOINLINE SCALAR void conv_im2col(const struct repro_conv *d, long n,
                                        const float *restrict src,
                                        float *restrict cols) {
  switch (row_kind(d->ow, d->stride)) {
  case ROW_4: im2col(d, n, ROW_4, src, cols); break;
  case ROW_8: im2col(d, n, ROW_8, src, cols); break;
  case ROW_16: im2col(d, n, ROW_16, src, cols); break;
  case ROW_V8: im2col(d, n, ROW_V8, src, cols); break;
  case ROW_V4: im2col(d, n, ROW_V4, src, cols); break;
  case ROW_EVEN4: im2col(d, n, ROW_EVEN4, src, cols); break;
  default: im2col(d, n, ROW_SCALAR, src, cols);
  }
}

/* Gather into the channel-major (cin, n*oh*ow, k*k) columns the
 * per-channel GEMVs read. */
INLINE void dw_gather(const struct repro_conv *d, long n,
                      const float *restrict src, float *restrict cols) {
  const long k = d->k, s = d->stride, oh = d->oh, ow = d->ow, cin = d->cin;
  const long wp = d->w + 2 * d->pad, plane = (d->h + 2 * d->pad) * wp;
  for (long c = 0; c < cin; ++c)
    for (long i = 0; i < n; ++i) {
      const float *sc = src + (i * cin + c) * plane;
      float *cell = cols + (c * n + i) * oh * ow * k * k;
      for (long oy = 0; oy < oh; ++oy)
        for (long ox = 0; ox < ow; ++ox, cell += k * k) {
          const float *win = sc + (oy * s) * wp + ox * s;
          for (long kh = 0; kh < k; ++kh)
            for (long kw = 0; kw < k; ++kw)
              cell[kh * k + kw] = win[kh * wp + kw];
        }
    }
}

/* dw_gather for a 3x3 window: each window row moves as one 4-float
 * vector whose fourth lane lands on the next cell's first float, which
 * the next cell rewrites. A row's last cell moves exactly three floats
 * per window row; every other cell's window rows end inside the staged
 * row, so nothing reads past it. s is a literal at the stride-1 call. */
static NOINLINE SCALAR void dw_gather3(const struct repro_conv *d, long n,
                                       long s, const float *restrict src,
                                       float *restrict cols) {
  const long oh = d->oh, ow = d->ow, cin = d->cin;
  const long wp = d->w + 2 * d->pad, plane = (d->h + 2 * d->pad) * wp;
  for (long c = 0; c < cin; ++c)
    for (long i = 0; i < n; ++i) {
      const float *row = src + (i * cin + c) * plane;
      float *cell = cols + (c * n + i) * oh * ow * 9;
      for (long oy = 0; oy < oh; ++oy, row += s * wp) {
        const float *r = row;
        for (long ox = 0; ox + 1 < ow; ++ox, cell += 9, r += s) {
          store4(cell, load4(r));
          store4(cell + 3, load4(r + wp));
          store4(cell + 6, load4(r + 2 * wp));
        }
        __builtin_memcpy(cell, r, 12);
        __builtin_memcpy(cell + 3, r + wp, 12);
        __builtin_memcpy(cell + 6, r + 2 * wp, 12);
        cell += 9;
      }
    }
}

static NOINLINE SCALAR void conv_depthwise(const struct repro_conv *d,
                                           long n, const float *restrict src,
                                           float *restrict cols) {
  if (d->k == 3 && d->stride == 1)
    dw_gather3(d, n, 1, src, cols);
  else if (d->k == 3)
    dw_gather3(d, n, d->stride, src, cols);
  else
    dw_gather(d, n, src, cols);
}

/* The channel-major GEMV result (cin, n*p) -> the request-major
 * (n, cin, p) output, each request's p floats of a channel moved out.
 * kind is a literal at every call (see copy_row_as). */
INLINE void untranspose(const struct repro_conv *d, long n, int kind,
                        const float *restrict gemv, float *restrict r) {
  const long p = d->oh * d->ow, cin = d->cin;
  for (long c = 0; c < cin; ++c)
    for (long i = 0; i < n; ++i)
      copy_row_as(kind, r + (i * cin + c) * p, gemv + (c * n + i) * p, p, 1);
}

static NOINLINE SCALAR void conv_untranspose(const struct repro_conv *d,
                                             long n,
                                             const float *restrict gemv,
                                             float *restrict r) {
  switch (row_kind(d->oh * d->ow, 1)) {  /* never ROW_EVEN4 */
  case ROW_4: untranspose(d, n, ROW_4, gemv, r); break;
  case ROW_8: untranspose(d, n, ROW_8, gemv, r); break;
  case ROW_16: untranspose(d, n, ROW_16, gemv, r); break;
  case ROW_V8: untranspose(d, n, ROW_V8, gemv, r); break;
  case ROW_V4: untranspose(d, n, ROW_V4, gemv, r); break;
  default: untranspose(d, n, ROW_SCALAR, gemv, r);
  }
}

INTERNAL SCALAR void conv(const struct repro_conv *d, long n,
                         void *const *b) {
  const long k = d->k, p = d->oh * d->ow, f = d->cin * k * k;
  const float *x = b[d->x], *w = b[d->wt];
  float *cols = d->cols >= 0 ? b[d->cols] : 0, *r = b[d->out];
  const float *src = x;
  if (d->staged >= 0) {
    conv_stage(d, n, x, b[d->staged]);
    src = b[d->staged];
  } else if (d->q.on) {
    conv_stage(d, n, x, cols);  /* a pointwise conv: its columns */
  }
  if (d->depthwise) {
    float *gemv = b[d->gemv];
    conv_depthwise(d, n, src, cols);
    for (long c = 0; c < d->cin; ++c)
      matmul(n * p, k * k, 1, cols + c * n * p * k * k, w + c * k * k, 0,
             gemv + c * n * p);
    /* The epilogue in place over each channel's n*p contiguous floats. */
    epilogue(&d->e, b, 1, d->cin, n * p, gemv, gemv);
    conv_untranspose(d, n, gemv, r);
    return;
  }
  if (!(k == 1 && d->stride == 1 && d->pad == 0)) conv_im2col(d, n, src, cols);
  const float *a = cols ? cols : x;
  for (long i = 0; i < n; ++i)
    matmul(d->oc, f, p, w, a + i * f * p, 0, r + i * d->oc * p);
  epilogue(&d->e, b, n, d->oc, p, r, r);
}

