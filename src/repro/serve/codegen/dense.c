/* The kernel library's dense unit: numpy's BLAS and matmul, the
 * quantizer and epilogue passes, linear, add, standalone epilogues,
 * max-pool, and the entry point. */

/* ---------------------------------------------------------------------
 * numpy's BLAS
 * ------------------------------------------------------------------- */
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

enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };

void repro_bind_blas(void *sgemm, void *sgemv, void *sdot) {
  blas_sgemm = (sgemm_t)sgemm;
  blas_sgemv = (sgemv_t)sgemv;
  blas_sdot = (sdot_t)sdot;
}

/* c (m x p) = a (m x k) @ b, all C order; b is (k x p), or with bt the
 * transpose of a C-order (p x k) matrix. The route is the one numpy's
 * matmul takes for these shapes and strides (umath/matmul.c.src), so
 * every output element accumulates exactly as np.matmul's does. */
INTERNAL NOINLINE SCALAR void matmul(long m, long k, long p, const float *a,
                              const float *b, int bt, float *c) {
  const long bk = bt ? 1 : p, bp = bt ? k : 1;  /* b's strides */
  if (m == 1 && p == 1) {  /* row @ column: numpy's dot */
    double sum = 0.0;
    sum += blas_sdot(k, a, 1, b, bk);
    c[0] = (float)sum;
  } else if (k == 1) {  /* numpy's own loop */
    for (long i = 0; i < m; ++i)
      for (long j = 0; j < p; ++j) {
        float acc = 0.0f;
        acc += a[i] * b[j * bp];
        c[i * p + j] = acc;
      }
  } else if (m == 1) {  /* vector @ matrix */
    blas_sgemv(bt ? COL_MAJOR : ROW_MAJOR, TRANS, k, p, 1.0f, b, bt ? k : p,
               a, 1, 0.0f, c, 1);
  } else if (p == 1) {  /* matrix @ vector */
    blas_sgemv(COL_MAJOR, TRANS, k, m, 1.0f, a, k, b, bk, 0.0f, c, 1);
  } else {
    blas_sgemm(ROW_MAJOR, NO_TRANS, bt ? TRANS : NO_TRANS, m, p, k, 1.0f, a,
               k, b, bt ? k : p, 0.0f, c, p);
  }
}

/* ---------------------------------------------------------------------
 * Fake-quant and epilogue passes
 * ------------------------------------------------------------------- */
/* r[i] = fake_quant(x[i]) over m floats. */
void repro_fake_quant(long m, const float *restrict x, float *restrict r,
                      float low, float alpha, float steps) {
  for (long i = 0; i < m; ++i) r[i] = fake_quant(x[i], low, alpha, steps);
}

/* The epilogue over a (count, channels, inner) block, src -> dst (the
 * same pointer: in place). */
INTERNAL NOINLINE COPIES void epilogue(const struct repro_epilogue *e,
                                       void *const *b, long count,
                                       long channels, long inner,
                                       const float *src, float *dst) {
  if (e->expanded) {
    channels *= inner;
    inner = 1;
  }
  if (inner == 1) {
    for (long o = 0; o < count; ++o)
      epilogue_row(e, b, channels, src + o * channels, dst + o * channels,
                   channels);
    return;
  }
  const float *t = b[e->table];
  for (long o = 0; o < count; ++o)
    for (long c = 0; c < channels; ++c) {
      const long at = (o * channels + c) * inner;
      epilogue_span(channel_stages(e, t, channels, c), src + at, dst + at,
                    inner);
    }
}

/* ---------------------------------------------------------------------
 * Linear, add, standalone epilogue, max-pool (see kernels.h)
 * ------------------------------------------------------------------- */
static SCALAR void linear(const struct repro_linear *d, long count, long t,
                          void *const *b) {
  const long f = d->features, o = d->outputs;
  const long m = d->stack ? (d->m ? d->m : t) : count;
  const long slices = d->stack ? count * d->stack : 1, rows = slices * m;
  const float *lhs = b[d->x];
  float *a = b[d->lhs], *r = b[d->out];
  if (d->q.on) {
    repro_fake_quant(rows * f, lhs, a, d->q.low, d->q.alpha, d->q.steps);
    lhs = a;
  }
  if (!d->stack) {
    if (rows == 1) {
      for (long j = 0; j < f; ++j) a[f + j] = a[j] = lhs[j];
      lhs = a;
    }
    matmul(rows < 2 ? 2 : rows, f, o, lhs, b[d->wt], 1, r);
  } else {
    for (long i = 0; i < slices; ++i)
      matmul(m, f, o, lhs + i * m * f, b[d->wt], 1, r + i * m * o);
  }
  epilogue(&d->e, b, rows, o, 1, r, r);
}

static NOINLINE void add(const struct repro_add *d, long n, void *const *b) {
  const float *restrict x0 = b[d->x0], *restrict x1 = b[d->x1];
  float *restrict r = b[d->out];
  if (d->relu)
    for (long i = 0; i < n * d->size; ++i) {
      float v = x0[i] + x1[i];
      if (v < 0.0f) v = 0.0f;
      r[i] = v;
    }
  else
    for (long i = 0; i < n * d->size; ++i) r[i] = x0[i] + x1[i];
}

static SCALAR void eltwise(const struct repro_eltwise *d, long n,
                           void *const *b) {
  epilogue(&d->e, b, n * d->blocks, d->channels, d->inner, b[d->x],
           b[d->out]);
}

static NOINLINE SCALAR void maxpool(const struct repro_pool *d, long n,
                                    void *const *b) {
  const long h = d->h, w = d->w, k = d->k, s = d->stride, pad = d->pad;
  const long oh = d->oh, ow = d->ow;
  const float *restrict x = b[d->x];
  float *restrict r = b[d->out];
  for (long i = 0; i < n * d->c; ++i) {
    const float *xc = x + i * h * w;
    float *oc = r + i * oh * ow;
    for (long oy = 0; oy < oh; ++oy)
      for (long ox = 0; ox < ow; ++ox) {
        float m = -INFINITY;
        for (long kh = 0; kh < k; ++kh) {
          const long iy = oy * s + kh - pad;
          if (iy < 0 || iy >= h) continue;
          for (long kw = 0; kw < k; ++kw) {
            const long ix = ox * s + kw - pad;
            if (ix < 0 || ix >= w) continue;
            const float v = xc[iy * w + ix];
            if (v > m || v != v) m = v;  /* NaN wins, as in numpy */
          }
        }
        oc[oy * ow + ox] = m;
      }
  }
}

/* ---------------------------------------------------------------------
 * The entry point
 * ------------------------------------------------------------------- */
/* One batch through a run of native nodes: every step in order. */
SCALAR void repro_run(const struct repro_step *steps, long count, long n,
                      long t, void *const *b) {
  if (n <= 0 || t <= 0) return;
  for (long i = 0; i < count; ++i) {
    const struct repro_step *s = steps + i;
    const long rows = s->merged ? n * t : n;
    switch (s->op) {
    case OP_CONV: conv(s->node, rows, b); break;
    case OP_LINEAR: linear(s->node, rows, t, b); break;
    case OP_ADD: add(s->node, rows, b); break;
    case OP_ELTWISE: eltwise(s->node, rows, b); break;
    case OP_MAXPOOL: maxpool(s->node, rows, b); break;
    case OP_RNN: rnn_layer(s->node, n, t, b); break;
    }
  }
}
