/* The kernel library's recurrent unit: the owned gate activations and
 * the LSTM/GRU time loop. */
/* The float32 sequences of repro.tensor.activations, statement for
 * statement, on an 8-lane vector type (GNU C vector extensions:
 * element-wise IEEE arithmetic, so each lane gets the scalar bits).
 * Selects are bit masks; rint is the magic add (exact for |k| <= 2**22;
 * a -0.0 it turns into +0.0 only flips the sign of an r that is itself
 * 0, which p absorbs). ldexp is two multiplies: by 2**(k+64), exact,
 * then by 2**-64, the one rounding ldexp itself performs. The exponent
 * is clamped before its float-to-int conversion, so neither a NaN nor
 * an out-of-range value is ever converted. */
#define LANES 8
typedef float vf __attribute__((vector_size(4 * LANES)));
typedef int vi __attribute__((vector_size(4 * LANES)));

INLINE vf sel(vi m, vf a, vf b) {  /* m ? a : b */
  return (vf)((m & (vi)a) | (~m & (vi)b));
}

INLINE vf splat(float c) {
  vf v = {0};
  return v + c;
}

INLINE vf exp_nonpositive(vf a) {  /* a <= 0, or NaN */
  a = sel(a < ACT_EXP_FLOOR, splat(ACT_EXP_FLOOR), a);
  vf k = a * ACT_LOG2E;
  k = (k + RNE) - RNE;  /* rint */
  vf r = a - k * ACT_LN2_HI;
  r = r - k * ACT_LN2_LO;
  vf p = r * ACT_EXP_POLY0;
  p = p + ACT_EXP_POLY1;
  p = p * r;
  p = p + ACT_EXP_POLY2;
  p = p * r;
  p = p + ACT_EXP_POLY3;
  p = p * r;
  p = p + ACT_EXP_POLY4;
  p = p * r;
  p = p + ACT_EXP_POLY5;
  p = p * (r * r);
  p = p + r;
  p = p + 1.0f;
  vf kc = sel(k > ACT_K_FLOOR, k, splat(ACT_K_FLOOR));
  vi scale = (__builtin_convertvector(kc, vi) + 191) << 23;  /* 2**(k+64) */
  return (p * (vf)scale) * 0x1p-64f;
}

INLINE vf sigmoid(vf x) {
  vf e = exp_nonpositive(-(vf)((vi)x & 0x7fffffff));
  vf num = sel(x >= 0.0f, splat(1.0f), e);
  return num / (e + 1.0f);
}

INLINE vf tanh_(vf x) {
  vf a = (vf)((vi)x & 0x7fffffff);
  vf s = sel(x < -ACT_TANH_SMALL, splat(-ACT_TANH_SMALL), x);
  s = sel(s > ACT_TANH_SMALL, splat(ACT_TANH_SMALL), s);
  vf z = s * s;
  vf q = z * ACT_TANH_POLY0;
  q = q + ACT_TANH_POLY1;
  q = q * z;
  q = q + ACT_TANH_POLY2;
  q = q * z;
  q = q + ACT_TANH_POLY3;
  q = q * z;
  q = q + ACT_TANH_POLY4;
  q = q * z;
  q = q * s;
  q = q + s;
  vf bounded = sel(a > ACT_TANH_CLAMP, splat(ACT_TANH_CLAMP), a);
  vf e = exp_nonpositive(bounded * -2.0f);
  vf big = 1.0f - e;
  big = big / (e + 1.0f);
  vf t = sel(a < ACT_TANH_SMALL, q, big);
  /* copysign */
  return (vf)(((vi)t & 0x7fffffff) | ((vi)x & (int)0x80000000u));
}

/* v[i] = sigmoid(v[i]) (or tanh) in place over m floats, a vector at a
 * time; a tail shorter than a vector is padded with zeros. */
#define VECTOR_LOOP(name, fn)                                     \
  NOINLINE void name(long m, float *v) {                          \
    for (long i = 0; i < m; i += LANES) {                         \
      const int whole = i + LANES <= m;                           \
      vf x = {0};                                                 \
      if (whole)                                                  \
        __builtin_memcpy(&x, v + i, sizeof x);                    \
      else                                                        \
        __builtin_memcpy(&x, v + i, (m - i) * sizeof(float));     \
      x = fn(x);                                                  \
      if (whole)                                                  \
        __builtin_memcpy(v + i, &x, sizeof x);                    \
      else                                                        \
        __builtin_memcpy(v + i, &x, (m - i) * sizeof(float));     \
    }                                                             \
  }
VECTOR_LOOP(repro_sigmoid, sigmoid)
VECTOR_LOOP(repro_tanh, tanh_)

/* One LSTM step over the n rows: preactivations land in the step's gh
 * row, the activation loops run over its gate spans in place. */
static NOINLINE void lstm_step(long n, long t, long s, long hd,
                               const float *restrict gi,
                               float *restrict gh,
                               const float *restrict bhh,
                               float *restrict h, float *restrict c,
                               float *restrict y) {
  const long g4 = 4 * hd;
  for (long i = 0; i < n; ++i) {
    const float *gx = gi + (i * t + s) * g4;
    float *g = gh + i * g4;
    float *hr = h + i * hd, *cr = c + i * hd, *yr = y + (i * t + s) * hd;
    for (long j = 0; j < g4; ++j) g[j] = (gx[j] + g[j]) + bhh[j];
    repro_sigmoid(2 * hd, g);  /* i, f */
    repro_tanh(hd, g + 2 * hd);  /* g */
    repro_sigmoid(hd, g + 3 * hd);  /* o */
    for (long j = 0; j < hd; ++j) {
      float fc = g[hd + j] * cr[j];
      float ig = g[j] * g[2 * hd + j];
      cr[j] = fc + ig;
      g[2 * hd + j] = cr[j];
    }
    repro_tanh(hd, g + 2 * hd);  /* tanh(c) */
    for (long j = 0; j < hd; ++j) {
      float hn = g[3 * hd + j] * g[2 * hd + j];
      hr[j] = hn;
      yr[j] = hn;
    }
  }
}

/* One GRU step, the same way. */
static NOINLINE void gru_step(long n, long t, long s, long hd,
                              const float *restrict gi, float *restrict gh,
                              const float *restrict bhh, float *restrict h,
                              float *restrict y) {
  const long g3 = 3 * hd;
  for (long i = 0; i < n; ++i) {
    const float *gx = gi + (i * t + s) * g3;
    float *g = gh + i * g3;
    float *hr = h + i * hd, *yr = y + (i * t + s) * hd;
    for (long j = 0; j < g3; ++j) g[j] = g[j] + bhh[j];
    for (long j = 0; j < 2 * hd; ++j) g[j] = gx[j] + g[j];
    repro_sigmoid(2 * hd, g);  /* r, z */
    for (long j = 0; j < hd; ++j)
      g[2 * hd + j] = gx[2 * hd + j] + g[j] * g[2 * hd + j];
    repro_tanh(hd, g + 2 * hd);  /* n */
    for (long j = 0; j < hd; ++j) {
      float zh = g[hd + j] * hr[j];
      float onez = 1.0f - g[hd + j];
      float hn = onez * g[2 * hd + j];
      hn = hn + zh;
      hr[j] = hn;
      yr[j] = hn;
    }
  }
}

/* a[i, j] += bias[j] over rows rows of cols floats. */
static NOINLINE void add_bias(long rows, long cols, float *restrict a,
                              const float *restrict bias) {
  for (long i = 0; i < rows; ++i)
    for (long j = 0; j < cols; ++j)
      a[i * cols + j] = a[i * cols + j] + bias[j];
}

/* In the fused kernel's order: fake-quant of the sequence, the hoisted
 * input GEMM over its n*t rows (+ b_ih), then per step the fake-quant of
 * h, the recurrent GEMM (a 1-row h as the duplicated two-row GEMM
 * row_stable_matmul makes) and the gates. The rest is glue, hence
 * SCALAR: the hot loops (add_bias, the steps) keep the vectorizer. */
INTERNAL NOINLINE SCALAR void rnn_layer(const struct repro_rnn *d, long n,
                                        long t, void *const *b) {
  const long f = d->features, hd = d->hidden;
  const long gates = (d->lstm ? 4 : 3) * hd, rows = n * t;
  const struct repro_quant *q = &d->q;
  const float *x = b[d->x], *bih = b[d->bih];
  const float *h0 = b[d->h0], *c0 = d->lstm ? b[d->c0] : 0;
  float *restrict xq = b[d->xq], *restrict gi = b[d->gi];
  float *restrict hq = b[d->hq], *restrict gh = b[d->gh];
  float *restrict h = b[d->h], *restrict c = d->lstm ? b[d->c] : 0;
  float *y = b[d->y];
  const float *lhs = x;
  if (q->on) {
    repro_fake_quant(rows * f, x, xq, q->low, q->alpha, q->steps);
    lhs = xq;
  }
  if (rows == 1) {
    for (long j = 0; j < f; ++j) xq[f + j] = xq[j] = lhs[j];
    lhs = xq;
  }
  matmul(rows < 2 ? 2 : rows, f, gates, lhs, b[d->wih], 1, gi);
  add_bias(rows, gates, gi, bih);
  for (long i = 0; i < n * hd; ++i) {
    h[i] = h0 ? h0[i] : 0.0f;
    if (d->lstm) c[i] = c0 ? c0[i] : 0.0f;
  }
  for (long s = 0; s < t; ++s) {
    const float *hl = h;
    if (q->on) {
      repro_fake_quant(n * hd, h, hq, q->low, q->alpha, q->steps);
      hl = hq;
    }
    if (n == 1) {
      for (long j = 0; j < hd; ++j) hq[hd + j] = hq[j] = hl[j];
      hl = hq;
    }
    matmul(n < 2 ? 2 : n, hd, gates, hl, b[d->whh], 1, gh);
    if (d->lstm)
      lstm_step(n, t, s, hd, gi, gh, b[d->bhh], h, c, y);
    else
      gru_step(n, t, s, hd, gi, gh, b[d->bhh], h, y);
  }
}

