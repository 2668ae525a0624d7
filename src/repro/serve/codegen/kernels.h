/* The kernel library of the compiled serving backend: one build per
 * codegen cache, shared by every graph. This header holds what its
 * units share; the units (dense.c, conv.c, rnn.c) build side by side
 * and link into one shared object.
 *
 * A compiled graph is a table of steps (struct repro_step), one per
 * native node (one per layer of a recurrent node), built in Python by
 * repro.serve.codegen.renderer. repro_run walks the table for one batch:
 * n is the leading dimension of the run's input, t its time extent, and
 * b the run's pointer table (run inputs, then every node's weights,
 * epilogue tables and pooled buffers). Every shape, stride, pad width,
 * quantizer constant and epilogue flag is a run-time field of a step's
 * descriptor; nothing here depends on the model.
 *
 * Bit-exactness is the design constraint. The loops cover exactly the
 * ops whose numpy implementations are per-element IEEE-754 float32
 * arithmetic in a fixed order; built with -ffp-contract=off
 * -fno-fast-math they reproduce numpy bit for bit. GEMMs are never C
 * loops: matmul makes the call numpy's matmul makes for the same shapes
 * and strides, into numpy's own BLAS (bound once at load).
 *
 * The build prepends the BLAS integer type (blasint) and the ACT_*
 * constants of repro.tensor.activations to each unit (see
 * renderer.library_units). */
#include <math.h>

#define NOINLINE __attribute__((noinline))
#define INLINE static inline __attribute__((always_inline))
/* Shared between the units, not exported. */
#define INTERNAL __attribute__((visibility("hidden")))

/* COPIES: copy loops stay loops. A copy of a run-time length would
 * otherwise become a memcpy call (loop-idiom recognition), several times
 * slower than the loop on the short rows a conv gathers. SCALAR adds:
 * no auto-vectorizer. It marks code whose vectors are written out (v4)
 * or whose loops gain nothing from it: window gathers (gcc would
 * assemble their scattered moves into vectors lane by lane, slower) and
 * glue. It also keeps the library's build short. */
#if defined(__clang__)
#define COPIES __attribute__((no_builtin("memcpy")))
#define SCALAR COPIES
#elif defined(__GNUC__)
#define COPIES __attribute__((optimize("no-tree-loop-distribute-patterns")))
#define SCALAR __attribute__((optimize("no-tree-loop-distribute-patterns", \
                                       "no-tree-vectorize")))
#else
#define COPIES
#define SCALAR
#endif

/* Round-to-nearest-even magic constant: adding then subtracting 1.5 *
 * 2**23 rounds any |v| <= 2**22 to the nearest even integer (the sum's
 * ulp is exactly 1.0), bitwise np.round/rintf on the quantizer's range,
 * branch-free and vectorizable. */
#define RNE 0x1.8p+23f

/* ---------------------------------------------------------------------
 * Activation fake-quant and the epilogue
 * ------------------------------------------------------------------- */
/* An activation quantizer: clip to [low, alpha], then the reference
 * reconstruction chain clip -> /alpha -> *steps -> round -> /steps ->
 * *alpha, op for op. NaN survives the clip (both compares are false). */
struct repro_quant {
  int on;
  float low, alpha, steps;
};

INLINE float fake_quant(float v, float low, float alpha, float steps) {
  if (v < low) v = low;
  if (v > alpha) v = alpha;
  v = v / alpha;
  v = v * steps;
  v = (v + RNE) - RNE;  /* round half to even */
  v = v / steps;
  v = v * alpha;
  return v;
}

/* One channel's epilogue (see struct repro_epilogue): its table values
 * and the activation clamp [lo, hi]. */
struct stages {
  float bias, mean, denom, gamma, beta, lo, hi;
};

/* The rows a kernel walks are short (a conv's plane widths, 2 to 16
 * floats), and a loop of run-time length spends more on its set-up than
 * on a short row. So a row moves in 8- or 4-float vectors, the widest
 * that fits (GNU C vectors: element-wise IEEE arithmetic, each lane gets
 * the scalar bits): whole ones, then one ending at the row's end,
 * overlapping the one before. That last vector is loaded first, so a
 * row rewritten in place overlaps with the values it started with. Rows
 * shorter than four floats take a scalar loop. */
#define VECTOR_TYPE(W)                                              \
  typedef float v##W __attribute__((vector_size(4 * W)));           \
  typedef int v##W##i __attribute__((vector_size(4 * W)));         \
  INLINE v##W load##W(const float *s) {                             \
    v##W v;                                                         \
    __builtin_memcpy(&v, s, sizeof v);                              \
    return v;                                                       \
  }                                                                 \
  INLINE void store##W(float *d, v##W v) {                          \
    __builtin_memcpy(d, &v, sizeof v);                              \
  }                                                                 \
  /* c on every lane (an integer add of its bits: exact for -0.0). */ \
  INLINE v##W splat##W(float c) {                                   \
    const v##W##i zero = {0};                                       \
    int bits;                                                       \
    __builtin_memcpy(&bits, &c, sizeof bits);                       \
    return (v##W)(zero + bits);                                     \
  }                                                                 \
  /* if (v < lo) v = lo; if (v > hi) v = hi; on every lane. */      \
  INLINE v##W clamp##W(v##W v, float lo, float hi) {                \
    const v##W l = splat##W(lo), h = splat##W(hi);                  \
    v##W##i m = v < l;                                              \
    v = (v##W)((m & (v##W##i)l) | (~m & (v##W##i)v));               \
    m = v > h;                                                      \
    return (v##W)((m & (v##W##i)h) | (~m & (v##W##i)v));            \
  }                                                                 \
  /* The epilogue stages of one channel (see struct stages). */     \
  INLINE v##W stages##W(v##W v, struct stages k) {                  \
    v = v + k.bias;                                                 \
    v = v - k.mean;                                                 \
    v = v / k.denom;                                                \
    v = v * k.gamma;                                                \
    v = v + k.beta;                                                 \
    return clamp##W(v, k.lo, k.hi);                                 \
  }
VECTOR_TYPE(8)
VECTOR_TYPE(4)

/* len >= W floats s -> d through f, W at a time (see VECTOR_TYPE). */
#define CHUNKS(W, d, s, len, f)                                     \
  do {                                                              \
    const v##W last_ = f(W, load##W((s) + (len) - W));              \
    for (long j_ = 0; j_ + W < (len); j_ += W)                      \
      store##W((d) + j_, f(W, load##W((s) + j_)));                  \
    store##W((d) + (len) - W, last_);                               \
  } while (0)
#define SAME(W, v) (v)
#define STAGES(W, v) stages##W(v, k)

/* A GEMM's epilogue, in fusion order: + bias, batch-norm (- mean,
 * / sqrt(var + eps), * gamma, + beta), then the activation clamp:
 * [0, inf) for a ReLU, [0, 6] for a ReLU6, (-inf, inf) for none (both
 * compares false, so NaN and -0.0 pass unchanged). The table holds five
 * rows of channels floats: bias, mean, denom, gamma and beta. A node
 * without a bias or a batch-norm has identity rows there (-0.0, and 0,
 * 1, 1, -0.0), which change no bit of any value but a signaling NaN.
 * Channels of fewer than eight floats (a conv's 2x2 plane) are too short
 * for a vector apiece: their table is expanded, each value repeated for
 * every float of its channel, and a block runs as one row. */
struct repro_epilogue {
  int table;  /* pointer-table slot */
  int expanded;
  float lo, hi;
};

/* The epilogue over one span of len elements, s -> d (s is d itself or
 * disjoint from it), element j channel j. */
INLINE void epilogue_row(const struct repro_epilogue *e, void *const *b,
                         long channels, const float *s, float *d,
                         long len) {
  const float *t = b[e->table];
  const float lo = e->lo, hi = e->hi;
#pragma GCC ivdep
  for (long j = 0; j < len; ++j) {
    float v = s[j];
    v = v + t[j];
    v = v - t[channels + j];
    v = v / t[2 * channels + j];
    v = v * t[3 * channels + j];
    v = v + t[4 * channels + j];
    if (v < lo) v = lo;
    if (v > hi) v = hi;
    d[j] = v;
  }
}

/* Channel c's stages: its five table values and the clamp. */
INLINE struct stages channel_stages(const struct repro_epilogue *e,
                                    const float *t, long channels, long c) {
  const struct stages k = {t[c], t[channels + c], t[2 * channels + c],
                           t[3 * channels + c], t[4 * channels + c], e->lo,
                           e->hi};
  return k;
}

/* The epilogue of one channel over one span of len elements, s -> d (s
 * is d itself or disjoint from it). */
INLINE void epilogue_span(struct stages k, const float *s, float *d,
                          long len) {
  if (len >= 8) {
    CHUNKS(8, d, s, len, STAGES);
  } else if (len >= 4) {
    CHUNKS(4, d, s, len, STAGES);
  } else {
    for (long j = 0; j < len; ++j) {
      float v = s[j];
      v = v + k.bias;
      v = v - k.mean;
      v = v / k.denom;
      v = v * k.gamma;
      v = v + k.beta;
      if (v < k.lo) v = k.lo;
      if (v > k.hi) v = k.hi;
      d[j] = v;
    }
  }
}

/* ---------------------------------------------------------------------
 * Node descriptors
 * ------------------------------------------------------------------- */
struct repro_conv {
  long cin, h, w, pad, k, stride, oc, oh, ow;
  int depthwise;
  /* Pointer-table slots (-1: none): the input, the (oc, cin*k*k)
   * weights, the zero-bordered staging plane, the gathered columns, the
   * depthwise GEMV result and the output. */
  int x, wt, staged, cols, gemv, out;
  struct repro_quant q;
  struct repro_epilogue e;
};

/* x @ W.T as numpy's matmul computes it for the input's shape: a 2-D
 * input (stack 0) is one GEMM over its rows, one row as the duplicated
 * two-row GEMM row_stable_matmul makes; a stacked input is one GEMM per
 * slice of m rows (m 0: the call's time extent), stack slices per unit
 * of the node's count. */
struct repro_linear {
  long features, outputs, stack, m;
  int x, wt, lhs, out;  /* slots: lhs holds the quantized rows */
  struct repro_quant q;
  struct repro_epilogue e;
};

/* Residual add (+ ReLU) over size floats per unit of the count. */
struct repro_add {
  long size;
  int relu;
  int x0, x1, out;
};

/* A batch-norm / ReLU / ReLU6 node the fusion passes could not attach
 * to a GEMM: the epilogue over blocks of channels * inner floats, blocks
 * per unit of the count (the channel period, not the request). */
struct repro_eltwise {
  long blocks, channels, inner;
  int x, out;
  struct repro_epilogue e;
};

/* Max pooling: order-independent, so it matches numpy's windowed max
 * for every finite and infinite input (pads compare as -inf); a window
 * holding a NaN yields NaN, as numpy's max does. */
struct repro_pool {
  long c, h, w, k, stride, pad, oh, ow;
  int x, out;
};

/* One LSTM/GRU layer over an (n, t, features) sequence. Slots: h0/c0
 * hold the initial state (NULL: zeros), h/c the final state after the
 * call, y the (n, t, hidden) output; c and c0 are -1 for a GRU. */
struct repro_rnn {
  long features, hidden;
  int lstm;
  int x, y, wih, whh, bih, bhh, h0, c0, xq, gi, hq, gh, h, c;
  struct repro_quant q;
};

/* ---------------------------------------------------------------------
 * Across the units
 * ------------------------------------------------------------------- */
enum { OP_CONV = 1, OP_LINEAR, OP_ADD, OP_ELTWISE, OP_MAXPOOL, OP_RNN };

/* One step of a run: its op, whether its count is n * t (it runs after
 * a time merge, or over time-shaped rows) rather than n, and its
 * descriptor (struct repro_conv, ...). */
struct repro_step {
  int op, merged;
  const void *node;
};

INTERNAL void matmul(long m, long k, long p, const float *a, const float *b,
                     int bt, float *c);
void repro_fake_quant(long m, const float *restrict x, float *restrict r,
                      float low, float alpha, float steps);
INTERNAL void epilogue(const struct repro_epilogue *e, void *const *b,
                       long count, long channels, long inner,
                       const float *src, float *dst);
INTERNAL void conv(const struct repro_conv *d, long n, void *const *b);
INTERNAL void rnn_layer(const struct repro_rnn *d, long n, long t,
                        void *const *b);
