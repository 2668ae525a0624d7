"""The repo's own float32 ``exp``, ``sigmoid`` and ``tanh``.

numpy's float32 ``np.exp``/``np.tanh`` are SIMD code internal to numpy,
picked by CPU dispatch, and libm's ``expf``/``tanhf`` differ from them on
a third of inputs, so native code could not reproduce an RNN gate bit for
bit while either one defined it. As :mod:`repro.fpga.bitexact` does for
the datapath, the repo therefore specifies this arithmetic itself: each
function below is a fixed sequence of IEEE-754 float32 operations
(compare/select, add, subtract, multiply, divide, round to integer and
power-of-two scaling), each correctly rounded. Any implementation that
performs the same sequence gets the same bits: here numpy ufuncs, in the
``compiled`` backend the C kernel library (:mod:`repro.serve.codegen`),
built with the constants below.

- ``exp(a)`` for ``a <= 0`` (the only arguments sigmoid and tanh need):
  clamp at :data:`EXP_FLOOR` (``exp`` of anything below rounds to 0);
  ``k = rint(a * log2(e))``; a two-constant Cody-Waite reduction
  ``r = (a - k*LN2_HI) - k*LN2_LO`` (``k*LN2_HI`` is exact);
  Cephes' ``expf`` polynomial ``p = P(r) * r*r + r + 1``; then
  ``ldexp(p, k)``, exact or (subnormal results) correctly rounded.
- ``sigmoid(x) = where(x >= 0, 1, e) / (1 + e)``, ``e = exp(-|x|)``:
  the overflow-free two-branch form.
- ``tanh(x) = copysign(|x| < 0.625 ? s + s*z*Q(z) : (1 - e) / (1 + e),
  x)`` with ``s`` = x clamped to +-0.625, ``z = s*s``, Cephes' ``tanhf``
  polynomial ``Q`` and ``e = exp(-2 min(|x|, 52))``.

Max error against float64 is ~2 ulp (sigmoid) and ~1.5 ulp (tanh).
NaN propagates, ``sigmoid(+-inf)`` is 1/0 and ``tanh(+-inf)`` is +-1, and
no step raises a floating-point warning. Non-float32 inputs (the float64
gradient checks) use numpy's own functions.
"""

from __future__ import annotations

import numpy as np

_F = np.float32

#: exp(a) for a below this rounds to 0 (exp(-104) < 2**-150).
EXP_FLOOR = _F(-104.0)
LOG2E = _F(1.44269504088896341)
#: ln 2 split for the reduction: LN2_HI has 9 significant bits, so
#: ``k * LN2_HI`` is exact for every |k| <= 2**15.
LN2_HI = _F(0.693359375)
LN2_LO = _F(-2.12194440e-4)
#: Cephes ``expf``: exp(r) ~ ((((P0 r + P1) r + P2) r + P3) r + P4) r + P5)
#: * r*r + r + 1 on |r| <= ln(2)/2.
EXP_POLY = tuple(_F(c) for c in (1.9875691500e-4, 1.3981999507e-3,
                                 8.3334519073e-3, 4.1665795894e-2,
                                 1.6666665459e-1, 5.0000001201e-1))
#: The smallest ``k`` the clamp admits; also where a NaN ``k`` is parked
#: before the integer conversion (the NaN itself flows through ``p``).
K_FLOOR = _F(-150.0)
#: Below this |x| tanh uses its odd polynomial, above it the exp form.
TANH_SMALL = _F(0.625)
#: Cephes ``tanhf``: tanh(s) ~ (((Q0 z + Q1) z + Q2) z + Q3) z + Q4) * z*s
#: + s, z = s*s, on |s| < 0.625.
TANH_POLY = tuple(_F(c) for c in (-5.70498872745e-3, 2.06390887954e-2,
                                  -5.37397155531e-2, 1.33314422036e-1,
                                  -3.33332819422e-1))
#: tanh(52) rounds to 1 with room to spare; clamping |x| there keeps
#: ``-2|x|`` finite.
TANH_CLAMP = _F(52.0)

_ONE = _F(1.0)
_MINUS_TWO = _F(-2.0)


def exp_nonpositive(a: np.ndarray) -> np.ndarray:
    """``exp(a)`` for a float32 array with ``a <= 0`` (or NaN)."""
    a = np.maximum(a, EXP_FLOOR)  # -inf -> the floor; NaN stays NaN
    k = a * LOG2E
    np.rint(k, out=k)
    r = k * LN2_HI
    np.subtract(a, r, out=r)
    lo = k * LN2_LO
    np.subtract(r, lo, out=r)
    p = r * EXP_POLY[0]
    for coefficient in EXP_POLY[1:-1]:
        p += coefficient
        p *= r
    p += EXP_POLY[-1]
    np.multiply(r, r, out=lo)
    p *= lo
    p += r
    p += _ONE
    # A NaN k must never reach the integer conversion.
    np.fmax(k, K_FLOOR, out=k)
    return np.ldexp(p, k.astype(np.int32))


def _sigmoid32(x: np.ndarray) -> np.ndarray:
    e = np.abs(x)
    np.negative(e, out=e)
    e = exp_nonpositive(e)
    out = np.where(x >= 0, _ONE, e)
    e += _ONE
    return np.divide(out, e, out=out)


def _tanh32(x: np.ndarray) -> np.ndarray:
    a = np.abs(x)
    s = np.maximum(x, -TANH_SMALL)
    np.minimum(s, TANH_SMALL, out=s)
    z = s * s
    q = z * TANH_POLY[0]
    for coefficient in TANH_POLY[1:]:
        q += coefficient
        q *= z
    q *= s
    q += s
    e = np.minimum(a, TANH_CLAMP)
    e *= _MINUS_TWO
    e = exp_nonpositive(e)
    big = np.subtract(_ONE, e)
    e += _ONE
    big /= e
    out = np.where(a < TANH_SMALL, q, big)
    return np.copysign(out, x, out=out)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free two-branch sigmoid, dtype-preserving.

    ``1 / (1 + exp(-x))`` overflows for large negative inputs; the
    two-branch form divides ``exp(x)`` by ``1 + exp(x)`` there instead,
    so the exponent argument is never positive. Evaluated as one select
    over the shared ``e = exp(-|x|)``: per element exactly ``1/(1+e)``
    or ``e/(1+e)``. For float32 ``exp`` is :func:`exp_nonpositive`, so
    eager :meth:`Tensor.sigmoid`, every serving backend and the
    generated C agree bit for bit.
    """
    x = np.asarray(x)
    if x.dtype == np.float32:
        return _sigmoid32(x) if x.ndim else _sigmoid32(x[None])[0]
    exp = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, exp) / (1.0 + exp)


def stable_tanh(x: np.ndarray) -> np.ndarray:
    """The repo's tanh, dtype-preserving: the fixed float32 sequence in
    the module docstring for float32, ``np.tanh`` otherwise."""
    x = np.asarray(x)
    if x.dtype == np.float32:
        return _tanh32(x) if x.ndim else _tanh32(x[None])[0]
    return np.tanh(x)
