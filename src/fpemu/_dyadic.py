"""Exact dyadic arithmetic for the scalar instruction paths.

A finite float is taken apart once, by ``float.as_integer_ratio``, into
an exact integer pair (M, k) meaning M * 2^k (:func:`to_mk`).  Products
are ``Mx * My`` at ``kx + ky``; sums align the smaller exponent by a
shift and add Python's arbitrary-precision integers.  One integer
primitive, :func:`round_int`, rounds an exact M * 2^k into a format and
returns another pair (N, q); :func:`round_mk` is the same rounding with
the result turned into a float.  No intermediate float arithmetic, so
there is no double rounding to reason about.

NaN and the infinities have no pair.  :func:`add_round` and
:func:`fused_add_round` take floats and apply the IEEE special rules
before they go to integers; a caller that keeps its values as pairs
(``instructions.fmac8_dot``) hands a step to them once an operand or an
accumulator is not finite.

This module is a reference for the numpy kernels and shares no code with
them: it imports neither ``rounding`` nor numpy.
"""

from __future__ import annotations

import math

from .formats import FpFormat


def to_mk(x: float) -> tuple[int, int]:
    """Exact decomposition of a finite float: x == M * 2^k.

    M is odd unless x is an integer (then k == 0) or zero (then M == 0).
    """
    m, d = x.as_integer_ratio()  # d is 2^-k
    return m, 1 - d.bit_length()


def round_int(m: int, k: int, fmt: FpFormat) -> tuple[int, int | None]:
    """Round the exact value m * 2^k into ``fmt`` (round-to-nearest-even).

    Returns (n, q), the result n * 2^q with n of m's sign; n == 0 for a
    result of zero (an underflow, or a flush in /n formats).  q is None
    if the result overflows to an infinity of m's sign.  A value already
    in ``fmt`` comes back as (m, k).

    No step needs m's sign: ``bit_length`` ignores it, and with ``>>``
    rounding down, the tie-to-even rule below holds for negative m too.
    """
    e = m.bit_length() - 1 + k  # exponent of the leading bit
    q = (e if e > fmt.e_min else fmt.e_min) - fmt.mant_bits  # the quantum there
    if q > k:
        t = q - k
        n = (m + (1 << (t - 1)) - 1 + ((m >> t) & 1)) >> t  # ties to even
        e = n.bit_length() - 1 + q  # a carry can raise it by one
    else:
        n, q = m, k
    if e > fmt.e_max:
        return m, None
    if not fmt.denormals and e < fmt.e_min:
        return 0, q
    return n, q


def round_mk(m: int, k: int, fmt: FpFormat) -> float:
    """:func:`round_int` as a float: m * 2^k rounded into ``fmt``.

    m == 0 gives +0; :func:`add_round` picks the sign of a zero sum.
    """
    if m == 0:
        return 0.0
    n, q = round_int(m, k, fmt)
    if q is None:
        return math.inf if m > 0 else -math.inf
    if n == 0:
        return -0.0 if m < 0 else 0.0
    return math.ldexp(n, q)  # n has at most p + 1 significant bits, so exact


def _zero_sign(a: float, b: float) -> bool:
    """Sign choice for an exact-zero sum: negative only for (-0) + (-0)."""
    if a == 0.0 and b == 0.0:
        return math.copysign(1.0, a) < 0 and math.copysign(1.0, b) < 0
    return False


def add_round(a: float, b: float, fmt: FpFormat) -> float:
    """Single rounding of the exact sum a + b into ``fmt``.

    Handles the IEEE specials: NaN propagates (canonically), same-signed
    infinities stay, inf + -inf is NaN.
    """
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if math.isinf(a) or math.isinf(b):
        if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
            return math.nan
        return a if math.isinf(a) else b
    ma, ka = to_mk(a)
    mb, kb = to_mk(b)
    if ma == 0 and mb == 0:
        return -0.0 if _zero_sign(a, b) else 0.0
    if ma == 0:
        ms, ks = mb, kb
    elif mb == 0:
        ms, ks = ma, ka
    else:
        ks = min(ka, kb)
        ms = (ma << (ka - ks)) + (mb << (kb - ks))
    return round_mk(ms, ks, fmt)


def mul_exact(x: float, y: float) -> tuple[float | None, float]:
    """Exact product of two format values.

    Returns (special, value): ``special`` is NaN or +-inf when IEEE special
    arithmetic applies, else None and ``value`` is the exact finite product
    (at most 48 significand bits, so binary64 multiplication is exact).
    """
    if math.isnan(x) or math.isnan(y):
        return math.nan, 0.0
    if math.isinf(x) or math.isinf(y):
        if x == 0.0 or y == 0.0:
            return math.nan, 0.0
        neg = (math.copysign(1.0, x) < 0) != (math.copysign(1.0, y) < 0)
        return (-math.inf if neg else math.inf), 0.0
    return None, x * y


def fused_add_round(a: float, x: float, y: float, fmt: FpFormat) -> float:
    """Single rounding of the exact a + x*y into ``fmt``."""
    special, prod = mul_exact(x, y)
    if special is not None:
        return add_round(a, special, fmt)
    return add_round(a, prod, fmt)
