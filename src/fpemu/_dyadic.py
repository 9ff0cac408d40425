"""Exact dyadic arithmetic for the scalar instruction paths.

A finite float is taken apart once, by ``float.as_integer_ratio``, into
an exact integer pair (M, k) meaning M * 2^k (:func:`to_mk`).  Products
are ``Mx * My`` at ``kx + ky``; sums align the smaller exponent by a
shift and add Python's arbitrary-precision integers.  One integer
primitive, :func:`round_int`, rounds an exact M * 2^k into a format and
returns another pair (N, q); :func:`round_mk` is the same rounding with
the result turned into a float.  No intermediate float arithmetic, so
there is no double rounding to reason about.  The scalar instructions
and ``fmac8_dot``'s exact loop run their finite steps on such pairs.  That
loop serves short vectors; ``fmac8_dot`` hands long ones, with many
chunks, to the tensor FMAC8 reduction, which the loop checks.

NaN and the infinities have no pair, and a pair drops a zero's sign.
A sum with a NaN or infinite side, or of two zeros, is binary64's own
(:func:`special_sum`).  :func:`add_round`, :func:`mul_exact` and
:func:`fused_add_round` are the same arithmetic on floats.

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

    m == 0 gives +0; callers pick the sign of a zero sum.
    """
    if m == 0:
        return 0.0
    n, q = round_int(m, k, fmt)
    if q is None:
        return math.inf if m > 0 else -math.inf
    if n == 0:
        return -0.0 if m < 0 else 0.0
    return math.ldexp(n, q)  # n has at most p + 1 significant bits, so exact


def special_sum(a: float, b: float) -> float:
    """a + b where a or b is NaN or an infinity, or both are zeros.

    Binary64 follows IEEE's rules for these (NaN propagates, inf + -inf
    is NaN, an infinity absorbs everything else, (-0) + (-0) is the one
    zero sum that is -0) and no rounding changes such a result, so its
    sum is the answer in every format.  Operands go through ``float``
    first, so numpy scalars raise no warning; NaN comes back as
    ``math.nan``.
    """
    s = float(a) + float(b)
    return s if s == s else math.nan


def add_round(a: float, b: float, fmt: FpFormat) -> float:
    """Single rounding of the exact sum a + b into ``fmt``."""
    if not (-math.inf < a < math.inf and -math.inf < b < math.inf and (a or b)):
        return special_sum(a, b)
    ma, ka = to_mk(a)
    mb, kb = to_mk(b)
    ks = min(ka, kb)
    return round_mk((ma << (ka - ks)) + (mb << (kb - ks)), ks, fmt)


def mul_exact(x: float, y: float) -> tuple[float | None, float]:
    """Exact product of two format values.

    Returns (special, value): ``special`` is NaN or +-inf when an operand
    is, else None and ``value`` is the exact finite product (at most 48
    significand bits, so binary64 multiplication is exact).
    """
    p = float(x) * float(y)
    if -math.inf < p < math.inf:
        return None, p
    return special_sum(p, 0.0), 0.0


def fused_add_round(a: float, x: float, y: float, fmt: FpFormat) -> float:
    """Single rounding of the exact a + x*y into ``fmt``."""
    return add_round(a, float(x) * float(y), fmt)
