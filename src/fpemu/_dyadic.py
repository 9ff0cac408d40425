"""Exact dyadic arithmetic for the scalar instruction paths.

Finite floats are taken apart into integer pairs (M, k) meaning M * 2^k,
multiplied and added with Python's arbitrary-precision integers, and
rounded back in one step.  No intermediate float arithmetic, so there is
no double rounding to reason about.
"""

from __future__ import annotations

import math

from .formats import FpFormat


def to_mk(x: float) -> tuple[int, int]:
    """Exact decomposition of a finite float: x == M * 2^k."""
    if x == 0.0:
        return 0, 0
    m, e = math.frexp(x)
    return int(m * 9007199254740992.0), e - 53  # m * 2^53 is integral


def round_mk(m: int, k: int, fmt: FpFormat) -> float:
    """Round the exact value M * 2^k into ``fmt`` (round-to-nearest-even).

    M == 0 gives +0; :func:`add_round` picks the sign of a zero sum.
    """
    if m == 0:
        return 0.0
    sign = -1.0 if m < 0 else 1.0
    a = abs(m)
    e_val = a.bit_length() - 1 + k
    if e_val > fmt.e_max:
        return sign * math.inf

    q_exp = max(e_val, fmt.e_min) - fmt.mant_bits
    t = q_exp - k
    if t <= 0:
        n = a << (-t)
    else:
        floor = a >> t
        rem = a & ((1 << t) - 1)
        half = 1 << (t - 1)
        if rem > half or (rem == half and floor & 1):
            n = floor + 1
        else:
            n = floor
    if n == 0:
        return sign * 0.0
    mag = math.ldexp(float(n), q_exp)  # n <= 2^(p+1), so exact
    if mag > fmt.max_finite:
        return sign * math.inf
    if not fmt.denormals and mag < fmt.min_normal:
        return sign * 0.0
    return sign * mag


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
