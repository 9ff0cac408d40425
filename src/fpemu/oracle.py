"""Exact-rational reference implementations.

Everything in this module is written for verifiability, not speed: values
are exact :class:`fractions.Fraction` rationals, rounding picks between
explicitly constructed grid neighbors, and the fused operations replay
their definitions step by step.  The production kernels in
:mod:`fpemu.rounding` and :mod:`fpemu.instructions` are tested against
this module; nothing here shares code with them beyond format constants.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import NamedTuple, Sequence

from .formats import BINARY32, FpFormat

__all__ = [
    "OracleRounding",
    "round_exact",
    "round_float",
    "mac_oracle",
    "macs_oracle",
    "fmac_oracle",
    "fmacs_oracle",
    "dot_oracle",
]


class OracleRounding(NamedTuple):
    value: float
    rounded: bool          # the rounding step itself was inexact
    underflowed: bool      # nonzero input rounded to zero (before any flush)
    overflowed: bool       # finite input rounded to infinity
    flushed: bool          # denormal result flushed to zero (/n formats)


def _floor_log2(q: Fraction) -> int:
    """floor(log2(q)) for positive q, via integer bit lengths."""
    n, d = q.numerator, q.denominator
    e = n.bit_length() - d.bit_length()
    # 2^e <= q < 2^(e+2) at this point; settle the one-bit ambiguity exactly.
    if Fraction(2) ** e > q:
        e -= 1
    if Fraction(2) ** (e + 1) <= q:
        e += 1
    return e


def round_exact(q: Fraction, fmt: FpFormat, negative: bool = False) -> OracleRounding:
    """Round a nonnegative rational into ``fmt`` by round-to-nearest-even.

    ``negative`` carries the sign separately so that signed zeros and the
    sign of infinities come out right.  The grid of candidate results is
    built explicitly: quantum 2^(max(E, e_min) - p) at the input's binade,
    floor and ceiling neighbors, exact midpoint comparison, ties to the
    even multiple.  Overflow follows the half-ulp-above-max rule; formats
    without denormals flush a denormal result to zero afterwards.
    """
    if q < 0:
        raise ValueError("round_exact takes a nonnegative magnitude")
    if type(q.numerator) is not int or type(q.denominator) is not int:
        # A numpy integer, or a Fraction built from one, holds numpy ints,
        # which have no bit_length and wrap around on overflow.
        q = Fraction(int(q.numerator), int(q.denominator))
    sign = -1.0 if negative else 1.0
    if q == 0:
        return OracleRounding(sign * 0.0, False, False, False, False)

    e_val = _floor_log2(q)
    quantum = Fraction(2) ** (max(e_val, fmt.e_min) - fmt.mant_bits)
    n0, rem = divmod(q, quantum)
    n0 = int(n0)
    if rem == 0:
        n = n0
    else:
        half = quantum / 2
        if rem > half:
            n = n0 + 1
        elif rem < half:
            n = n0
        else:
            n = n0 if n0 % 2 == 0 else n0 + 1

    candidate = n * quantum
    was_rounded = candidate != q

    if candidate > Fraction(fmt.max_finite):
        return OracleRounding(sign * math.inf, True, False, True, False)
    if candidate == 0:
        return OracleRounding(sign * 0.0, True, True, False, False)

    if not fmt.denormals and candidate < Fraction(fmt.min_normal):
        return OracleRounding(sign * 0.0, was_rounded, False, False, True)

    # candidate is a dyadic rational with at most p+1 significand bits,
    # so float() is exact.
    return OracleRounding(sign * float(candidate), was_rounded, False, False, False)


def round_float(x: float, fmt: FpFormat) -> float:
    """Round a float (binary32 surrogate or wider) into ``fmt``."""
    if not -math.inf < x < math.inf:  # NaN and the infinities
        return x if x == x else math.nan
    if isinstance(x, numbers.Integral):
        x = int(x)  # abs() of the most negative numpy integer wraps around
    negative = x < 0 if x else math.copysign(1.0, x) < 0  # an int beyond binary64 has no copysign
    return round_exact(Fraction(abs(x)), fmt, negative=negative).value


# ── signed exact arithmetic with IEEE specials ─────────────────────────
#
# A value is either a special float (NaN or an infinity) or an exact
# rational plus an explicit sign bit.  The sign bit matters only when the
# rational is zero; IEEE addition produces -0 only from (-0) + (-0).


class _XVal(NamedTuple):
    frac: Fraction | None    # None when special holds NaN or +-inf
    neg: bool
    special: float | None

    @classmethod
    def from_float(cls, x: float) -> "_XVal":
        if math.isnan(x) or math.isinf(x):
            return cls(None, False, x)
        return cls(Fraction(x), math.copysign(1.0, x) < 0, None)


def _x_mul(x: float, y: float) -> _XVal:
    if math.isnan(x) or math.isnan(y):
        return _XVal(None, False, math.nan)
    neg = (math.copysign(1.0, x) < 0) != (math.copysign(1.0, y) < 0)
    if math.isinf(x) or math.isinf(y):
        if x == 0.0 or y == 0.0:
            return _XVal(None, False, math.nan)
        return _XVal(None, False, -math.inf if neg else math.inf)
    return _XVal(Fraction(x) * Fraction(y), neg, None)


def _x_add(a: _XVal, b: _XVal) -> _XVal:
    sa, sb = a.special, b.special
    if sa is not None and math.isnan(sa):
        return a
    if sb is not None and math.isnan(sb):
        return b
    if sa is not None and sb is not None:
        if (sa > 0) != (sb > 0):
            return _XVal(None, False, math.nan)
        return a
    if sa is not None:
        return a
    if sb is not None:
        return b
    s = a.frac + b.frac
    if s != 0:
        return _XVal(abs(s), s < 0, None)
    if a.frac == 0 and b.frac == 0:
        return _XVal(Fraction(0), a.neg and b.neg, None)
    return _XVal(Fraction(0), False, None)  # exact cancellation gives +0


def _x_round(v: _XVal, fmt: FpFormat) -> float:
    if v.special is not None:
        return v.special
    return round_exact(abs(v.frac), fmt, negative=v.neg).value


def mac_oracle(a: float, x: float, y: float, fmt: FpFormat) -> float:
    """round(a + round(x*y, fmt), fmt): two roundings, both at fmt width."""
    r1 = _x_round(_x_mul(x, y), fmt)
    return _x_round(_x_add(_XVal.from_float(a), _XVal.from_float(r1)), fmt)


def macs_oracle(a32: float, x: float, y: float, fmt: FpFormat) -> float:
    """round32(a32 + round(x*y, fmt)): product at fmt, accumulate at binary32."""
    r1 = _x_round(_x_mul(x, y), fmt)
    return _x_round(_x_add(_XVal.from_float(a32), _XVal.from_float(r1)), BINARY32)


def fmac_oracle(a: float, x: float, y: float, fmt: FpFormat) -> float:
    """round(a + x*y, fmt): single rounding of the exact sum-of-product."""
    return _x_round(_x_add(_XVal.from_float(a), _x_mul(x, y)), fmt)


def fmacs_oracle(a32: float, x: float, y: float, fmt: FpFormat) -> float:
    """round32(a32 + x*y): fused, but accumulating at binary32 width.

    ``fmt`` is the format of x and y; it does not affect the rounding,
    which always targets binary32.
    """
    del fmt
    return _x_round(_x_add(_XVal.from_float(a32), _x_mul(x, y)), BINARY32)


def dot_oracle(
    w: Sequence[float], x: Sequence[float], fmt: FpFormat, chunk: int = 8
) -> float:
    """Chunked-FMAC dot product replayed with exact arithmetic.

    Mirrors the hardware algorithm: a format-width fused accumulator that
    is drained into a binary32 master accumulator every ``chunk`` steps
    (before the step, so i = 0 drains a zero), one final drain, and a
    final rounding into ``fmt``.  The fused adds round once via the exact
    path; the drains are single binary32 additions.
    """
    if len(w) != len(x):
        raise ValueError("vectors must have equal length")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    master = 0.0
    acc = 0.0
    for i in range(len(w)):
        if i % chunk == 0:
            master = _x_round(
                _x_add(_XVal.from_float(master), _XVal.from_float(acc)), BINARY32
            )
            acc = 0.0
        acc = fmac_oracle(acc, w[i], x[i], fmt)
    master = _x_round(_x_add(_XVal.from_float(master), _XVal.from_float(acc)), BINARY32)
    return _x_round(_XVal.from_float(master), fmt)
