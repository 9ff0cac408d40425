"""Round-to-nearest-even quantization into a parametric format.

It rounds |x| with one add and subtract of a magic constant, in a binary
width W with F fraction bits and exponent bias B: W itself rounds to
nearest even, so ``(|x| + M) - M`` with ``M = 1.5 * 2^(E - p + F)`` lands
on the grid of quantum ``2^(E - p)``.  E is the exponent of |x| clamped
to [e_min, e_max + 1], so the same step rounds normals and the denormal
band.  Scaling by ``2^(B - e_max)`` and back makes every result of
``2^(e_max + 1)`` or more infinite and leaves the others exact.  Formats
without denormals then flush results below the minimum normal to zero,
so inputs that round up to it never flush.  The sign is copied back and
NaN lanes become the canonical NaN.  No step is a masked copy, so a call
costs the same for any mix of values.

One body serves two widths.  float32 input runs in binary32 (F = 23,
B = 127) when the format's constants fit there (:func:`_fits_binary32`:
every format with at most 7 exponent and 21 mantissa bits), so the
elements are never widened.  float64 input runs in binary64 (F = 52,
B = 1023): the round-to-odd sums of the fused instruction paths and the
scalar :func:`roundfp`, for instance.

float32 input into a format with 8 exponent bits, whose M overflows
binary32, needs no float arithmetic at all: the format has binary32's
exponent range, so its grid is binary32's with the low 23 - p bits of
each bit pattern cleared, denormals included, and :func:`_round_bits32`
rounds with an integer add and a mask.  The few formats left (float32
input, at most 7 exponent bits and 22 or 23 mantissa bits) run in
binary64.  Every path gives the same bits.

The membership test :func:`_on_grid` is one body in the same two widths.
Every format is a subset of binary32, so float32 input is checked on its
uint32 patterns in binary32, whatever the format; float64 input is
checked in binary64.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import struct
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .formats import _BLOCK, FpFormat, FpValue

__all__ = ["RoundFlag", "RoundingOutcome", "roundfp", "roundfp_array"]


class RoundFlag(enum.Flag):
    EXACT = enum.auto()
    ROUNDED = enum.auto()
    UNDERFLOWED_TO_ZERO = enum.auto()
    OVERFLOWED_TO_INF = enum.auto()
    FLUSHED_DENORMAL = enum.auto()


@dataclass(frozen=True)
class RoundingOutcome:
    value: FpValue
    flags: RoundFlag

    def __float__(self) -> float:
        return self.value.surrogate


_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)
# float dtype -> (unsigned view, significand bits after the point, exponent bias)
_LAYOUTS = {_F64: (np.uint64, 52, 1023), _F32: (np.uint32, 23, 127)}


@dataclass(frozen=True)
class _Grid:
    """Constants of one format's rounding grid, in one binary width W
    (F significand bits after the point, exponent bias B)."""

    keep: np.unsignedinteger        # clears the W significand bits below the format's
    abs: np.unsignedinteger         # clears the sign bit
    max_finite: np.unsignedinteger  # bit pattern, for integer comparisons
    c: float               # 2^(e_min - p + F): |x| + c - c rounds onto the denormal grid
    low: float             # 2^e_min and 2^(e_max + 1): the range of the exponent
    high: float            # that a magic constant takes from its input
    add: np.unsignedinteger  # 2^E's bits -> 1.5 * 2^(E - p + F)'s: ((F - p) << F) | 2^(F - 1)
    up: float              # 2^(B - e_max) and its inverse: a magnitude of
    down: float            # 2^(e_max + 1) or more overflows between the two
    exp: np.unsignedinteger  # the exponent field


@functools.lru_cache(maxsize=None)
def _grid(fmt: FpFormat, dtype: np.dtype = _F64) -> _Grid:
    uint, frac, bias = _LAYOUTS[dtype]
    shift = frac - fmt.mant_bits
    width = 8 * dtype.itemsize
    return _Grid(
        keep=uint(~((1 << shift) - 1) & ((1 << width) - 1)),
        abs=uint((1 << (width - 1)) - 1),
        max_finite=np.array(fmt.max_finite, dtype).view(uint)[()],
        c=math.ldexp(1.0, fmt.e_min - fmt.mant_bits + frac),
        low=fmt.min_normal,
        high=math.ldexp(1.0, fmt.e_max + 1),
        add=uint((shift << frac) | (1 << (frac - 1))),
        up=math.ldexp(1.0, bias - fmt.e_max),
        down=math.ldexp(1.0, fmt.e_max - bias),
        exp=uint(((1 << (width - 1)) - 1) & ~((1 << frac) - 1)),
    )


@functools.lru_cache(maxsize=None)
def _fits_binary32(fmt: FpFormat) -> bool:
    """Whether binary32 can run the kernel for ``fmt``: p <= 21 keeps
    |x| + M in the binade of M = 1.5 * 2^(E - p + 23) for every
    |x| < 2^(E + 1), M is finite (with a binade to spare) at
    E = e_max + 1, and normal at E = e_min."""
    p = fmt.mant_bits
    return p <= 21 and fmt.e_max + 24 - p <= 126 and fmt.e_min - p + 23 >= -126


@functools.lru_cache(maxsize=None)
def _products_fit_binary32(fmt: FpFormat) -> bool:
    """Whether every product of two ``fmt`` values is a binary32 number:
    two p + 1 bit significands make at most 24 bits (p <= 11), the
    product's quantum 2^(2 (e_min - p)) is a multiple of binary32's
    smallest denormal 2^-149, and magnitudes stay below
    2^(2 e_max + 2) <= 2^128.  Every format with at most 7 exponent and
    11 mantissa bits passes; 1/7/12 and 1/8/7 do not."""
    p = fmt.mant_bits
    return 2 * p + 2 <= 24 and 2 * (fmt.e_min - p) >= -149 and fmt.e_max <= 63


def _magic(x: np.ndarray, g: _Grid, clamp: bool = True) -> np.ndarray:
    """Bit patterns of the M that round ``x`` as ``(|x| + M) - M`` in x's
    width, whose grid ``g`` is: ``g.add`` plus the bits of 2^E, for x's
    exponent E floored at e_min and, with ``clamp``, capped at e_max + 1.
    The cap keeps M of huge magnitudes, inf and NaN out of the sign bit;
    without it, inf and NaN get a tiny negative M, which leaves them as
    they are."""
    m = x.view(g.exp.dtype) & g.exp
    e = m.view(x.dtype)  # 2^E, 0 or inf: float min/max are the fast ones
    if clamp:
        np.minimum(e, g.high, out=e)
    np.maximum(e, g.low, out=e)
    m += g.add
    return m


_SIGN32 = np.uint32(1 << 31)
_ABS32 = np.uint32((1 << 31) - 1)
_INF32 = np.uint32(0x7F800000)
_NAN32 = np.uint32(0x7FC00000)
_MIN_NORMAL32 = np.uint32(0x00800000)


def _round_bits32(x: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Round float32 ``x`` into ``fmt``, a format with binary32's exponent
    range (8 exponent bits), on the bit patterns.  Its grid is binary32's
    with the low s = 23 - p bits of each pattern cleared, denormals
    included, so adding ``2^(s - 1) - 1`` plus bit s and masking rounds
    the magnitude to nearest even.  The carry crosses binades, and out of
    the top binade reaches infinity's pattern exactly when RNE overflows."""
    u = x.reshape(-1).view(np.uint32)
    r = u & _ABS32
    nan = r > _INF32
    s = 23 - fmt.mant_bits
    if s:
        t = r >> s
        t &= 1
        r += np.uint32((1 << (s - 1)) - 1)
        r += t
        r &= _grid(fmt, _F32).keep
    if not fmt.denormals:
        r *= r >= _MIN_NORMAL32
    r |= u & _SIGN32
    if nan.any():
        r[nan] = _NAN32
    return r.view(_F32).reshape(x.shape)


def _round_core(x: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Round values into ``fmt``; returns values that are exactly
    representable in the format, float32 for a float32 ``x`` whose
    format has 8 exponent bits or fits binary32 (:func:`_fits_binary32`),
    else float64."""
    x = np.asarray(x)
    if x.dtype == _F32 and fmt.exp_bits == 8:
        return _round_bits32(x, fmt)
    dtype = _F32 if x.dtype == _F32 and _fits_binary32(fmt) else _F64
    g = _grid(fmt, dtype)
    # Arbitrary bit patterns are legal input; converting or adding a
    # signaling NaN raises numpy's "invalid" FP flag even though the
    # quieted NaN is exactly what we want (NaN lanes are overwritten).
    # The scale pair overflows on purpose.
    with np.errstate(invalid="ignore", over="ignore"):
        x = np.asarray(x, dtype=dtype)
        flat = x.reshape(-1)  # so that ufuncs return arrays even for 0-d input
        mf = _magic(flat, g).view(dtype)
        r = np.abs(flat)
        r += mf
        r -= mf
        r *= g.up
        r *= g.down
        if not fmt.denormals:
            # mf is free now, and a float 0/1 multiplies faster than a bool.
            r *= np.greater_equal(r, g.low, out=mf, casting="unsafe")
        np.copysign(r, flat, out=r)
        nan = np.isnan(r)
        if nan.any():
            r[nan] = np.nan
    return r.reshape(x.shape)


def _on_grid(a: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Elementwise :meth:`FpFormat.contains` for a float32 or float64 array,
    on its own bit patterns: every format is a subset of binary32, so a
    float32 array is checked without being widened.

    NaN, the infinities and signed zeros are members; finite magnitudes
    must lie on the format's grid and at most at its largest finite
    value, and denormal magnitudes count only in formats that have them.
    """
    g = _grid(fmt, a.dtype)
    mag = a.reshape(-1).view(g.abs.dtype) & g.abs
    ok = (mag & ~g.keep) == 0
    ok &= mag <= g.max_finite
    ok |= mag >= g.exp  # the infinities and NaN
    magf = mag.view(a.dtype)
    small = magf < g.low
    if fmt.denormals:
        with np.errstate(invalid="ignore"):
            on_quantum = (magf + g.c) - g.c == magf
        np.copyto(ok, on_quantum, where=small)
    else:
        np.copyto(ok, mag == 0, where=small)
    return ok.reshape(a.shape)


def roundfp_array(x: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Elementwise roundfp. Returns float32 (every format fits binary32)."""
    x = np.asarray(x)
    if x.size <= _BLOCK:
        return _round_core(x, fmt).astype(np.float32, copy=False)
    out = np.empty(x.shape, dtype=np.float32)
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    for i in range(0, flat.size, _BLOCK):
        flat_out[i:i + _BLOCK] = _round_core(flat[i:i + _BLOCK], fmt)
    return out


def roundfp(x: float, fmt: FpFormat) -> RoundingOutcome:
    """Round one value into ``fmt`` with flags.

    Total: accepts any float, including NaN and the infinities, and exact
    ints and Fractions of any size.  EXACT is set iff the value (and zero
    sign) survives unchanged; ROUNDED means the rounding step proper was
    inexact, independent of any flush.
    """
    if isinstance(x, numbers.Rational):  # int, Fraction, numpy integer
        x = Fraction(x)
        arr = np.array([_round_to_odd(x)])
    else:
        with np.errstate(invalid="ignore"):  # widening quiets a signaling NaN
            arr = np.array([x], dtype=np.float64)
    final = float(_round_core(arr, fmt)[0])
    # The value before any flush: the same rounding into the /d twin.
    pre = final if fmt.denormals else float(_round_core(arr, replace(fmt, denormals=True))[0])

    finite = -math.inf < x < math.inf  # math.isfinite(x) raises for such an int
    flags = RoundFlag(0)
    if _same_value(final, x):
        flags |= RoundFlag.EXACT
    if not _same_value(pre, x):
        flags |= RoundFlag.ROUNDED
    if finite and x != 0.0 and pre == 0.0:
        flags |= RoundFlag.UNDERFLOWED_TO_ZERO
    if finite and math.isinf(final):
        flags |= RoundFlag.OVERFLOWED_TO_INF
    if pre != 0.0 and math.isfinite(pre) and abs(pre) < fmt.min_normal and final == 0.0:
        flags |= RoundFlag.FLUSHED_DENORMAL
    return RoundingOutcome(FpValue(final, fmt), flags)


def _round_to_odd(q: Fraction) -> float:
    """``q`` in binary64, rounded to odd: truncated toward zero, with the
    last bit set if that was inexact.  Rounding this once more into a
    format of at most 24 significant bits is rounding ``q`` itself, the
    sticky-bit argument of :func:`instructions._add_round_to_odd`.  Beyond
    binary64's range it is an infinity, as every format's rounding is."""
    away = math.inf if q > 0 else -math.inf
    try:
        f = float(q)
    except OverflowError:
        return away
    if f == q:
        return f
    if abs(f) > abs(q):
        f = math.nextafter(f, -away)
    if not struct.unpack("<Q", struct.pack("<d", f))[0] & 1:
        f = math.nextafter(f, away)
    return f


def _same_value(a: float, b: float) -> bool:
    if a != a or b != b:  # NaN
        return a != a and b != b
    if a == 0.0 and b == 0.0:
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b
