"""Round-to-nearest-even quantization into a parametric format.

The kernel works on binary64 arrays.  That is exact for the public
contract (inputs are binary32-width surrogates, which convert to binary64
losslessly) and leaves headroom for the fused instruction paths, which
feed it round-to-odd intermediates wider than binary32.

It rounds |x| with one add and subtract of a magic constant: binary64
itself rounds to nearest even, so ``(|x| + M) - M`` with
``M = 1.5 * 2^(E - p + 52)`` lands on the grid of quantum ``2^(E - p)``.
E is the exponent of |x| clamped to [e_min, e_max + 1], so the same step
rounds normals and the denormal band.  Scaling by ``2^(1023 - e_max)``
and back makes every result of ``2^(e_max + 1)`` or more infinite and
leaves the others exact.  Formats without denormals then flush results
below the minimum normal to zero, so inputs that round up to it never
flush.  The sign is copied back and NaN lanes become the canonical NaN.
No step is a masked copy, so a call costs the same for any mix of values.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .formats import FpFormat, FpValue

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


_ABS = np.uint64((1 << 63) - 1)
_INF = np.uint64(0x7FF0000000000000)
_EXP = _INF  # the exponent field


def _bits(v: float) -> np.uint64:
    return np.array(v, dtype=np.float64).view(np.uint64)[()]


@dataclass(frozen=True)
class _Grid:
    """Constants of one format's rounding grid."""

    keep: np.uint64        # clears the binary64 significand bits below the format's
    max_finite: np.uint64  # bit pattern, for integer comparisons
    c: float               # 2^(e_min - p + 52): |x| + c - c rounds onto the denormal grid
    low: float             # 2^e_min and 2^(e_max + 1): the range of the exponent
    high: float            # that a magic constant takes from its input
    add: np.uint64         # 2^E's bits -> 1.5 * 2^(E - p + 52)'s: ((52 - p) << 52) | 2^51
    up: float              # 2^(1023 - e_max) and its inverse: a magnitude of
    down: float            # 2^(e_max + 1) or more overflows between the two


@functools.lru_cache(maxsize=None)
def _grid(fmt: FpFormat) -> _Grid:
    shift = 52 - fmt.mant_bits
    return _Grid(
        keep=np.uint64(~((1 << shift) - 1) & ((1 << 64) - 1)),
        max_finite=_bits(fmt.max_finite),
        c=math.ldexp(1.0, fmt.e_min - fmt.mant_bits + 52),
        low=fmt.min_normal,
        high=math.ldexp(1.0, fmt.e_max + 1),
        add=np.uint64((shift << 52) | (1 << 51)),
        up=math.ldexp(1.0, 1023 - fmt.e_max),
        down=math.ldexp(1.0, fmt.e_max - 1023),
    )


def _magic(x: np.ndarray, g: _Grid, clamp: bool = True) -> np.ndarray:
    """Bit patterns of the M that round float64 ``x`` as ``(|x| + M) - M``:
    ``g.add`` plus the bits of 2^E, for x's exponent E floored at e_min
    and, with ``clamp``, capped at e_max + 1.  The cap keeps M of huge
    magnitudes, inf and NaN out of the sign bit; without it, inf and NaN
    get a tiny negative M, which leaves them as they are."""
    m = x.view(np.uint64) & _EXP
    e = m.view(np.float64)  # 2^E, 0 or inf: float64 min/max are the fast ones
    if clamp:
        np.minimum(e, g.high, out=e)
    np.maximum(e, g.low, out=e)
    m += g.add
    return m


def _round_core(x: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Round float64 values into ``fmt``; returns float64 values that are
    exactly representable in the format."""
    g = _grid(fmt)
    # Arbitrary bit patterns are legal input; converting or adding a
    # signaling NaN raises numpy's "invalid" FP flag even though the
    # quieted NaN is exactly what we want (NaN lanes are overwritten).
    # The scale pair overflows on purpose.
    with np.errstate(invalid="ignore", over="ignore"):
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1)  # so that ufuncs return arrays even for 0-d input
        mf = _magic(flat, g).view(np.float64)
        r = np.abs(flat)
        r += mf
        r -= mf
        r *= g.up
        r *= g.down
        if not fmt.denormals:
            # mf is free now, and a float64 0/1 multiplies faster than a bool.
            r *= np.greater_equal(r, g.low, out=mf, casting="unsafe")
        np.copysign(r, flat, out=r)
        nan = np.isnan(r)
        if nan.any():
            r[nan] = np.nan
    return r.reshape(x.shape)


def _on_grid(a: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Elementwise :meth:`FpFormat.contains` for a float64 array.

    NaN, the infinities and signed zeros are members; finite magnitudes
    must lie on the format's grid and at most at its largest finite
    value, and denormal magnitudes count only in formats that have them.
    """
    g = _grid(fmt)
    mag = a.reshape(-1).view(np.uint64) & _ABS
    ok = (mag & ~g.keep) == 0
    ok &= mag <= g.max_finite
    ok |= mag >= _INF
    magf = mag.view(np.float64)
    small = magf < g.low
    if fmt.denormals:
        with np.errstate(invalid="ignore"):
            on_quantum = (magf + g.c) - g.c == magf
        np.copyto(ok, on_quantum, where=small)
    else:
        np.copyto(ok, mag == 0, where=small)
    return ok.reshape(a.shape)


# roundfp_array rounds large arrays this many elements at a time, so the
# kernel's binary64 temporaries stay small and cache-resident.
_CHUNK = 1 << 14


def roundfp_array(x: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Elementwise roundfp. Returns float32 (every format fits binary32)."""
    x = np.asarray(x)
    if x.size <= _CHUNK:
        return _round_core(x, fmt).astype(np.float32)
    out = np.empty(x.shape, dtype=np.float32)
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    for i in range(0, flat.size, _CHUNK):
        flat_out[i:i + _CHUNK] = _round_core(flat[i:i + _CHUNK], fmt)
    return out


def roundfp(x: float, fmt: FpFormat) -> RoundingOutcome:
    """Round one value into ``fmt`` with flags.

    Total: accepts any float, including NaN and the infinities.  EXACT is
    set iff the value (and zero sign) survives unchanged; ROUNDED means
    the rounding step proper was inexact, independent of any flush.
    """
    try:
        arr = np.array([x], dtype=np.float64)
    except OverflowError:  # an int beyond binary64's range overflows every format
        arr = np.array([math.inf if x > 0 else -math.inf])
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


def _same_value(a: float, b: float) -> bool:
    if a != a or b != b:  # NaN
        return a != a and b != b
    if a == 0.0 and b == 0.0:
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b
