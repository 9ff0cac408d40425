"""Round-to-nearest-even quantization into a parametric format.

The kernel works on binary64 arrays.  That is exact for the public
contract (inputs are binary32-width surrogates, which convert to binary64
losslessly) and leaves headroom for the fused instruction paths, which
feed it round-to-odd intermediates wider than binary32.

The algorithm works on the ``uint64`` view of |x|.  At or above the
format's minimum normal, rounding to ``p`` explicit mantissa bits drops
``s = 52 - p`` significand bits: adding ``2^(s-1) - 1`` plus the lowest
kept bit and clearing the dropped bits is round-to-nearest-even, and a
carry out of the significand steps the exponent up as it should.  Below
the minimum normal the quantum is fixed at ``2^(e_min - p)``, and one
binary64 add and subtract of ``C = 2^(e_min - p + 52)`` rounds onto that
grid (binary64 itself rounds to nearest even, and ``|x| + C`` stays in
C's binade).  Results above the largest finite value become infinity,
the sign bit is ORed back, and NaN lanes become the canonical NaN.
Rounding happens on the gradual-underflow grid for every format; formats
without denormals flush a denormal result to signed zero afterwards, so
inputs that round to the minimum normal or above never flush.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

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


_SIGN = np.uint64(1 << 63)
_ABS = np.uint64((1 << 63) - 1)
_INF = np.uint64(0x7FF0000000000000)
_NAN = np.uint64(0x7FF8000000000000)  # np.nan, the canonical quiet NaN


def _bits(v: float) -> np.uint64:
    return np.array(v, dtype=np.float64).view(np.uint64)[()]


@dataclass(frozen=True)
class _Grid:
    """Bit-level constants of one format's rounding grid."""

    shift: np.uint64       # binary64 significand bits dropped: 52 - p
    bias: np.uint64        # 2^(shift-1) - 1; the kept LSB completes the tie-to-even
    keep: np.uint64        # clears the dropped bits
    min_normal: np.uint64  # bit patterns of magnitudes, for integer comparisons
    max_finite: np.uint64
    c: float               # 2^(e_min - p + 52): |x| + c - c rounds onto the denormal grid


@functools.lru_cache(maxsize=None)
def _grid(fmt: FpFormat) -> _Grid:
    shift = 52 - fmt.mant_bits
    return _Grid(
        shift=np.uint64(shift),
        bias=np.uint64((1 << (shift - 1)) - 1),
        keep=np.uint64(~((1 << shift) - 1) & ((1 << 64) - 1)),
        min_normal=_bits(fmt.min_normal),
        max_finite=_bits(fmt.max_finite),
        c=math.ldexp(1.0, fmt.e_min - fmt.mant_bits + 52),
    )


def _round_core(x: np.ndarray, fmt: FpFormat) -> tuple[np.ndarray, np.ndarray]:
    """Round float64 values into ``fmt``.

    Returns ``(final, pre_flush)`` as float64 arrays whose values are
    exactly representable in the format (final) and in its gradual
    underflow variant (pre_flush).  The two differ only for /n formats.
    """
    g = _grid(fmt)
    # Arbitrary bit patterns are legal input; converting or adding a
    # signaling NaN raises numpy's "invalid" FP flag even though the
    # quieted NaN is exactly what we want (NaN lanes are overwritten).
    with np.errstate(invalid="ignore"):
        x = np.asarray(x, dtype=np.float64)
        # Flat, so that ufuncs return arrays even for 0-d input.
        bits = x.reshape(-1).view(np.uint64)
        mag = bits & _ABS
        r = mag >> g.shift
        r &= np.uint64(1)
        r += mag
        r += g.bias
        r &= g.keep
        sub = mag.view(np.float64) + g.c
        sub -= g.c
    np.copyto(r, sub.view(np.uint64), where=mag < g.min_normal)
    np.copyto(r, _INF, where=r > g.max_finite)
    sign = bits & _SIGN
    pre = r | sign
    nan = mag > _INF
    if nan.any():
        pre[nan] = _NAN
    if fmt.denormals:
        final = pre
    else:
        # r of a NaN lane is _INF here, so NaN lanes keep their NaN.
        final = np.where(r < g.min_normal, sign, pre)
    return final.view(np.float64).reshape(x.shape), pre.view(np.float64).reshape(x.shape)


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
    small = mag < g.min_normal
    if fmt.denormals:
        magf = mag.view(np.float64)
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
        return _round_core(x, fmt)[0].astype(np.float32)
    out = np.empty(x.shape, dtype=np.float32)
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    for i in range(0, flat.size, _CHUNK):
        flat_out[i:i + _CHUNK] = _round_core(flat[i:i + _CHUNK], fmt)[0]
    return out


def roundfp(x: float, fmt: FpFormat) -> RoundingOutcome:
    """Round one value into ``fmt`` with flags.

    Total: accepts any float, including NaN and the infinities.  EXACT is
    set iff the value (and zero sign) survives unchanged; ROUNDED means
    the rounding step proper was inexact, independent of any flush.
    """
    arr = np.array([x], dtype=np.float64)
    final_a, pre_a = _round_core(arr, fmt)
    final = float(final_a[0])
    pre = float(pre_a[0])

    flags = RoundFlag(0)
    if _same_value(final, x):
        flags |= RoundFlag.EXACT
    if not _same_value(pre, x):
        flags |= RoundFlag.ROUNDED
    if math.isfinite(x) and x != 0.0 and pre == 0.0:
        flags |= RoundFlag.UNDERFLOWED_TO_ZERO
    if math.isfinite(x) and math.isinf(final):
        flags |= RoundFlag.OVERFLOWED_TO_INF
    if pre != 0.0 and math.isfinite(pre) and abs(pre) < fmt.min_normal and final == 0.0:
        flags |= RoundFlag.FLUSHED_DENORMAL
    return RoundingOutcome(FpValue(final, fmt), flags)


def _same_value(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if a == 0.0 and b == 0.0:
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b
