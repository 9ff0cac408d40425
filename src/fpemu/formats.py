"""Parametric binary floating-point formats in the style of IEEE 754.

A format is written ``1/e/p/d``: one sign bit, ``e`` exponent bits,
``p`` explicit mantissa bits, and a flag saying whether denormal
(gradual-underflow) values exist.  ``1/5/10/d`` is IEEE binary16,
``1/8/7/n`` is bfloat16 without denormals, and ``1/8/23/d`` is binary32
itself.  Values of any such format are carried exactly in Python floats
(every representable magnitude fits in binary32, hence in binary64).
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FpClass",
    "FpFormat",
    "FpValue",
    "BINARY32",
    "classify",
    "classify_array",
    "encode16",
    "decode16",
    "encode16_array",
    "decode16_array",
]


class FpClass(enum.Enum):
    """Disjoint classification of a representable value by magnitude."""

    ZERO = "zero"
    DENORMAL = "denormal"
    NORMAL = "normal"
    INFINITY = "inf"
    NAN = "nan"


_FMT_RE = re.compile(r"^1/(\d+)/(\d+)/(d|n)$")


@dataclass(frozen=True)
class FpFormat:
    """A sign/exponent/mantissa/denormal quadruple.

    ``exp_bits`` must lie in [2, 8] and ``mant_bits`` in [1, 23] so that
    every value of the format is exactly a binary32 number.  The exponent
    uses an IEEE-style bias of ``2**(exp_bits-1) - 1`` with the all-ones
    exponent reserved for infinities and NaNs.
    """

    exp_bits: int
    mant_bits: int
    denormals: bool

    def __post_init__(self) -> None:
        if not 2 <= self.exp_bits <= 8:
            raise ValueError(f"exp_bits must be in [2, 8], got {self.exp_bits}")
        if not 1 <= self.mant_bits <= 23:
            raise ValueError(f"mant_bits must be in [1, 23], got {self.mant_bits}")

    # ── derived constants ──────────────────────────────────────────────

    @property
    def bias(self) -> int:
        return 2 ** (self.exp_bits - 1) - 1

    @property
    def e_min(self) -> int:
        """Smallest unbiased exponent of a normal value: -(2^(e-1) - 2)."""
        return -(2 ** (self.exp_bits - 1) - 2)

    @property
    def e_max(self) -> int:
        """Largest unbiased exponent of a normal value: 2^(e-1) - 1."""
        return 2 ** (self.exp_bits - 1) - 1

    @property
    def width(self) -> int:
        return 1 + self.exp_bits + self.mant_bits

    @property
    def min_normal(self) -> float:
        return math.ldexp(1.0, self.e_min)

    @property
    def min_denormal(self) -> float | None:
        """Smallest positive denormal, or None for formats without denormals."""
        if not self.denormals:
            return None
        return math.ldexp(1.0, self.e_min - self.mant_bits)

    @property
    def smallest_positive(self) -> float:
        """Smallest positive representable magnitude (denormal if available)."""
        return self.min_denormal if self.denormals else self.min_normal

    @property
    def max_finite(self) -> float:
        return math.ldexp(2.0 - math.ldexp(1.0, -self.mant_bits), self.e_max)

    @property
    def overflow_threshold(self) -> float:
        """Magnitudes at or above this round to infinity: (2 - 2^(-p-1)) * 2^e_max."""
        return math.ldexp(2.0 - math.ldexp(1.0, -self.mant_bits - 1), self.e_max)

    # ── parsing and printing ───────────────────────────────────────────

    @classmethod
    def parse(cls, spec: str) -> "FpFormat":
        """Parse a format spec string such as ``1/5/10/d`` or ``1/8/7/n``."""
        m = _FMT_RE.match(spec.strip())
        if m is None:
            raise ValueError(
                f"bad format spec {spec!r}: expected 1/<exp_bits>/<mant_bits>/<d|n>"
            )
        return cls(int(m.group(1)), int(m.group(2)), m.group(3) == "d")

    def __str__(self) -> str:
        return f"1/{self.exp_bits}/{self.mant_bits}/{'d' if self.denormals else 'n'}"

    # ── membership test ────────────────────────────────────────────────

    def contains(self, value: float) -> bool:
        """True if ``value`` is exactly representable in this format.

        NaN counts as representable (there is a canonical NaN datum);
        denormal magnitudes count only when the format has denormals.
        """
        if math.isnan(value):
            return True
        if math.isinf(value):
            return True
        if value == 0.0:
            return True
        mant, exp = math.frexp(abs(value))  # abs(value) = mant * 2**exp, mant in [0.5, 1)
        e_val = exp - 1
        if e_val > self.e_max:
            return False
        if e_val >= self.e_min:
            scaled = abs(value) * math.ldexp(1.0, self.mant_bits - e_val)
        else:
            if not self.denormals:
                return False
            scaled = abs(value) * math.ldexp(1.0, self.mant_bits - self.e_min)
        # Exactly representable iff the significand is an integer at the
        # format's quantum.  scaled <= 2^24 here, so the float test is exact.
        return scaled == int(scaled)

    def constants(self) -> dict[str, object]:
        """Key format constants, for reports and the CLI."""
        out: dict[str, object] = {
            "format": str(self),
            "width": self.width,
            "e_min": self.e_min,
            "e_max": self.e_max,
            "bias": self.bias,
            "min_normal": self.min_normal,
            "max_finite": self.max_finite,
            "overflow_threshold": self.overflow_threshold,
        }
        out["min_denormal"] = self.min_denormal
        return out


BINARY32 = FpFormat(exp_bits=8, mant_bits=23, denormals=True)


@dataclass(frozen=True)
class FpValue:
    """A float known to be exactly representable in ``fmt``."""

    surrogate: float
    fmt: FpFormat

    def __post_init__(self) -> None:
        if not self.fmt.contains(self.surrogate):
            raise ValueError(f"{self.surrogate!r} is not representable in {self.fmt}")

    def classify(self) -> FpClass:
        return classify(self.surrogate, self.fmt)

    def encode16(self) -> int:
        return encode16(self.surrogate, self.fmt)

    def __float__(self) -> float:
        return self.surrogate


def classify(value: float, fmt: FpFormat) -> FpClass:
    """Classify a representable value. Zero is not denormal; the denormal
    band is the open interval (0, 2^e_min) in magnitude."""
    if math.isnan(value):
        return FpClass.NAN
    if math.isinf(value):
        return FpClass.INFINITY
    if value == 0.0:
        return FpClass.ZERO
    if abs(value) < fmt.min_normal:
        return FpClass.DENORMAL
    return FpClass.NORMAL


def classify_array(values: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Vectorized :func:`classify`.  Returns uint8 codes, each the index
    of its class in :class:`FpClass`: 0 zero, 1 denormal, 2 normal, 3
    infinity, 4 NaN.

    The code is a sum of four comparisons on the sign-cleared bit
    pattern, whose order is the order of the magnitudes (NaNs above
    infinity).  float32 input is read as ``uint32``, anything else as
    binary64.
    """
    a = np.asarray(values)
    if a.dtype != np.float32:
        a = a.astype(np.float64, copy=False)
    uint = np.dtype(f"u{a.itemsize}").type
    mag = a.reshape(-1).view(uint) & uint(np.iinfo(uint).max >> 1)
    min_normal, inf = np.array([fmt.min_normal, np.inf], dtype=a.dtype).view(uint)
    codes = (mag != 0).view(np.uint8)
    codes += mag >= min_normal
    codes += mag >= inf
    codes += mag > inf
    return codes.reshape(a.shape)


# ── 16-bit wire format ─────────────────────────────────────────────────
#
# Bit layout, MSB to LSB: sign | biased exponent (e bits) | mantissa (p bits).
# Only formats whose total width is 16 have a wire format.


def _require_width16(fmt: FpFormat) -> None:
    if fmt.width != 16:
        raise ValueError(f"{fmt} is {fmt.width} bits wide; encode16/decode16 need 16")


def canonical_nan16(fmt: FpFormat) -> int:
    """Canonical NaN word: sign 0, exponent all ones, mantissa MSB set."""
    _require_width16(fmt)
    ones = (1 << fmt.exp_bits) - 1
    return (ones << fmt.mant_bits) | (1 << (fmt.mant_bits - 1))


def encode16(value: float, fmt: FpFormat) -> int:
    """Encode a representable value into its 16-bit word."""
    _require_width16(fmt)
    if math.isnan(value):
        return canonical_nan16(fmt)
    sign = 1 if math.copysign(1.0, value) < 0 else 0
    if math.isinf(value):
        return (sign << 15) | (((1 << fmt.exp_bits) - 1) << fmt.mant_bits)
    if value == 0.0:
        return sign << 15
    mag = abs(value)
    _, exp = math.frexp(mag)
    e_val = exp - 1
    if e_val >= fmt.e_min:
        mant_full = round(mag * math.ldexp(1.0, fmt.mant_bits - e_val))
        if mant_full != mag * math.ldexp(1.0, fmt.mant_bits - e_val) or e_val > fmt.e_max:
            raise ValueError(f"{value!r} is not representable in {fmt}")
        exp_field = e_val + fmt.bias
        mant_field = mant_full - (1 << fmt.mant_bits)
    else:
        mant_field = round(mag * math.ldexp(1.0, fmt.mant_bits - fmt.e_min))
        if (
            not fmt.denormals
            or mant_field != mag * math.ldexp(1.0, fmt.mant_bits - fmt.e_min)
            or not 1 <= mant_field < (1 << fmt.mant_bits)
        ):
            raise ValueError(f"{value!r} is not representable in {fmt}")
        exp_field = 0
    return (sign << 15) | (exp_field << fmt.mant_bits) | mant_field


def decode16(word: int, fmt: FpFormat) -> float:
    """Decode a 16-bit word. In /n formats, denormal encodings decode to
    signed zero (they are invalid and canonicalized away)."""
    _require_width16(fmt)
    if not 0 <= word < (1 << 16):
        raise ValueError(f"word {word!r} out of 16-bit range")
    sign = -1.0 if word >> 15 else 1.0
    exp_field = (word >> fmt.mant_bits) & ((1 << fmt.exp_bits) - 1)
    mant_field = word & ((1 << fmt.mant_bits) - 1)
    if exp_field == (1 << fmt.exp_bits) - 1:
        if mant_field == 0:
            return sign * math.inf
        return math.nan
    if exp_field == 0:
        if not fmt.denormals:
            mant_field = 0
        return sign * math.ldexp(float(mant_field), fmt.e_min - fmt.mant_bits)
    e_val = exp_field - fmt.bias
    return sign * math.ldexp(float((1 << fmt.mant_bits) + mant_field), e_val - fmt.mant_bits)


def encode16_array(values: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Vectorized :func:`encode16` for tensor dumps. Returns uint16."""
    _require_width16(fmt)
    a = np.asarray(values, dtype=np.float64)
    sign = np.signbit(a).astype(np.uint32) << 15
    out = np.zeros(a.shape, dtype=np.uint32)

    nan_mask = np.isnan(a)
    inf_mask = np.isinf(a)
    zero_mask = a == 0.0
    fin_mask = ~(nan_mask | inf_mask | zero_mask)

    mag = np.abs(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, exp = np.frexp(mag)
    e_val = exp - 1
    normal = fin_mask & (e_val >= fmt.e_min)
    denorm = fin_mask & ~normal

    # Scale to integer significands.  Values are representable, so the
    # products are exact and at most 2^24.
    sig = np.zeros(a.shape, dtype=np.int64)
    sig[normal] = np.rint(
        mag[normal] * np.exp2(fmt.mant_bits - e_val[normal].astype(np.float64))
    ).astype(np.int64)
    sig[denorm] = np.rint(mag[denorm] * np.exp2(fmt.mant_bits - fmt.e_min)).astype(np.int64)

    bad = np.zeros(a.shape, dtype=bool)
    bad[normal] = (
        sig[normal] * np.exp2(e_val[normal].astype(np.float64) - fmt.mant_bits) != mag[normal]
    ) | (e_val[normal] > fmt.e_max)
    bad[denorm] = (
        sig[denorm] * np.exp2(float(fmt.e_min - fmt.mant_bits)) != mag[denorm]
    ) | (not fmt.denormals)
    if bad.any():
        i = tuple(np.argwhere(bad)[0])
        raise ValueError(f"value {a[i]!r} is not representable in {fmt}")

    ones = (1 << fmt.exp_bits) - 1
    out[normal] = sign[normal] | (
        ((e_val[normal] + fmt.bias).astype(np.uint32) << fmt.mant_bits)
        | (sig[normal] - (1 << fmt.mant_bits)).astype(np.uint32)
    )
    out[denorm] = sign[denorm] | sig[denorm].astype(np.uint32)
    out[zero_mask] = sign[zero_mask]
    out[inf_mask] = sign[inf_mask] | np.uint32(ones << fmt.mant_bits)
    out[nan_mask] = np.uint32(canonical_nan16(fmt))
    return out.astype(np.uint16)


def decode16_array(words: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Vectorized :func:`decode16`. Returns float32."""
    _require_width16(fmt)
    w = np.asarray(words, dtype=np.uint16).astype(np.uint32)
    sign = np.where(w >> 15, -1.0, 1.0)
    exp_field = ((w >> fmt.mant_bits) & ((1 << fmt.exp_bits) - 1)).astype(np.int64)
    mant_field = (w & ((1 << fmt.mant_bits) - 1)).astype(np.int64)

    ones = (1 << fmt.exp_bits) - 1
    out = np.empty(w.shape, dtype=np.float64)

    special = exp_field == ones
    sub = exp_field == 0
    normal = ~special & ~sub

    if not fmt.denormals:
        mant_sub = np.zeros_like(mant_field)
    else:
        mant_sub = mant_field
    out[sub] = mant_sub[sub] * math.ldexp(1.0, fmt.e_min - fmt.mant_bits)
    out[normal] = (
        ((1 << fmt.mant_bits) + mant_field[normal]).astype(np.float64)
        * np.exp2((exp_field[normal] - fmt.bias - fmt.mant_bits).astype(np.float64))
    )
    out[special] = np.where(mant_field[special] == 0, np.inf, np.nan)
    out *= sign
    # NaN sign is not meaningful; decode to the canonical (positive) NaN.
    out[np.isnan(out)] = np.nan
    return out.astype(np.float32)
