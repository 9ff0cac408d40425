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
#
# A word is a binary32 bit pattern with its exponent rebiased and its
# mantissa cut short: the 15-bit magnitude field shifted left by 23 - p
# reads as binary32 as the format value times 2^(bias - 127), denormals
# included (their quantum becomes 2^(-126 - p) >= 2^-149).


def _require_width16(fmt: FpFormat) -> None:
    if fmt.width != 16:
        raise ValueError(f"{fmt} is {fmt.width} bits wide; encode16/decode16 need 16")


def _inf_word(fmt: FpFormat) -> int:
    return ((1 << fmt.exp_bits) - 1) << fmt.mant_bits


def canonical_nan16(fmt: FpFormat) -> int:
    """Canonical NaN word: sign 0, exponent all ones, mantissa MSB set."""
    _require_width16(fmt)
    return _inf_word(fmt) | (1 << (fmt.mant_bits - 1))


def encode16(value: float, fmt: FpFormat) -> int:
    """Encode a representable value into its 16-bit word."""
    return int(encode16_array(value, fmt))


def decode16(word: int, fmt: FpFormat) -> float:
    """Decode a 16-bit word. In /n formats, denormal encodings decode to
    signed zero (they are invalid and canonicalized away)."""
    if not 0 <= word < (1 << 16):
        raise ValueError(f"word {word!r} out of 16-bit range")
    return float(decode16_array(word, fmt))


def encode16_array(values: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Vectorized :func:`encode16` for tensor dumps. Returns uint16.

    Raises ValueError unless every value is representable in ``fmt``.
    """
    _require_width16(fmt)
    a = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # beyond binary32's range: rejected below
        scaled = (np.abs(a) * 2.0 ** (fmt.bias - 127)).astype(np.float32)
    words = np.minimum(scaled.view(np.uint32) >> (23 - fmt.mant_bits), _inf_word(fmt))
    words |= np.signbit(a).astype(np.uint32) << 15
    nan = np.isnan(a)
    words = np.where(nan, canonical_nan16(fmt), words)
    # A value is representable iff its word decodes back to it.
    bad = ~nan & (decode16_array(words, fmt) != a)
    if bad.any():
        raise ValueError(f"value {float(a[bad][0])!r} is not representable in {fmt}")
    return words.astype(np.uint16)


def decode16_array(words: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Vectorized :func:`decode16`. Returns float32; every NaN word
    decodes to the canonical (positive) NaN."""
    _require_width16(fmt)
    w = np.asarray(words, dtype=np.uint16).astype(np.uint32)
    mag = w & 0x7FFF
    if not fmt.denormals:
        mag = np.where(mag >> fmt.mant_bits == 0, 0, mag)
    inf = _inf_word(fmt)
    # Specials take binary32's infinity pattern, which the multiply keeps;
    # the NaN words are replaced afterwards.
    bits = np.where(mag < inf, mag << (23 - fmt.mant_bits), 0x7F800000) | (w >> 15 << 31)
    out = bits.view(np.float32) * np.float32(2.0 ** (127 - fmt.bias))
    return np.where(mag > inf, np.float32(np.nan), out)
