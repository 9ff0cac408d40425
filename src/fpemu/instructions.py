"""Mixed-precision multiply-accumulate instructions.

Four scalar instructions over a 16-bit-style format, differing in where
rounding happens and how wide the accumulator is:

  mac    a   <- round(a + round(x*y))          two roundings, format width
  macs   a32 <- round32(a32 + round(x*y))      product rounded, wide accumulate
  fmac   a   <- round(a + x*y)                 fused, single rounding, format width
  fmacs  a32 <- round32(a32 + x*y)             fused, wide accumulate

plus the chunked dot product ``fmac8_dot`` (a format-width fused
accumulator drained into a binary32 master every ``chunk`` elements) and
a ``matmul`` that reduces every output element with one of these
schedules in ascending index order.

Scalar calls go through exact integer arithmetic.  The tensor paths reach
the same bit-exact results differently.  One reduction serves all five
modes, driven by a per-mode table of three flags: round the products into
the format first (MAC, MACS), accumulate in binary32 (MACS, FMACS), and
drain a format-width accumulator into a binary32 master every ``chunk``
steps (FMAC8).  It consumes the exact products, binary64 values of at
most 48 significand bits, a block of steps at a time.  In the
format-width modes a TwoSum error term turns each binary64 addition into
round-to-odd, which the rounding kernel may then round to any format of
24 or fewer significand bits without double rounding.

The binary32-accumulator modes skip the rounding kernel in the reduction.
FMACS adds in binary64 and casts to float32.  That double rounding can
differ from one binary32 rounding only where the binary64 add was inexact
and its sum sits on a binary32 tie, or below binary32's minimum normal,
where its grid is coarser.  A block of steps is checked for such lanes
afterwards; the first step that has one is redone as a round-to-odd add,
which the cast then rounds correctly (53 >= 24 + 2; Boldo and Melquiond,
IEEE TC 2008), and the steps after it run again.  MACS rounds a block of
products into the format at once and sums them with a sequential float32
``np.add.accumulate``, the running sum (starting at +0) carried in as the
first row.  Both paths are tested against the rational oracle.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from . import _dyadic
from .formats import BINARY32, FpFormat
from .rounding import _ABS, _on_grid, roundfp_array

__all__ = [
    "AccumMode",
    "mac",
    "macs",
    "fmac",
    "fmacs",
    "fmac8_dot",
    "matmul",
    "matmul_wide",
]


class AccumMode(enum.Enum):
    MAC = "mac"
    MACS = "macs"
    FMAC = "fmac"
    FMACS = "fmacs"
    FMAC8 = "fmac8"

    @classmethod
    def parse(cls, name: "str | AccumMode") -> "AccumMode":
        if isinstance(name, cls):
            return name
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(
                f"unknown accumulate mode {name!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


def _check_operand(v: float, fmt: FpFormat, name: str) -> None:
    if not fmt.contains(v):
        raise ValueError(f"{name}={v!r} is not representable in {fmt}")


# ── scalar instructions ────────────────────────────────────────────────


def mac(a: float, x: float, y: float, fmt: FpFormat) -> float:
    """Unfused MAC at format width: round(a + round(x*y))."""
    _check_operand(a, fmt, "a")
    _check_operand(x, fmt, "x")
    _check_operand(y, fmt, "y")
    special, prod = _dyadic.mul_exact(x, y)
    r1 = special if special is not None else _dyadic.add_round(-0.0, prod, fmt)
    return _dyadic.add_round(a, r1, fmt)


def macs(a32: float, x: float, y: float, fmt: FpFormat) -> float:
    """Unfused MAC with a binary32 accumulator: round32(a32 + round(x*y))."""
    _check_operand(a32, BINARY32, "a32")
    _check_operand(x, fmt, "x")
    _check_operand(y, fmt, "y")
    special, prod = _dyadic.mul_exact(x, y)
    r1 = special if special is not None else _dyadic.add_round(-0.0, prod, fmt)
    return _dyadic.add_round(a32, r1, BINARY32)


def fmac(a: float, x: float, y: float, fmt: FpFormat) -> float:
    """Fused MAC at format width: one rounding of the exact a + x*y."""
    _check_operand(a, fmt, "a")
    _check_operand(x, fmt, "x")
    _check_operand(y, fmt, "y")
    return _dyadic.fused_add_round(a, x, y, fmt)


def fmacs(a32: float, x: float, y: float, fmt: FpFormat) -> float:
    """Fused MAC with a binary32 accumulator: round32(a32 + x*y)."""
    _check_operand(a32, BINARY32, "a32")
    _check_operand(x, fmt, "x")
    _check_operand(y, fmt, "y")
    return _dyadic.fused_add_round(a32, x, y, BINARY32)


def fmac8_dot(w, x, fmt: FpFormat, chunk: int = 8) -> float:
    """Chunked fused dot product, the sum-of-products a dot unit built
    from FMAC instructions would produce.

    A format-width fused accumulator handles each product; every
    ``chunk`` steps (checked before the step, so i = 0 harmlessly drains
    a zero) it is added into a binary32 master accumulator and cleared.
    After a final drain the master is rounded back to ``fmt``.
    """
    w = list(map(float, w))
    x = list(map(float, x))
    if len(w) != len(x):
        raise ValueError(f"length mismatch: {len(w)} vs {len(x)}")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    for i, v in enumerate(w):
        _check_operand(v, fmt, f"w[{i}]")
    for i, v in enumerate(x):
        _check_operand(v, fmt, f"x[{i}]")
    master = 0.0
    acc = 0.0
    for i in range(len(w)):
        if i % chunk == 0:
            master = _dyadic.add_round(master, acc, BINARY32)
            acc = 0.0
        acc = _dyadic.fused_add_round(acc, w[i], x[i], fmt)
    master = _dyadic.add_round(master, acc, BINARY32)
    return _dyadic.add_round(-0.0, master, fmt)  # -0.0 keeps a zero's sign


# ── vectorized kernels ─────────────────────────────────────────────────


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth TwoSum: s = fl(a+b) and the exact error a+b-s.

    Lanes holding infinities produce NaN error terms; callers mask them
    out, so the numpy invalid-value flag is suppressed here.
    """
    with np.errstate(invalid="ignore"):
        s = a + b
        bb = s - a
        err = (a - (s - bb)) + (b - bb)
    return s, err


def _add_round_to_odd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Binary64 sum of a and b, rounded to odd.

    Round-to-odd keeps a sticky record of inexactness in the last bit, so
    a following round-to-nearest into 24 or fewer significand bits equals
    a single rounding of the exact sum (53 >= 24 + 2).
    """
    s, err = _two_sum(a, b)
    needs_nudge = (err != 0) & np.isfinite(s)
    if not needs_nudge.any():
        return s
    bits = s.view(np.uint64) if isinstance(s, np.ndarray) else np.array([s]).view(np.uint64)
    odd = (bits & np.uint64(1)).astype(bool)
    needs_nudge &= ~odd
    # Nudge one ulp toward the discarded error.  Adjacent floats differ in
    # the last bit, so the neighbor in either direction has an odd LSB.
    toward = np.where(err > 0, np.inf, -np.inf)
    return np.where(needs_nudge, np.nextafter(s, toward), s)


def _fused_step_array(acc: np.ndarray, prod: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """round(acc + prod, fmt) elementwise, exactly once.  Both float64;
    ``prod`` is an exact product (at most 48 significand bits)."""
    return roundfp_array(_add_round_to_odd(acc, prod), fmt).astype(np.float64)


def _coerce_matrix(m, fmt: FpFormat, name: str) -> np.ndarray:
    """Validate a matmul operand and hand back float64 data."""
    a = np.asarray(m, dtype=np.float64)
    ok = _on_grid(a, fmt)
    if not ok.all():
        i = tuple(np.argwhere(~ok)[0])
        raise ValueError(f"{name}{list(i)} = {a[i]!r} is not representable in {fmt}")
    return a


# Products are formed a K-block at a time as a (kb, m, n) tensor of at
# most _BLOCK_ELEMS elements and _BLOCK_STEPS steps.  The step cap bounds
# what one FMACS fix-up re-runs.
_BLOCK_ELEMS = 1 << 14
_BLOCK_STEPS = 256

_B32_DROPPED = np.uint64((1 << 29) - 1)  # binary64 significand bits below binary32's
_B32_TIE = np.uint64(1 << 28)
_B32_TINY = np.uint64(0x3810000000000000 - 1)  # bits of 2^-126, less one


def _product_blocks(a: np.ndarray, b: np.ndarray):
    """Yield the exact products a[:, i] * b[i, :] as (kb, m, n) blocks in
    ascending i."""
    m, k = a.shape
    n = b.shape[1]
    kb = max(1, min(_BLOCK_STEPS, _BLOCK_ELEMS // max(1, m * n)))
    at = a.T
    for k0 in range(0, k, kb):
        yield at[k0:k0 + kb, :, None] * b[k0:k0 + kb, None, :]


def _may_double_round32(s: np.ndarray) -> np.ndarray:
    """Lanes where, if s is an inexact binary64 sum, casting it to float32
    may differ from rounding the exact sum once: binary32 ties, and nonzero
    magnitudes below 2^-126, where binary32's grid is coarser."""
    bits = s.view(np.uint64)
    tie = (bits & _B32_DROPPED) == _B32_TIE
    mag = bits & _ABS
    mag -= np.uint64(1)  # zero wraps to the top, out of the tiny band
    return tie | (mag < _B32_TINY)


def _fmacs_block(rows: np.ndarray, prods: np.ndarray) -> None:
    """FMACS steps over one block: rows[i + 1] = round32(rows[i] + prods[i]).

    ``rows`` is float32 with the running sum in row 0; ``prods`` holds the
    exact binary64 products.  Each step is a binary64 add cast to float32.
    The whole block is then checked at once: a step can have rounded
    twice only where the binary64 add was inexact and its sum may double
    round (:func:`_may_double_round32`).  The first such step is redone
    with a round-to-odd add, and the steps after it are run again.
    """
    start = 0
    while start < len(prods):
        for i in range(start, len(prods)):
            np.add(rows[i], prods[i], out=rows[i + 1], casting="unsafe")
        s, err = _two_sum(rows[start:-1].astype(np.float64), prods[start:])
        bad = (err != 0) & _may_double_round32(s)
        if not bad.any():
            return
        i = start + int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))
        rows[i + 1] = _add_round_to_odd(rows[i].astype(np.float64), prods[i])
        start = i + 1


class _Schedule(NamedTuple):
    """Where an accumulate mode rounds."""

    round_products: bool  # round each product into fmt before adding it
    wide: bool            # accumulate in binary32 instead of in fmt
    drains: bool          # drain the fmt accumulator into a binary32 master every chunk steps


_SCHEDULES = {
    AccumMode.MAC: _Schedule(round_products=True, wide=False, drains=False),
    AccumMode.MACS: _Schedule(round_products=True, wide=True, drains=False),
    AccumMode.FMAC: _Schedule(round_products=False, wide=False, drains=False),
    AccumMode.FMACS: _Schedule(round_products=False, wide=True, drains=False),
    AccumMode.FMAC8: _Schedule(round_products=False, wide=False, drains=True),
}


def _reduce(blocks, shape: tuple[int, ...], fmt: FpFormat, mode: AccumMode, chunk: int) -> np.ndarray:
    """Reduce each lane of a stream of exact product blocks under ``mode``.

    ``blocks`` yields float64 arrays of shape ``(steps, *shape)`` in
    ascending step order.  Returns the final accumulator as float32: the
    format-width one for MAC and FMAC, the binary32 one for MACS, FMACS
    and FMAC8's master.  NaN lanes hold the canonical NaN.
    """
    s = _SCHEDULES[mode]
    # IEEE specials (inf - inf, 0 * inf) legitimately produce NaN lanes,
    # and binary32 accumulators legitimately overflow to infinity.
    with np.errstate(invalid="ignore", over="ignore"):
        if s.wide:
            # Row 0 of each block carries the binary32 running sum.
            acc = np.zeros((1, *shape), dtype=np.float32)
            for prods in blocks:
                if s.round_products:
                    # One float32 add per rounded product, in ascending order.
                    rows = np.concatenate([acc, roundfp_array(prods, fmt)])
                    np.add.accumulate(rows, axis=0, out=rows)
                else:
                    rows = np.concatenate([acc, np.empty(prods.shape, np.float32)])
                    _fmacs_block(rows, prods)
                acc = rows[-1:]
            out = acc[0].copy()
        else:
            acc = np.zeros(shape)
            master = np.zeros(shape, dtype=np.float32)
            i = 0
            for prods in blocks:
                if s.round_products:
                    prods = roundfp_array(prods, fmt).astype(np.float64)
                for prod in prods:
                    if s.drains and i % chunk == 0:
                        master += acc.astype(np.float32)
                        acc = np.zeros(shape)
                    acc = _fused_step_array(acc, prod, fmt)
                    i += 1
            out = acc.astype(np.float32)
            if s.drains:
                out += master  # the final drain
    out[np.isnan(out)] = np.nan
    return out


def _accumulate(a, b, fmt: FpFormat, mode: "AccumMode | str", chunk: int) -> np.ndarray:
    """Check the arguments of a matmul and reduce: the accumulator state."""
    mode = AccumMode.parse(mode)
    if chunk < 1:
        raise ValueError("chunk must be positive")
    fa = _coerce_matrix(a, fmt, "a")
    fb = _coerce_matrix(b, fmt, "b")
    (m, k), (k2, n) = fa.shape, fb.shape
    if k != k2:
        raise ValueError(f"shape mismatch: ({m}, {k}) @ ({k2}, {n})")
    return _reduce(_product_blocks(fa, fb), (m, n), fmt, mode, chunk)


def matmul(
    a,
    b,
    fmt: FpFormat,
    mode: "AccumMode | str" = AccumMode.FMACS,
    chunk: int = 8,
) -> np.ndarray:
    """Matrix product with emulated accumulation, output rounded to fmt.

    Every output element is reduced independently over ascending inner
    index, so results are bit-deterministic regardless of tensor shapes
    or threading.  Returns float32.
    """
    return roundfp_array(_accumulate(a, b, fmt, mode, chunk), fmt)


def matmul_wide(
    a,
    b,
    fmt: FpFormat,
    mode: "AccumMode | str" = AccumMode.FMACS,
    chunk: int = 8,
) -> np.ndarray:
    """Like :func:`matmul` but without the final rounding into ``fmt``.

    Returns the binary32 accumulator state (float32).  This is the
    weight-gradient path: inputs are format values, the reduction follows
    the accumulate mode, and the result stays at binary32 width for the
    master-weight update.
    """
    return _accumulate(a, b, fmt, mode, chunk)
