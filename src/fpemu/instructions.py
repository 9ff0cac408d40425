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

``fmac8_dot`` runs short vectors, and long ones with few chunks, in an
exact loop, and the others as a 1 x K by K x 1 product through
``matmul``'s FMAC8 reduction below; the bits are the same.

Scalar calls go through the exact integer arithmetic of ``_dyadic``.
Each operand is checked and taken apart once by ``as_integer_ratio``
into a pair (M, k) meaning M * 2^k, tested with ``FpFormat.contains_mk``
(the test behind ``contains``).  The product ``Mx * My`` at ``kx + ky``
is shifted into line with the accumulator, added, and rounded by one
integer primitive, ``_dyadic.round_int``.  The four instructions are one
step that reads where to round from ``_SCHEDULES``, the per-mode table
that also drives the tensor reduction below; ``fmac8_dot``'s exact loop
runs the same steps.  A step that meets NaN or an infinity (an
operand, or a product or accumulator rounded to an infinity) is
binary64's own sum, ``_dyadic.special_sum``, which no rounding changes.

The tensor paths reach the same bit-exact results differently.  One
reduction serves all five modes, driven by a per-mode table of three
flags: round the products into the format first (MAC, MACS), accumulate
in binary32 (MACS, FMACS), and drain a format-width accumulator into a
binary32 master every ``chunk`` steps (FMAC8).  It consumes the exact
products a block of steps at a time, and never calls the rounding kernel
per step.  A float32 operand is checked on its own bits, since every
format is a subset of binary32.  The products are binary32 numbers where
the format allows it: with p <= 11 and e <= 7 (1/5/10 and 1/6/9 among
them) a product has at most 24 significand bits, a multiple of 2^-149 and
a magnitude below 2^128, so a float32 multiply is exact.  Other formats'
products are binary64 values of at most 48 significand bits.

Every step rounds into an accumulator format: binary32 for MACS and
FMACS, the format itself for MAC, FMAC and FMAC8.  MACS and FMACS blocks
whose products are all binary32 numbers are float32 running sums down
the block, with the running sum (starting at +0) as the first row: a
float32 add of a binary32 product is already the one rounding.  MACS's
rounded products always are, and so are products formed in binary32,
with no check.  A block of binary64 products is tried in float32 only
where the format's products have at most 24 significand bits, as
1/8/7's do, and most of its blocks pass; binary32's and 1/7/12's almost
never would.  The running sums are a Python loop of row adds where a
row has many lanes and one ``np.add.accumulate`` otherwise, whichever is
faster; the bits are the same.

Every other step is a cheap one, a binary64 add and a rounding of the
sum into the accumulator format, run on flat rows (one lane per element)
that a reduction makes once and reuses for each of its blocks.  In
binary32 (binary32 operands, 1/7/12, or 1/8/7 products below 2^-149) a
block of binary64 sums is loaded with the products, and each step is
one add of the float32 row into its sum and one cast of the sum into
the next float32 row.  At format width it is the rounding kernel's
magic-constant rounding ``(s + M) - M`` with ``M = 1.5 * 2^(E-p+52)``
for the sum's exponent E (at least e_min), built by the same helper as
the kernel's ``M`` (:func:`rounding._magic`) but without its clamp at
e_max + 1, which sums below 2^(2 * e_max + 3) never need; then the sum's
sign for zeros and, in /n formats, a flush to signed zero.

One rule covers both widths.  RNE is monotone and the accumulator
format's midpoints are binary64 numbers, so a cheap step differs from
rounding the exact sum only where the add was inexact and its sum is a
midpoint of the gradual-underflow grid; the magic-constant step also
leaves a sum above ``max_finite`` finite, which a float32 row cannot
hold.  After a block, one check looks for both; in binary32 it reads
the kept sums on their bits (at or above 2^-126 a midpoint's 29 low bits
are 2^28; below, it is an odd multiple of 2^-150).  Only flagged lanes
get the TwoSum inexactness test, and those found inexact in the first
step that has any are redone exactly, and the steps after it again.
The exact redo is a TwoSum round-to-odd add followed by one
round-to-nearest, which for 24 or fewer significand bits is one correct
rounding (53 >= 24 + 2; Boldo and Melquiond, IEEE TC 2008).  FMAC8's
accumulator restarts every ``chunk`` steps, and its product blocks hold
whole chunks, at least one and at least enough for 16 lanes (chunks x
m x n), with no cap on their steps.  The chunks run side by side as
lanes of one reduction and drain into the master only after the block
has passed its check.  All paths are tested against the rational oracle.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from . import _dyadic
from .formats import BINARY32, FpFormat
from .rounding import _grid, _magic, _on_grid, _products_fit_binary32, roundfp_array

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


# ── scalar instructions ────────────────────────────────────────────────


def mac(a: float, x: float, y: float, fmt: FpFormat) -> float:
    """Unfused MAC at format width: round(a + round(x*y))."""
    return _step(AccumMode.MAC, a, x, y, fmt)


def macs(a32: float, x: float, y: float, fmt: FpFormat) -> float:
    """Unfused MAC with a binary32 accumulator: round32(a32 + round(x*y))."""
    return _step(AccumMode.MACS, a32, x, y, fmt)


def fmac(a: float, x: float, y: float, fmt: FpFormat) -> float:
    """Fused MAC at format width: one rounding of the exact a + x*y."""
    return _step(AccumMode.FMAC, a, x, y, fmt)


def fmacs(a32: float, x: float, y: float, fmt: FpFormat) -> float:
    """Fused MAC with a binary32 accumulator: round32(a32 + x*y)."""
    return _step(AccumMode.FMACS, a32, x, y, fmt)


def _step(mode: AccumMode, a, x, y, fmt: FpFormat) -> float:
    """a + x*y on exact pairs, rounded where ``mode``'s schedule says;
    a, x and y are checked in that order, a in the accumulator format."""
    s = _SCHEDULES[mode]
    acc_fmt = BINARY32 if s.wide else fmt
    pa = _pair(a, acc_fmt, "a32" if s.wide else "a")
    px, py = _pair(x, fmt, "x"), _pair(y, fmt, "y")
    if px is None or py is None:
        return _dyadic.special_sum(a, float(x) * float(y))
    pm, pk = px[0] * py[0], px[1] + py[1]
    if s.round_products and pm:
        pm, pk = _dyadic.round_int(pm, pk, fmt)
        if pk is None:  # the rounded product is an infinity
            return _dyadic.special_sum(a, math.inf if pm > 0 else -math.inf)
    if pa is None:
        return _dyadic.special_sum(a, 0.0)  # a finite product changes no NaN or infinity
    am, ak = pa
    if not (am or pm):  # two zeros; the product's sign is that of the exact x*y
        return _dyadic.special_sum(a, math.copysign(0.0, float(x) * float(y)))
    if ak < pk:
        return _dyadic.round_mk(am + (pm << (pk - ak)), ak, acc_fmt)
    return _dyadic.round_mk(pm + (am << (ak - pk)), pk, acc_fmt)


def _pair(v, fmt: FpFormat, name: str) -> "tuple[int, int] | None":
    """v as its exact pair (M, k) meaning M * 2^k, or None for NaN and the
    infinities; raises if v is not in ``fmt`` (``FpFormat.contains``'s test)."""
    if not -math.inf < v < math.inf:
        return None
    m, d = v.as_integer_ratio()
    k = 1 - d.bit_length()
    if d & (d - 1) or not fmt.contains_mk(m, k):  # not dyadic, or not in fmt
        raise ValueError(f"{name}={v!r} is not representable in {fmt}")
    return m, k


def _split(values: list[float], fmt: FpFormat, name: str) -> list:
    """:func:`_pair` of each float, inlined for ``fmac8_dot``'s loop and
    without its dyadic test, which every float passes."""
    out = []
    contains_mk = fmt.contains_mk
    for i, v in enumerate(values):
        if -math.inf < v < math.inf:
            m, d = v.as_integer_ratio()
            k = 1 - d.bit_length()
            if not contains_mk(m, k):
                raise ValueError(f"{name}[{i}]={v!r} is not representable in {fmt}")
            out.append((m, k))
        else:
            out.append(None)
    return out


# fmac8_dot hands a vector to the tensor FMAC8 reduction when it has at
# least _TENSOR_DOT_MIN_K elements and _TENSOR_DOT_MIN_CHUNKS whole chunks.
# The exact loop costs about 1.7 us an element.  The reduction runs a
# block's chunks side by side, at about 90 us plus 5 us per step of a
# chunk, so its cost grows with the chunk, not with K.  The two cross near
# K = 48 to 80 at chunks of 1 to 4, and near 4 chunks at K = 1,024.  At
# the rule's edges the reduction is 1.2 to 2.7x faster (K = 96, chunks 1
# to 6) and 3.8 to 4.0x faster (K = 1,024, chunk 64); at K = 1,024 and
# chunk 8 it is 9.5x faster (best of 5 to 7, 2-vCPU Xeon container, numpy
# 2.4.6).
_TENSOR_DOT_MIN_K = 96
_TENSOR_DOT_MIN_CHUNKS = 16


def fmac8_dot(w, x, fmt: FpFormat, chunk: int = 8) -> float:
    """Chunked fused dot product, the sum-of-products a dot unit built
    from FMAC instructions would produce.

    A format-width fused accumulator handles each product; after every
    ``chunk`` steps, and after the last step, it is added into a binary32
    master accumulator and cleared.  The master is then rounded back to
    ``fmt``.

    Two bodies give the same bits.  Vectors of at least 96 elements and
    16 whole chunks (``_TENSOR_DOT_MIN_K``, ``_TENSOR_DOT_MIN_CHUNKS``)
    are reduced as a 1 x K by K x 1 product by :func:`matmul`'s FMAC8
    reduction (:func:`_reduce_products`); the others run the exact loop
    (:func:`_fmac8_dot_exact`), which is the cheaper there.  Either way
    all of ``w`` is checked before ``x``, and the error names the first
    operand not in ``fmt``.
    """
    n = len(w)
    if not (n >= _TENSOR_DOT_MIN_K and 1 <= chunk <= n // _TENSOR_DOT_MIN_CHUNKS and len(x) == n):
        return _fmac8_dot_exact(w, x, fmt, chunk)
    with np.errstate(invalid="ignore"):  # a cast quiets a signaling NaN, a member like any NaN
        fw, fx = np.asarray(w, dtype=np.float64), np.asarray(x, dtype=np.float64)
        for name, v in (("w", fw), ("x", fx)):
            ok = _on_grid(v, fmt)
            if not ok.all():
                i = int(np.argmin(ok))
                raise ValueError(f"{name}[{i}]={float(v[i])!r} is not representable in {fmt}")
        acc = _reduce_products(fw[None, :], fx[:, None], fmt, AccumMode.FMAC8, chunk)
    return float(roundfp_array(acc, fmt)[0, 0])


def _fmac8_dot_exact(w, x, fmt: FpFormat, chunk: int = 8) -> float:
    """:func:`fmac8_dot` in exact integer arithmetic, one step at a time.

    All of ``w`` is checked before ``x``.  Finite steps and drains run on
    exact pairs (see the module docstring); a step or drain with a NaN or
    infinite side is a binary64 sum (:func:`_dyadic.special_sum`), and
    its result is never finite.

    Signs of zero are not tracked in the pairs.  The master starts at +0
    and every nonzero sum of binary32 values is at least 2^-149 in
    magnitude, so its binary32 rounding is never zero and the master
    never holds -0.  A zero accumulator therefore drains as a no-op
    whatever its sign, and a zero product leaves the accumulator's value
    as it is.  Only the final rounding can give -0, from a negative
    master that underflows in ``fmt``.
    """
    w = list(map(float, w))
    x = list(map(float, x))
    if len(w) != len(x):
        raise ValueError(f"length mismatch: {len(w)} vs {len(x)}")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    prods = [None if a is None or b is None else (a[0] * b[0], a[1] + b[1])
             for a, b in zip(_split(w, fmt, "w"), _split(x, fmt, "x"))]
    round_int = _dyadic.round_int
    mm = mk = 0  # the master is mm * 2^mk, or the float `master` once it is not finite
    master = None
    for c0 in range(0, len(prods), chunk):
        am = ak = 0  # likewise the accumulator and `acc`
        acc = None
        for i in range(c0, min(c0 + chunk, len(prods))):
            p = prods[i]
            if acc is None and p is not None:
                pm, pk = p
                if not pm:
                    continue
                if am:
                    if ak < pk:
                        pm, pk = am + (pm << (pk - ak)), ak
                    else:
                        pm += am << (ak - pk)
                    if not pm:
                        am = 0
                        continue
                am, ak = round_int(pm, pk, fmt)
                if ak is None:
                    acc = math.inf if pm > 0 else -math.inf
            else:
                acc = _dyadic.special_sum(math.ldexp(am, ak) if acc is None else acc, w[i] * x[i])
        if master is None and acc is None:
            if not mm:
                mm, mk = am, ak  # acc is a format value, hence a binary32 one
            elif am:
                if mk < ak:
                    sm, sk = mm + (am << (ak - mk)), mk
                else:
                    sm, sk = am + (mm << (mk - ak)), ak
                mm, mk = round_int(sm, sk, BINARY32) if sm else (0, 0)
                if mk is None:
                    master = math.inf if sm > 0 else -math.inf
        else:
            master = _dyadic.special_sum(math.ldexp(mm, mk) if master is None else master,
                                         math.ldexp(am, ak) if acc is None else acc)
    if master is None:
        return _dyadic.round_mk(mm, mk, fmt)
    return master  # NaN or an infinity, which no rounding changes


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
    odd = (s.view(np.uint64) & np.uint64(1)).astype(bool)
    needs_nudge &= ~odd
    # Nudge one ulp toward the discarded error.  Adjacent floats differ in
    # the last bit, so the neighbor in either direction has an odd LSB.
    toward = np.where(err > 0, np.inf, -np.inf)
    return np.where(needs_nudge, np.nextafter(s, toward), s)


def _fused_step_array(acc: np.ndarray, prod: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """round(acc + prod, fmt) elementwise, exactly once, as float64.
    ``acc`` is float64 or float32; ``prod`` is a float64 exact product (at
    most 48 significand bits)."""
    return roundfp_array(_add_round_to_odd(acc, prod), fmt).astype(np.float64)


# Products are formed a K-block at a time as a (kb, m, n) tensor of about
# _BLOCK_ELEMS elements.  The modes that do not drain take at most
# _BLOCK_STEPS steps a block, which bounds what one redo in _checked_steps
# re-runs.  FMAC8 blocks hold whole chunks, at least one and at least
# _FMAC8_LANES lanes (chunks x m x n), and run min(chunk, kb) steps, so a
# redo re-runs at most one chunk.  In 4 lanes, fmac8_dot at K = 65,536 and
# chunk 4,096 took 100 ms, against 30 ms in 16 (best of 7, 2-vCPU Xeon
# container, numpy 2.4.6).
_BLOCK_ELEMS = 1 << 14
_BLOCK_STEPS = 256
_FMAC8_LANES = 16

_HALF_QUANTUM = np.uint64(53 << 52)  # exponent bits from a magic constant down to half its quantum
# A binary64 sum of at least 2^-126 is a binary32 midpoint iff its 29 low
# bits are 2^28, half binary32's quantum; one below is iff it is an odd
# multiple of 2^-150.
_LOW29 = np.uint64((1 << 29) - 1)
_HALF_ULP32 = np.uint64(1 << 28)
_MIN_NORMAL32 = 2.0**-126


def _product_blocks(a: np.ndarray, b: np.ndarray, chunk: "int | None"):
    """Yield the exact products a[:, i] * b[i, :] as (kb, m, n) blocks in
    ascending i, in the operands' width.  ``chunk`` is FMAC8's, whose
    blocks are whole chunks, or None for the other modes."""
    m, k = a.shape
    n = b.shape[1]
    lanes = max(1, m * n)
    if chunk is None:
        kb = max(1, min(_BLOCK_STEPS, _BLOCK_ELEMS // lanes))
    else:  # no more chunks than k has, so that no numpy-int chunk * chunks overflows
        chunks = max(_BLOCK_ELEMS // chunk // lanes, -(-_FMAC8_LANES // lanes))
        kb = chunk * max(1, min(chunks, -(-k // chunk)))
    at = np.ascontiguousarray(a.T)  # a strided a.T multiplies about 1.7x slower
    for k0 in range(0, k, kb):
        yield at[k0:k0 + kb, :, None] * b[k0:k0 + kb, None, :]


# np.add.accumulate(axis=0) runs a strided inner loop down each lane,
# about 2.5 ns a lane and step and more on short blocks; a Python loop of
# row adds costs about 0.4 us a step plus 0.4 ns a lane and step.  On
# float32 blocks of 2 to 256 steps the loop is the faster above 96 to 192
# lanes (more lanes for more steps), 5 to 14x faster at 3,456 lanes and
# 2 to 5x slower at 27 (2-vCPU Xeon container, numpy 2.4.6).
_LOOP_LANES = 160


def _running_sums(rows: np.ndarray) -> None:
    """rows[i + 1] = rows[i] + rows[i + 1] in ascending i, in place: the
    ordered running sums down axis 0, one rounding per add.  A row loop
    where rows hold more than ``_LOOP_LANES`` lanes, else one
    ``np.add.accumulate``; both give the same bits."""
    if rows[0].size > _LOOP_LANES:
        row = list(rows)
        for prev, cur in zip(row, row[1:]):
            np.add(prev, cur, out=cur)
    else:
        np.add.accumulate(rows, axis=0, out=rows)


class _Rows:
    """The accumulator rows of a reduction, made once and reused by each
    of its blocks.

    ``rows[i + 1]`` holds the accumulator after step i of a block, and row
    0 the running sum carried into it.  A block of n steps uses the first
    n + 1 rows, so the rows are made for the longest block.  The checked
    steps use them as flat rows, one lane per element, and a binary32
    accumulator stepped on binary64 products also keeps each step's
    binary64 sum.  Both are made on first use, with their row views.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows  # C-contiguous, so its lanes flatten in place
        self._flat = self._sums = None

    @property
    def flat(self) -> tuple[np.ndarray, list]:
        """The rows, one lane per element, and their row views."""
        if self._flat is None:
            flat = self.rows.reshape(len(self.rows), -1)
            self._flat = flat, list(flat)
        return self._flat

    @property
    def sums(self) -> tuple[np.ndarray, list]:
        """A binary64 sum for each step and lane, and its row views."""
        if self._sums is None:
            flat = self.flat[0]
            sums = np.empty((len(flat) - 1, flat.shape[1]))
            self._sums = sums, list(sums)
        return self._sums


def _inexact(bad: np.ndarray, acc: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``bad`` narrowed, in place, to its lanes where the binary64 add
    acc + p was inexact (TwoSum's error term is not zero)."""
    if np.count_nonzero(bad):  # about 1 µs faster than any() on small masks
        bad[bad] = _two_sum(acc[bad], p[bad])[1] != 0
    return bad


def _checked_steps(row: list, prods: np.ndarray, steps, flagged, acc_fmt: FpFormat) -> None:
    """row[i + 1] = round(row[i] + prods[i], acc_fmt) over one block of
    n = len(prods) steps of binary64 products ``prods``, flat (n, lanes),
    with ``row`` the flat rows' views.

    ``steps(start)`` runs the cheap steps start to n - 1, each rounding
    the binary64 sum s = acc + prod into ``acc_fmt`` on flat rows.  RNE is
    monotone and ``acc_fmt``'s midpoints are binary64 numbers, so a cheap
    step can differ from rounding the exact sum only where the add was
    inexact and s is a midpoint of ``acc_fmt``'s gradual-underflow grid;
    and the format-width step, which never overflows, may leave a value
    above ``max_finite`` finite (a finite float32 never is).
    ``flagged(start)`` checks steps start to n - 1 for both, and returns
    them as a (steps, lanes) mask.  The flagged lanes of the first step
    that has any are redone exactly with :func:`_fused_step_array`, and
    the steps after it are run and checked again.
    """
    start = 0
    while True:
        steps(start)
        bad = flagged(start)
        if not np.count_nonzero(bad):
            return
        i = int(np.argmax(bad.any(axis=1)))
        lanes = bad[i]
        i += start
        row[i + 1][lanes] = _fused_step_array(row[i][lanes], prods[i][lanes], acc_fmt)
        start = i + 1


def _reduce_rows(rows: "_Rows | np.ndarray", prods: np.ndarray, acc_fmt: FpFormat) -> None:
    """Accumulate one block of n = len(prods) steps: rows[i + 1] =
    round(rows[i] + prods[i], acc_fmt), with the running sum in row 0 and
    exact products in ``prods``.  ``rows`` is a :class:`_Rows`, of which
    the first n + 1 rows are used, or a C-contiguous array of n + 1 rows.

    float32 ``rows`` hold a binary32 accumulator (``acc_fmt`` is BINARY32).
    Where ``prods`` are float32, binary32 numbers (MACS's rounded products,
    the products of formats whose products all fit binary32, and 1/8/7
    blocks that :func:`_reduce` found to be), a float32 add of a product
    is already the one rounding, and the block is the running sums of
    :func:`_running_sums`.  Otherwise the ``sums`` of ``rows`` are loaded
    with the products and each step is one add into its sum,
    ``sums[i] += rows[i]`` in binary64, cast into ``rows[i + 1]``.  The
    check reads those sums rather than forming them again: at or above
    2^-126 a sum is a binary32 midpoint iff its 29 low bits are 2^28, and
    the few sums below 2^-126, zeros among them, are midpoints iff they
    are odd multiples of 2^-150 (an exact ``fmod``).  After a redo the
    sums of the later steps are loaded again.

    float64 ``rows`` hold a format-width accumulator.  Each step rounds the
    binary64 sum s as (s + M) - M, where the magic constant
    M = 1.5 * 2^(E - p + 52) from :func:`rounding._magic` puts the format's
    quantum at s's exponent E (at least e_min) into M's last place.  For inf
    and NaN, M wraps into a tiny negative value that leaves the lane as it
    is.  The step then gives zeros the sign of s and, for /n formats,
    flushes a denormal to signed zero.  The check recomputes s and its
    distance to the grid, and flags finite results above ``max_finite``.

    Both cheap steps are checked and redone by :func:`_checked_steps`.
    """
    if not isinstance(rows, _Rows):
        rows = _Rows(rows)
    n = len(prods)
    if rows.rows.dtype == prods.dtype == np.float32:
        block = rows.rows[:n + 1]
        block[1:] = prods
        _running_sums(block)
        return
    flat, row = rows.flat
    flat = flat[:n + 1]
    prods = prods.reshape(n, -1)
    if flat.dtype == np.float32:
        sums, s = rows.sums
        sums = sums[:n]

        def steps(start):
            sums[start:] = prods[start:]
            for acc, si, out in zip(row[start:n], s[start:n], row[start + 1:n + 1]):
                np.add(acc, si, out=si)
                out[...] = si

        def flagged(start):
            bad = (sums[start:].view(np.uint64) & _LOW29) == _HALF_ULP32
            mag = np.abs(sums[start:])
            tiny = mag < _MIN_NORMAL32
            if np.count_nonzero(tiny):  # zeros, or the denormal band: odd multiples of 2^-150
                bad[tiny] = np.fmod(mag[tiny] * 2.0**150, 2.0) == 1
            return _inexact(bad, flat[start:n], prods[start:])
    else:
        prods = prods.astype(np.float64, copy=False)
        prod = list(prods)
        # M needs no clamp: |s| < 2^(2 * e_max + 3), and M of inf and NaN is harmless.
        g = _grid(acc_fmt)
        flush_below = None if acc_fmt.denormals else acc_fmt.min_normal

        def steps(start):
            for i in range(start, n):
                out = row[i + 1]
                np.add(row[i], prod[i], out=out)
                m = _magic(out, g, clamp=False).view(np.float64)
                r = out + m
                r -= m
                np.copysign(r, out, out=out)
                if flush_below is not None:
                    out *= np.abs(out) >= flush_below

        def flagged(start):
            # s's distance to its nearest grid point, against half the quantum
            acc, p = flat[start:n], prods[start:]
            s = acc + p
            m = _magic(s, g, clamp=False)
            mf = m.view(np.float64)
            d = s + mf
            d -= mf
            d -= s
            m &= g.exp
            m -= _HALF_QUANTUM  # now half the quantum
            bad = _inexact(np.abs(d, out=d) == mf, acc, p)
            mag = np.abs(flat[start + 1:])
            bad |= (mag > acc_fmt.max_finite) & (mag < np.inf)
            return bad

    _checked_steps(row, prods, steps, flagged, acc_fmt)


def _fmac8_block(master: np.ndarray, prods: np.ndarray, chunk: int, fmt: FpFormat) -> np.ndarray:
    """FMAC8 over one block of whole ``chunk``-step chunks, the last one
    possibly partial; returns the new binary32 ``master``.

    The format-width accumulator restarts from +0 every chunk, so the
    chunks run side by side as lanes of one ``min(chunk, len(prods))``-step
    reduction.  Only a partial last chunk is padded, with -0 products,
    which leave any accumulator as it is.  After the reduction passes its
    check, the chunks drain into ``master`` in order, each a float32 add.
    """
    if not len(prods):  # no steps, as in a dot product of empty vectors
        return master
    width = min(chunk, len(prods))
    segs = -(-len(prods) // width)
    padded = np.full((segs * width, *master.shape), -0.0)
    padded[:len(prods)] = prods
    rows = np.zeros((width + 1, segs, *master.shape))
    _reduce_rows(rows, padded.reshape(segs, width, *master.shape).swapaxes(0, 1), fmt)
    sums = np.concatenate([master[None], rows[-1].astype(np.float32)])
    _running_sums(sums)
    return sums[-1]


def _reduce(blocks, shape: tuple[int, ...], fmt: FpFormat, mode: AccumMode, chunk: int) -> np.ndarray:
    """Reduce each lane of a stream of exact product blocks under ``mode``.

    ``blocks`` yields float32 or float64 arrays of shape ``(steps, *shape)``
    in ascending step order; every FMAC8 block holds whole ``chunk``-step
    chunks, except possibly the last.  Returns the final accumulator as
    float32: the format-width one for MAC and FMAC, the binary32 one for
    MACS, FMACS and FMAC8's master.  NaN lanes hold the canonical NaN.

    An FMACS block of binary64 products is tried in float32 where the
    format's products have at most 24 significand bits (2p + 2 <= 24, as
    in 1/8/7), and summed there if every product is a binary32 number.
    The other formats with binary64 products (binary32, 1/7/12) almost
    never pass, so they are not tried.  One :class:`_Rows` serves every
    block.
    """
    s = _SCHEDULES[mode]
    # IEEE specials (inf - inf, 0 * inf) legitimately produce NaN lanes,
    # and binary32 accumulators legitimately overflow to infinity.
    with np.errstate(invalid="ignore", over="ignore"):
        acc = np.zeros(shape, dtype=np.float32 if s.wide or s.drains else np.float64)
        rows = None
        for prods in blocks:
            if s.round_products:
                prods = roundfp_array(prods, fmt)
            elif s.wide and prods.dtype == np.float64 and 2 * fmt.mant_bits + 2 <= 24:
                p32 = prods.astype(np.float32)
                if (p32 == prods).all():  # most of 1/8/7's blocks
                    prods = p32
            if s.drains:
                acc = _fmac8_block(acc, prods, chunk, fmt)
            else:
                if rows is None or len(prods) >= len(rows.rows):
                    rows = _Rows(np.empty((len(prods) + 1, *shape), dtype=acc.dtype))
                rows.rows[0] = acc
                _reduce_rows(rows, prods, BINARY32 if s.wide else fmt)
                acc = rows.rows[len(prods)]
        out = acc.astype(np.float32)
    out[np.isnan(out)] = np.nan
    return out


def _accumulate(a, b, fmt: FpFormat, mode: "AccumMode | str", chunk: int) -> np.ndarray:
    """Check the arguments of a matmul and reduce: the accumulator state.
    A float32 operand is checked in binary32, any other in binary64."""
    mode = AccumMode.parse(mode)
    if chunk < 1:
        raise ValueError("chunk must be positive")
    fa, fb = np.asarray(a), np.asarray(b)
    for name, x in (("a", fa), ("b", fb)):
        if x.ndim != 2:
            raise ValueError(f"{name} must be a 2-D matrix, got shape {x.shape}")
    (m, k), (k2, n) = fa.shape, fb.shape
    if k != k2:
        raise ValueError(f"shape mismatch: ({m}, {k}) @ ({k2}, {n})")
    # A cast quiets a signaling NaN, which is a member like any NaN.
    with np.errstate(invalid="ignore"):
        fa, fb = (x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
                  for x in (fa, fb))
        for name, x in (("a", fa), ("b", fb)):
            ok = _on_grid(x, fmt)
            if not ok.all():
                i = tuple(np.argwhere(~ok)[0])
                raise ValueError(f"{name}{list(i)} = {np.float64(x[i])!r} is not representable in {fmt}")
        return _reduce_products(fa, fb, fmt, mode, chunk)


def _reduce_products(a, b, fmt: FpFormat, mode: AccumMode, chunk: int) -> np.ndarray:
    """The accumulator state of a @ b under ``mode``, for float32 or
    float64 operands already checked in ``fmt``.  The products are formed
    in binary32 where every product of two ``fmt`` values is a binary32
    number (:func:`rounding._products_fit_binary32`), else in binary64.
    Call it under ``np.errstate(invalid="ignore")``, for that cast."""
    dtype = np.float32 if _products_fit_binary32(fmt) else np.float64
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    blocks = _product_blocks(a, b, chunk if _SCHEDULES[mode].drains else None)
    return _reduce(blocks, (len(a), b.shape[1]), fmt, mode, chunk)


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
