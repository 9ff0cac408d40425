"""Rounding semantics: round-to-nearest-even onto the format grid,
flush-to-zero applied after rounding, and the outcome flags."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpemu._dyadic import round_mk, to_mk
from fpemu.formats import BINARY32, FpFormat
from fpemu.oracle import round_exact, round_float
from fpemu.rounding import (RoundFlag, _fits_binary32, _on_grid, _round_core, roundfp,
                            roundfp_array)

HALF = FpFormat.parse("1/5/10/d")
HALF_N = FpFormat.parse("1/5/10/n")
WIDE = FpFormat.parse("1/6/9/d")
WIDE_N = FpFormat.parse("1/6/9/n")
BF8 = FpFormat.parse("1/8/7/n")

ALL_FMTS = (HALF, HALF_N, WIDE, WIDE_N, BF8)


def val(outcome):
    return outcome.value.surrogate


# ── frozen examples ────────────────────────────────────────────────────


def test_tiny_value_underflows_to_zero():
    out = roundfp(2.0**-25, HALF)
    assert val(out) == 0.0 and not math.copysign(1, val(out)) < 0
    assert out.flags == RoundFlag.ROUNDED | RoundFlag.UNDERFLOWED_TO_ZERO


def test_half_min_denormal_ties_to_zero():
    # 2^-25 is exactly half the smallest denormal step; even grid point is 0
    out = roundfp(-(2.0**-25), HALF)
    assert val(out) == 0.0 and math.copysign(1, val(out)) < 0
    assert RoundFlag.UNDERFLOWED_TO_ZERO in out.flags


def test_denormal_flushes_after_rounding():
    out = roundfp(2.0**-15, HALF_N)
    assert val(out) == 0.0
    assert out.flags == RoundFlag.FLUSHED_DENORMAL
    # the same value survives when denormals are enabled
    assert val(roundfp(2.0**-15, HALF)) == 2.0**-15


def test_value_that_rounds_up_to_min_normal_is_not_flushed():
    x = 2.0**-14 - 2.0**-26  # closer to min_normal than to the grid below
    out = roundfp(x, HALF_N)
    assert val(out) == 2.0**-14
    assert out.flags == RoundFlag.ROUNDED


def test_tie_to_even_drops_the_half_ulp():
    out = roundfp(1.0 + 2.0**-10, WIDE)
    assert val(out) == 1.0
    assert out.flags == RoundFlag.ROUNDED


def test_tie_to_even_rounds_up_at_odd_grid_point():
    assert val(roundfp(1.0 + 3.0 * 2.0**-10, WIDE)) == 1.0 + 2.0**-8


def test_overflow_threshold_rounds_to_infinity():
    thr = HALF.overflow_threshold
    assert val(roundfp(thr, HALF)) == math.inf
    assert roundfp(thr, HALF).flags == RoundFlag.ROUNDED | RoundFlag.OVERFLOWED_TO_INF
    assert val(roundfp(-thr, HALF)) == -math.inf
    assert val(roundfp(math.nextafter(thr, 0.0), HALF)) == 65504.0
    # ints beyond binary64's range, where float() and math.isfinite raise
    for big in (10**400, -10**400):
        out = roundfp(big, HALF)
        assert val(out) == (math.inf if big > 0 else -math.inf)
        assert out.flags == RoundFlag.ROUNDED | RoundFlag.OVERFLOWED_TO_INF
        assert round_float(big, HALF) == val(out)


def test_exact_value_and_signed_zero_passthrough():
    for fmt in ALL_FMTS:
        out = roundfp(1.5, fmt)
        assert val(out) == 1.5
        assert out.flags == RoundFlag.EXACT
    neg = roundfp(-0.0, HALF)
    assert val(neg) == 0.0 and math.copysign(1, val(neg)) < 0
    assert neg.flags == RoundFlag.EXACT


def test_specials_pass_through():
    assert val(roundfp(math.inf, HALF)) == math.inf
    assert val(roundfp(-math.inf, HALF)) == -math.inf
    assert math.isnan(val(roundfp(math.nan, HALF)))
    assert roundfp(math.inf, HALF).flags == RoundFlag.EXACT


def test_rounding_across_binade_boundary():
    # in the binade starting at 2^-13 the quantum is 2^-23
    assert val(roundfp(2.0**-13 + 2.0**-24, HALF)) == 2.0**-13          # half-quantum tie, even
    assert val(roundfp(2.0**-13 + 3.0 * 2.0**-25, HALF)) == 2.0**-13 + 2.0**-23
    assert val(roundfp(2.0**-13 + 3.0 * 2.0**-24, HALF)) == 2.0**-13 + 2.0**-22


# ── scalar/array and oracle agreement ──────────────────────────────────


def _random_float32(rng, n):
    return rng.integers(0, 1 << 32, size=n, dtype=np.uint32).view(np.float32)


@pytest.mark.parametrize("fmt", ALL_FMTS, ids=str)
def test_array_kernel_matches_scalar(fmt):
    rng = np.random.default_rng(11)
    xs = _random_float32(rng, 3000)
    extra = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 2.0**-24, -(2.0**-24),
         65504.0, 65520.0, 2.0**-14, 2.0**-25], dtype=np.float32,
    )
    xs = np.concatenate([xs, extra])
    got = roundfp_array(xs, fmt)
    for x, g in zip(xs.tolist(), got.tolist()):
        s = val(roundfp(x, fmt))
        if math.isnan(s):
            assert math.isnan(g)
        else:
            assert s == g and math.copysign(1, s) == math.copysign(1, g)


@pytest.mark.parametrize("fmt", ALL_FMTS, ids=str)
def test_matches_exact_rational_oracle(fmt):
    rng = np.random.default_rng(23)
    xs = _random_float32(rng, 1500).tolist()
    xs += [2.0**-25, 2.0**-24 * 1.5, 65519.999, 6.1e-5, -6.1e-5, 1e-45]
    for x in xs:
        want = round_float(x, fmt)
        got = val(roundfp(x, fmt))
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want, f"{x!r} in {fmt}"
            assert math.copysign(1, got) == math.copysign(1, want)


def _random_float64(rng, n, fmt):
    """Raw 64-bit patterns, half of them with the exponent near the format's."""
    raw = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    e = rng.integers(fmt.e_min - fmt.mant_bits - 4, fmt.e_max + 3, size=n // 2) + 1023
    raw[: n // 2] = (raw[: n // 2] & np.uint64((1 << 52) - 1 | 1 << 63)) | (
        e.astype(np.uint64) << np.uint64(52))
    return raw.view(np.float64)


def _grid_midpoints(rng, n, fmt):
    """Exact midpoints (2m+1) * 2^(q-1) between neighbours of the grid,
    from the denormal band up to the overflow threshold."""
    e = rng.integers(fmt.e_min - 1, fmt.e_max + 1, size=n)
    q = np.maximum(e, fmt.e_min) - fmt.mant_bits
    hi = 1 << (fmt.mant_bits + 1)
    m = np.where(e >= fmt.e_min, rng.integers(hi // 2, hi, size=n), rng.integers(0, hi // 2, size=n))
    sign = rng.choice([-1.0, 1.0], size=n)
    return sign * (2 * m + 1) * np.exp2((q - 1).astype(np.float64))


@pytest.mark.parametrize("spec", ["1/2/1/d", "1/6/9/n", "1/8/7/n", "1/8/23/d"])
def test_array_kernel_matches_oracle_on_bit_patterns_and_midpoints(spec):
    fmt = FpFormat.parse(spec)
    rng = np.random.default_rng(31)
    xs = np.concatenate([_random_float64(rng, 1500, fmt), _grid_midpoints(rng, 1500, fmt),
                         [fmt.overflow_threshold, -fmt.overflow_threshold,
                          np.finfo(np.float64).max, -np.finfo(np.float64).max]])
    got = roundfp_array(xs, fmt)
    for x, g in zip(xs.tolist(), got.tolist()):
        want = round_float(x, fmt)
        if math.isnan(want):
            assert math.isnan(g)
        else:
            assert g == want and math.copysign(1, g) == math.copysign(1, want), f"{x!r}"


def _exponent_sweep(rng, fmt):
    """2^e and a random significand at every binary64 exponent e from
    -1074 to 1023, the format's grid midpoints at each of its exponents
    (denormal band and overflow threshold included), the binary64
    neighbours of all of these, both signs, and the specials."""
    e = np.arange(-1074, 1024)
    frac = rng.integers(0, 1 << 52, e.size, dtype=np.uint64).astype(np.float64)
    powers = np.ldexp(1.0, e)
    xs = [powers, np.ldexp(1.0 + frac * 2.0**-52, e), [np.finfo(np.float64).max]]
    p = fmt.mant_bits
    for E in range(fmt.e_min - p - 1, fmt.e_max + 1):
        q = max(E, fmt.e_min) - p
        lo, hi = (1 << p, 1 << (p + 1)) if E >= fmt.e_min else (0, 1 << p)
        m = np.concatenate([[lo, hi - 1], rng.integers(lo, hi, 4)])
        xs.append((2 * m + 1) * 2.0 ** (q - 1))
    xs = np.concatenate(xs)
    with np.errstate(over="ignore"):  # the neighbour of the largest binary64 is inf
        xs = np.concatenate([xs, np.nextafter(xs, 0.0), np.nextafter(xs, np.inf)])
    return np.concatenate([xs, -xs, [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]])


@pytest.mark.parametrize(
    "fmt",
    [pytest.param(FpFormat.parse(s), id=s)
     for s in ("1/2/1/d", "1/5/10/d", "1/6/9/n", "1/8/7/n", "1/8/23/d", "1/8/23/n")]
    + [pytest.param(BINARY32, id="BINARY32")],
)
def test_array_kernel_matches_oracle_at_every_binary64_exponent(fmt):
    xs = _exponent_sweep(np.random.default_rng(43), fmt)
    got = roundfp_array(xs, fmt)
    assert got.dtype == np.float32
    for x, g in zip(xs.tolist(), got.tolist()):
        want = round_float(x, fmt)
        if math.isnan(want):
            assert math.isnan(g)
        else:
            assert g == want and math.copysign(1, g) == math.copysign(1, want), f"{x!r}"
    # NaN lanes hold the canonical quiet NaN, whatever the input's sign and payload.
    nan_bits = got[np.isnan(got)].view(np.uint32)
    assert nan_bits.size == 2 and (nan_bits == 0x7FC00000).all()


@pytest.mark.parametrize("spec", ["1/5/10/d", "1/6/9/n", "1/8/7/n", "1/2/1/n"])
def test_roundfp_flags_match_oracle_at_every_binary64_exponent(spec):
    fmt = FpFormat.parse(spec)
    xs = _exponent_sweep(np.random.default_rng(47), fmt)
    for x in xs[np.isfinite(xs)].tolist():
        want = round_exact(Fraction(abs(x)), fmt, negative=math.copysign(1.0, x) < 0)
        out = roundfp(x, fmt)
        assert val(out) == want.value and math.copysign(1, val(out)) == math.copysign(1, want.value)
        flags = out.flags
        assert (RoundFlag.ROUNDED in flags) == want.rounded, f"{x!r}"
        assert (RoundFlag.UNDERFLOWED_TO_ZERO in flags) == want.underflowed, f"{x!r}"
        assert (RoundFlag.OVERFLOWED_TO_INF in flags) == want.overflowed, f"{x!r}"
        assert (RoundFlag.FLUSHED_DENORMAL in flags) == want.flushed, f"{x!r}"
        assert (RoundFlag.EXACT in flags) == (not want.rounded and not want.flushed), f"{x!r}"


def _exact_values(rng, fmt):
    """Ints and Fractions that binary64 cannot hold: grid midpoints and
    grid points nudged far below binary64's resolution, wide random ints
    and ratios, the two values binary64 once double-rounded, ints beyond
    binary64's range, and numpy integers and Fractions of them."""
    nudge = Fraction(1, 1 << 80)
    values = [2**60 + 2**36 + 1, Fraction(4098) + Fraction(1, 2**60), 10**400,
              Fraction(10**400, 3), Fraction(1, 10**400), 0, Fraction(0), Fraction(1, 3)]
    points = np.concatenate([_grid_midpoints(rng, 300, fmt),
                             [fmt.overflow_threshold, fmt.max_finite, fmt.min_normal,
                              fmt.smallest_positive, fmt.smallest_positive / 2]])
    for x in points.tolist():
        q = Fraction(x)
        values += [q, q + nudge * q, q - nudge * q]
    for bits in (54, 60, 100, 200):
        n = 1 << (bits - 1) | int.from_bytes(rng.bytes(32), "little") % (1 << (bits - 1)) | 1
        values += [n, Fraction(n, 1 << (bits + fmt.mant_bits)), Fraction(n, 3**40)]
    wide = 2**60 + 2**36 + 1
    numpy_ints = [np.int64(wide), np.int64(-wide), np.uint64(2**64 - 1), np.int64(5),
                  Fraction(np.int64(wide), np.int64(7)), Fraction(np.int64(-5))]
    return values + [-v for v in values] + numpy_ints


@pytest.mark.parametrize("spec", ["1/5/10/d", "1/6/9/n", "1/8/7/n", "1/8/23/d", "1/2/1/n"])
def test_roundfp_rounds_exact_ints_and_fractions_once(spec):
    fmt = FpFormat.parse(spec)
    for x in _exact_values(np.random.default_rng(53), fmt):
        want = round_exact(abs(Fraction(x)), fmt, negative=x < 0)
        out = roundfp(x, fmt)
        assert val(out) == round_float(x, fmt) == want.value, f"{x!r}"
        assert math.copysign(1, val(out)) == math.copysign(1, want.value), f"{x!r}"
        flags = out.flags
        assert (RoundFlag.ROUNDED in flags) == want.rounded, f"{x!r}"
        assert (RoundFlag.UNDERFLOWED_TO_ZERO in flags) == want.underflowed, f"{x!r}"
        assert (RoundFlag.OVERFLOWED_TO_INF in flags) == want.overflowed, f"{x!r}"
        assert (RoundFlag.FLUSHED_DENORMAL in flags) == want.flushed, f"{x!r}"
        assert (RoundFlag.EXACT in flags) == (not want.rounded and not want.flushed), f"{x!r}"


@pytest.mark.parametrize("fmt", ALL_FMTS + (BINARY32,), ids=str)
def test_roundfp_takes_float32_signaling_nan_silently(fmt):
    # Widening 0x7FA00000 to binary64 raises numpy's invalid flag, which
    # the suite turns into an error; a NaN rounds to itself, exactly.
    for bits in (0x7FA00000, 0xFFA00001):
        out = roundfp(np.uint32(bits).view(np.float32), fmt)
        assert math.isnan(val(out)) and out.flags == RoundFlag.EXACT


# ── the binary32 and integer kernels ───────────────────────────────────

# Formats with at most 7 exponent and 21 mantissa bits round float32
# input in binary32; formats with 8 exponent bits round it on its bit
# pattern; the others, and all float64 input, run in binary64.
BINARY32_KERNEL = [f"1/{e}/{m}/{d}" for e in range(2, 8) for m in (1, 2, 7, 10, 21)
                   for d in "dn"]
INTEGER_KERNEL = [f"1/8/{m}/{d}" for m in range(1, 24) for d in "dn"]
BINARY64_KERNEL = ["1/7/22/d", "1/7/23/n", "1/2/22/n"]


def _binary32_corpus(rng, fmt):
    """float32 input: random bit patterns, binary32 denormals, signaling
    NaNs of both signs, the format's grid midpoints that binary32 holds
    and their float32 neighbours, ±max_finite, the overflow threshold and
    its neighbours, ±min_normal, ±0, ±inf and NaN."""
    f32 = np.float32
    bits = rng.integers(0, 1 << 32, 6000, dtype=np.uint64).astype(np.uint32)
    denormals = bits[:1000] & np.uint32(0x807FFFFF)
    snans = np.uint32(0x7F800000) | rng.integers(1, 1 << 22, 50, dtype=np.uint32)
    mids = _grid_midpoints(rng, 2000, fmt)
    edges = np.array([fmt.max_finite, fmt.overflow_threshold, fmt.min_normal])
    wanted = np.concatenate([mids, edges, -edges])
    # 1/8/23's overflow threshold is not a binary32 number, and its
    # max_finite's neighbour is inf.
    with np.errstate(over="ignore"):
        exact = wanted.astype(f32)
        exact = exact[exact == wanted]
        exact = np.concatenate([exact, np.nextafter(exact, f32(0)), np.nextafter(exact, f32(np.inf))])
    return np.concatenate([
        bits.view(f32), denormals.view(f32), snans.view(f32), (snans | np.uint32(1 << 31)).view(f32),
        exact, np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=f32),
    ])


def _reference(x: float, fmt: FpFormat) -> float:
    """_dyadic's big-integer rounding, which shares no code with the kernel."""
    if not -math.inf < x < math.inf:
        return x
    return round_mk(*to_mk(x), fmt) if x else x


@pytest.mark.parametrize("spec", BINARY32_KERNEL + INTEGER_KERNEL + BINARY64_KERNEL)
def test_binary32_kernel_matches_big_integer_rounding_by_bits(spec):
    fmt = FpFormat.parse(spec)
    assert _fits_binary32(fmt) == (spec in BINARY32_KERNEL)
    xs = _binary32_corpus(np.random.default_rng(61), fmt)
    wide = np.float64 if spec in BINARY64_KERNEL else np.float32
    assert _round_core(xs, fmt).dtype == wide
    with np.errstate(invalid="ignore"):  # widening quiets signaling NaNs
        assert _round_core(xs.astype(np.float64), fmt).dtype == np.float64
    got = roundfp_array(xs, fmt)
    want = np.array([_reference(x, fmt) for x in xs.tolist()], dtype=np.float32)
    want[np.isnan(want)] = np.nan  # the canonical quiet NaN, 0x7FC00000
    mismatch = got.view(np.uint32) != want.view(np.uint32)
    assert not mismatch.any(), f"{xs[mismatch][:5]!r} -> {got[mismatch][:5]!r}"
    # The corpus reaches every kind of result, NaN lanes included.
    nan_bits = got[np.isnan(got)].view(np.uint32)
    assert nan_bits.size >= 100 and (nan_bits == 0x7FC00000).all()
    assert np.isinf(got).any() and (got == 0).any()
    mag = np.abs(got)
    assert ((mag > 0) & (mag < fmt.min_normal)).any() == fmt.denormals


@pytest.mark.skipif(not os.environ.get("FPEMU_EXHAUSTIVE"),
                    reason="set FPEMU_EXHAUSTIVE=1 for the full 2^32 sweep")
@pytest.mark.parametrize("spec", ["1/8/7/n", "1/8/7/d"])
def test_integer_kernel_matches_binary64_kernel_exhaustively(spec):
    # every float32 bit pattern, rounded on its bits and, widened to
    # float64, by the magic-constant body in binary64
    fmt = FpFormat.parse(spec)
    step = 1 << 22
    mismatches = 0
    for start in range(0, 1 << 32, step):
        xs = np.arange(start, start + step, dtype=np.uint64).astype(np.uint32).view(np.float32)
        with np.errstate(invalid="ignore"):  # widening quiets signaling NaNs
            wide = xs.astype(np.float64)
        got = roundfp_array(xs, fmt).view(np.uint32)
        mismatches += int(np.count_nonzero(got != roundfp_array(wide, fmt).view(np.uint32)))
    assert mismatches == 0


@pytest.mark.parametrize("fmt", ALL_FMTS + (BINARY32,), ids=str)
def test_membership_mask_matches_contains(fmt):
    rng = np.random.default_rng(37)
    with np.errstate(invalid="ignore"):  # widening quiets signaling NaNs
        f32 = _random_float32(rng, 1000).astype(np.float64)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, fmt.max_finite, fmt.overflow_threshold,
                      fmt.min_normal, fmt.min_normal / 2, 2.0 ** (fmt.e_min - fmt.mant_bits), 5e-324])
    xs = np.concatenate([
        _random_float64(rng, 1000, fmt),
        f32,
        roundfp_array(_random_float32(rng, 1000), fmt).astype(np.float64),
        edges,
    ])
    got = _on_grid(xs.reshape(-1, 1), fmt).ravel()
    want = np.array([fmt.contains(x) for x in xs.tolist()])
    assert np.array_equal(got, want)
    # float32 input is checked on its own bit patterns, never widened:
    # random patterns, signaling NaNs of either sign, roundings into fmt,
    # and the edge values above that are binary32 numbers with their
    # binary32 neighbours.  The reversed view is not contiguous.
    rng32 = np.random.default_rng(43)
    snans = np.uint32(0x7F800000) | rng32.integers(1, 1 << 22, 100, dtype=np.uint32)
    with np.errstate(over="ignore"):  # max_f32's neighbour is inf
        e32 = edges.astype(np.float32)
        e32 = e32[(e32 == edges) | np.isnan(edges)]
        e32 = np.concatenate([e32, np.nextafter(e32, np.float32(0)),
                              np.nextafter(e32, np.float32(np.inf))])
    x32 = np.concatenate([
        _random_float32(rng32, 3000),
        snans.view(np.float32),
        (snans | np.uint32(1 << 31)).view(np.float32),
        roundfp_array(_random_float32(rng32, 3000), fmt),
        e32,
    ])
    got32 = _on_grid(x32[::-1], fmt)[::-1]
    want32 = np.array([fmt.contains(x) for x in x32.tolist()])
    assert np.array_equal(got32, want32)
    assert want32.any() and want32.all() == (fmt == BINARY32)  # every float32 is in binary32


# ── properties ─────────────────────────────────────────────────────────

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=32, allow_subnormal=True
)


@given(x=finite_floats)
@settings(max_examples=300, deadline=None)
def test_idempotent(x):
    for fmt in (HALF, WIDE_N):
        once = val(roundfp(x, fmt))
        twice = val(roundfp(once, fmt))
        assert once == twice
        assert math.copysign(1, once) == math.copysign(1, twice)


@given(x=finite_floats, y=finite_floats)
@settings(max_examples=300, deadline=None)
def test_monotone(x, y):
    lo, hi = (x, y) if x <= y else (y, x)
    for fmt in (HALF, HALF_N, WIDE):
        assert val(roundfp(lo, fmt)) <= val(roundfp(hi, fmt))


@given(x=finite_floats)
@settings(max_examples=300, deadline=None)
def test_sign_symmetric(x):
    for fmt in (HALF, WIDE_N):
        a = val(roundfp(x, fmt))
        b = val(roundfp(-x, fmt))
        assert a == -b
        assert math.copysign(1, a) == -math.copysign(1, b)


@given(x=finite_floats)
@settings(max_examples=300, deadline=None)
def test_faithful_within_half_quantum(x):
    fmt = HALF
    if abs(x) >= fmt.overflow_threshold:
        return
    got = val(roundfp(x, fmt))
    if x == 0.0:
        assert got == 0.0
        return
    e = math.frexp(abs(x))[1] - 1
    quantum = math.ldexp(1.0, max(e, fmt.e_min) - fmt.mant_bits)
    assert abs(got - x) <= quantum / 2


def test_result_is_always_representable():
    rng = np.random.default_rng(40)
    xs = _random_float32(rng, 2000)
    for fmt in ALL_FMTS:
        got = roundfp_array(xs, fmt)
        finite = np.isfinite(got)
        # re-rounding a representable value changes nothing
        again = roundfp_array(got[finite], fmt)
        assert np.array_equal(again, got[finite])
