"""Rounding semantics: round-to-nearest-even onto the format grid,
flush-to-zero applied after rounding, and the outcome flags."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpemu.formats import BINARY32, FpFormat
from fpemu.oracle import round_float
from fpemu.rounding import RoundFlag, _on_grid, roundfp, roundfp_array, roundfp_tensor
from fpemu.telemetry import Phase, TelemetrySink

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


@pytest.mark.parametrize("fmt", ALL_FMTS + (BINARY32,), ids=str)
def test_membership_mask_matches_contains(fmt):
    rng = np.random.default_rng(37)
    with np.errstate(invalid="ignore"):  # widening quiets signaling NaNs
        f32 = _random_float32(rng, 1000).astype(np.float64)
    xs = np.concatenate([
        _random_float64(rng, 1000, fmt),
        f32,
        roundfp_array(_random_float32(rng, 1000), fmt).astype(np.float64),
        [0.0, -0.0, np.inf, -np.inf, np.nan, fmt.max_finite, fmt.overflow_threshold,
         fmt.min_normal, fmt.min_normal / 2, 2.0 ** (fmt.e_min - fmt.mant_bits), 5e-324],
    ])
    got = _on_grid(xs.reshape(-1, 1), fmt).ravel()
    want = np.array([fmt.contains(x) for x in xs.tolist()])
    assert np.array_equal(got, want)


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


# ── tensor wrapper ─────────────────────────────────────────────────────


def test_roundfp_tensor_records_stats():
    sink = TelemetrySink(run_id="t")
    x = np.array([2.0**-24, 1.0, 0.0, np.inf], dtype=np.float32)
    qt = roundfp_tensor(x, HALF, sink=sink, tensor_id="w", phase=Phase.WEIGHT, step=3)
    assert qt.fmt is HALF
    assert qt.data.dtype == np.float32
    assert len(sink.records) == 1
    rec = sink.records[0]
    assert rec.key() == ("w", 3, "weight")
    assert rec.n_denormal == 1 and rec.n_zero == 1 and rec.n_inf == 1
    assert rec.fraction_denormal == 0.25


def test_roundfp_tensor_without_sink():
    qt = roundfp_tensor(np.ones(4, dtype=np.float32), WIDE)
    assert np.all(qt.data == 1.0)
    assert qt.shape == (4,)
