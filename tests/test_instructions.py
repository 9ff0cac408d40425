import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpemu.formats import BINARY32, FpFormat
from fpemu.instructions import (
    AccumMode,
    fmac,
    fmac8_dot,
    fmacs,
    mac,
    macs,
    matmul,
    matmul_wide,
)
from fpemu.oracle import (
    dot_oracle,
    fmac_oracle,
    fmacs_oracle,
    mac_oracle,
    macs_oracle,
    round_float,
)
from fpemu.rounding import roundfp, roundfp_array

HALF = FpFormat.parse("1/5/10/d")
HALF_N = FpFormat.parse("1/5/10/n")
WIDE = FpFormat.parse("1/6/9/d")
WIDE_N = FpFormat.parse("1/6/9/n")
BF8 = FpFormat.parse("1/8/7/n")


def q(x, fmt):
    return roundfp(x, fmt).value.surrogate


# ── frozen single-step cases ───────────────────────────────────────────


def test_mac_keeps_denormal_product_when_enabled():
    assert mac(0.0, 2.0**-12, 2.0**-12, HALF) == 2.0**-24


def test_mac_flushes_denormal_product_when_disabled():
    assert mac(0.0, 2.0**-12, 2.0**-12, HALF_N) == 0.0


def test_fmacs_rescues_what_mac_loses():
    # same operands, binary32 accumulator, fused product
    assert fmacs(0.0, 2.0**-12, 2.0**-12, HALF_N) == 2.0**-24


def test_macs_rounds_product_before_the_wide_add():
    # the product dies in the 16-bit format even though the accumulator
    # could have held it
    assert macs(0.0, 2.0**-12, 2.0**-12, HALF_N) == 0.0
    assert macs(0.0, 2.0**-12, 2.0**-12, HALF) == 2.0**-24


def test_fmac_denormal_sum_ties_to_even():
    assert fmac(0.0, 2.0**-20, 2.0**-20, WIDE) == 0.0


def test_fmac_accumulates_into_denormal_range():
    assert fmac(2.0**-24, 1.0, 2.0**-24, HALF) == 2.0**-23


def test_fmacs_tie_at_binary32_precision():
    # 1 + 2^-24 sits exactly between 1 and the next binary32 value, and
    # the tie resolves to the even side
    assert fmacs(1.0, 2.0**-24, 1.0, HALF) == 1.0
    assert fmacs(1.0, 2.0**-23, 1.0, HALF) == 1.0 + 2.0**-23


def test_mac_single_rounding_differs_from_two():
    # (1+2^-10)^2 = 1 + 2^-9 + 2^-20; rounding the product drops the
    # 2^-20, and the later add lands on a tie that resolves down.  The
    # fused path keeps the 2^-20, which breaks the tie upward.
    a, x, y = 2.0**-11, 1.0 + 2.0**-10, 1.0 + 2.0**-10
    assert mac(a, x, y, HALF) == 1.0 + 2.0**-9
    assert fmac(a, x, y, HALF) == 1.0 + 2.0**-9 + 2.0**-10
    assert mac_oracle(a, x, y, HALF) == mac(a, x, y, HALF)
    assert fmac_oracle(a, x, y, HALF) == fmac(a, x, y, HALF)


def test_operand_validation():
    with pytest.raises(ValueError):
        mac(0.0, 1.0 + 2.0**-11, 1.0, HALF)  # x not a HALF value
    with pytest.raises(ValueError):
        fmac(2.0**-24, 1.0, 1.0, HALF_N)     # accumulator not representable
    with pytest.raises(ValueError):
        fmacs(1.0 + 2.0**-40, 1.0, 1.0, HALF)  # accumulator not binary32
    fmacs(1.0 + 2.0**-23, 1.0, 1.0, HALF)      # binary32 value is fine


def test_special_value_propagation():
    assert fmac(1.0, math.inf, 2.0, HALF) == math.inf
    assert fmac(1.0, math.inf, -2.0, HALF) == -math.inf
    assert math.isnan(fmac(math.inf, 1.0, -math.inf, HALF))
    assert math.isnan(fmac(0.0, math.inf, 0.0, HALF))
    assert math.isnan(mac(math.nan, 1.0, 1.0, HALF))


def test_product_overflow_rounds_to_infinity():
    big = HALF.max_finite
    assert mac(0.0, big, big, HALF) == math.inf
    assert fmac(-0.0, big, -big, HALF) == -math.inf
    # binary32 accumulator holds it without trouble
    assert fmacs(0.0, big, big, HALF) == big * big


def test_signed_zero_semantics():
    # product sign is the xor of the operand signs
    out = fmac(0.0, -1.0, 0.0, HALF)
    assert out == 0.0 and math.copysign(1, out) > 0   # (+0) + (-0) is +0
    out = fmac(-0.0, -1.0, 0.0, HALF)
    assert out == 0.0 and math.copysign(1, out) < 0   # (-0) + (-0) keeps the sign
    out = fmac(1.0, 1.0, -1.0, HALF)
    assert out == 0.0 and math.copysign(1, out) > 0   # exact cancellation gives +0


# ── chunked dot product ────────────────────────────────────────────────


def test_dot_empty_and_validation():
    assert fmac8_dot([], [], HALF) == 0.0
    with pytest.raises(ValueError):
        fmac8_dot([1.0], [], HALF)
    with pytest.raises(ValueError):
        fmac8_dot([1.0 + 2.0**-11], [1.0], HALF)
    with pytest.raises(ValueError):
        fmac8_dot([1.0], [1.0], HALF, chunk=0)


def test_dot_single_chunk_hand_value():
    w = [1.0, 2.0, -0.5, 0.25]
    x = [2.0, 0.5, 4.0, -8.0]
    # 2 + 1 - 2 - 2 accumulated left to right
    assert fmac8_dot(w, x, HALF) == -1.0
    assert dot_oracle(w, x, HALF) == -1.0


def test_dot_wide_master_rescues_denormal_drift():
    # 16 products of 2^-13 each: the 16-bit accumulator reaches 2^-9
    # fine, but with per-element values this small the master drain
    # keeps longer runs from stalling at the format's resolution floor
    n = 512
    w = [2.0**-7] * n
    x = [2.0**-6] * n
    got = fmac8_dot(w, x, HALF)
    want = dot_oracle(w, x, HALF)
    assert got == want == 2.0**-13 * n


def test_dot_chunk_size_changes_the_result():
    # accumulating tiny terms against a large one: with chunk=4 the
    # 16-bit accumulator restarts often enough to absorb them, while a
    # huge chunk lets absorption losses pile up differently
    w = [1.0] + [2.0**-11] * 24
    x = [1.0] * 25
    r_small = fmac8_dot(w, x, HALF, chunk=4)
    r_big = fmac8_dot(w, x, HALF, chunk=1024)
    assert r_small == dot_oracle(w, x, HALF, chunk=4)
    assert r_big == dot_oracle(w, x, HALF, chunk=1024)
    assert r_small != r_big


def test_dot_intermediate_overflow_sticks():
    # the 16-bit accumulator overflows inside a chunk; adding finite
    # values afterwards cannot bring it back
    w = [HALF.max_finite, HALF.max_finite, -HALF.max_finite]
    x = [1.0, 1.0, 1.0]
    got = fmac8_dot(w, x, HALF)
    want = dot_oracle(w, x, HALF)
    assert got == want == math.inf


def test_dot_opposing_overflows_meet_as_nan_in_the_master():
    # with chunk=1 each product drains separately; +inf and -inf meet
    # in the binary32 master accumulator
    w = [HALF.max_finite, -HALF.max_finite]
    x = [HALF.max_finite, HALF.max_finite]
    got = fmac8_dot(w, x, HALF, chunk=1)
    want = dot_oracle(w, x, HALF, chunk=1)
    assert math.isnan(got) and math.isnan(want)


def test_dot_oracle_agreement_random():
    rng = np.random.default_rng(77)
    for _ in range(120):
        n = int(rng.integers(0, 48))
        fmt = (HALF, HALF_N, WIDE, WIDE_N)[int(rng.integers(0, 4))]
        scale = 2.0 ** int(rng.integers(-16, 4))
        w = roundfp_array((rng.standard_normal(n) * scale).astype(np.float32), fmt)
        x = roundfp_array(rng.standard_normal(n).astype(np.float32), fmt)
        got = fmac8_dot(w, x, fmt)
        want = dot_oracle(w.tolist(), x.tolist(), fmt)
        assert got == want or (math.isnan(got) and math.isnan(want))


# ── instruction/oracle sweeps ──────────────────────────────────────────


@pytest.mark.parametrize("fmt", (HALF, HALF_N, WIDE, WIDE_N, BF8), ids=str)
def test_instructions_match_oracle(fmt):
    rng = np.random.default_rng(5)
    pairs = (
        (mac, mac_oracle),
        (macs, macs_oracle),
        (fmac, fmac_oracle),
        (fmacs, fmacs_oracle),
    )
    for _ in range(250):
        e = int(rng.integers(-30, 20))
        x = q(float(rng.standard_normal()) * 2.0**e, fmt)
        y = q(float(rng.standard_normal()), fmt)
        a_fmt = q(float(rng.standard_normal()) * 2.0**e, fmt)
        a32 = float(np.float32(rng.standard_normal()))
        for impl, ora in pairs:
            acc = a32 if impl in (macs, fmacs) else a_fmt
            got = impl(acc, x, y, fmt)
            want = ora(acc, x, y, fmt)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == want
                assert math.copysign(1, got) == math.copysign(1, want)


@given(
    mx=st.integers(-8, 8),
    ex=st.integers(-10, 10),
    my=st.integers(-8, 8),
    ey=st.integers(-10, 10),
    a=st.integers(-64, 64),
)
@settings(max_examples=300, deadline=None)
def test_macs_equals_fmacs_when_product_is_exact(mx, ex, my, ey, a):
    # short significands make x*y exactly representable, so rounding the
    # product separately loses nothing and the two instructions agree
    x = mx * 2.0**ex
    y = my * 2.0**ey
    acc = float(np.float32(a))
    if not (HALF.contains(x) and HALF.contains(y)):
        return
    prod = x * y
    if q(prod, HALF) != prod:
        return
    assert macs(acc, x, y, HALF) == fmacs(acc, x, y, HALF)


# ── matrix reductions ──────────────────────────────────────────────────


def _oracle_chain(arow, bcol, fmt, mode, chunk):
    """One output element replayed step by step with the rational oracle.

    Returns (wide, narrow): the accumulator state :func:`matmul_wide`
    returns, and the :func:`matmul` output rounded into ``fmt``.
    """
    acc = 0.0
    if mode is AccumMode.FMAC8:
        master = 0.0
        for i, (x, y) in enumerate(zip(arow, bcol)):
            if i % chunk == 0:
                master = fmacs_oracle(master, acc, 1.0, fmt)  # binary32 drain
                acc = 0.0
            acc = fmac_oracle(acc, x, y, fmt)
        acc = fmacs_oracle(master, acc, 1.0, fmt)
    else:
        step = {AccumMode.MAC: mac_oracle, AccumMode.MACS: macs_oracle,
                AccumMode.FMAC: fmac_oracle, AccumMode.FMACS: fmacs_oracle}[mode]
        for x, y in zip(arow, bcol):
            acc = step(acc, x, y, fmt)
    return acc, round_float(acc, fmt)


def _same_bits32(got, want):
    """Bitwise float32 equality, zero signs included; NaN must be np.nan."""
    got = np.float32(got)
    if math.isnan(want):
        return got.view(np.uint32) == np.float32(np.nan).view(np.uint32)
    return got.view(np.uint32) == np.float32(want).view(np.uint32)


# m x k x n of the products training runs: the conv forward and weight
# gradient, the cnn head forward and weight gradient, the regression head.
TRAINING_SHAPES = ((32, 108, 4), (4, 32, 108), (1152, 9, 3), (3, 1152, 9), (32, 16, 1))


def _special_operands(rng, m, k, n, fmt):
    """Format operands with signed zeros, an infinity in row 0 of a, a NaN
    in the last column of b, and opposing overflows partway through the
    reduction of row m-1 against column 0."""
    a = rng.standard_normal((m, k)) * 2.0 ** rng.integers(-8, 5, (m, k))
    b = rng.standard_normal((k, n)) * 2.0 ** rng.integers(-8, 5, (k, n))
    for x in (a, b):
        r = rng.random(x.shape)
        x[r < 0.06] = 0.0
        x[r > 0.94] = -0.0
    a[0, k // 2] = np.inf
    b[(k - 1) // 2, n - 1] = np.nan
    if k >= 3:
        big = fmt.max_finite
        a[m - 1, k // 3], b[k // 3, 0] = big, big
        a[m - 1, 2 * k // 3], b[2 * k // 3, 0] = -big, big
    return (roundfp_array(a.astype(np.float32), fmt),
            roundfp_array(b.astype(np.float32), fmt))


def _check_lanes(a, b, fmt, mode, chunk, lanes):
    wide = matmul_wide(a, b, fmt, mode=mode, chunk=chunk)
    narrow = matmul(a, b, fmt, mode=mode, chunk=chunk).data
    for i, j in lanes:
        want_wide, want = _oracle_chain(a[i].tolist(), b[:, j].tolist(), fmt, mode, chunk)
        where = f"{a.shape[0]}x{a.shape[1]}x{b.shape[1]} {fmt} {mode.value} [{i},{j}]"
        assert _same_bits32(wide[i, j], want_wide), f"wide {where}"
        assert _same_bits32(narrow[i, j], want), f"narrow {where}"


@pytest.mark.parametrize("mode", list(AccumMode), ids=lambda m: m.value)
def test_matmul_matches_scalar_chains(mode):
    rng = np.random.default_rng(19)
    for fmt in (HALF, WIDE_N, BINARY32):
        # random normals, every lane
        a = roundfp_array(rng.standard_normal((3, 10)).astype(np.float32), fmt)
        b = roundfp_array(rng.standard_normal((10, 4)).astype(np.float32), fmt)
        _check_lanes(a, b, fmt, mode, 4, [(i, j) for i in range(3) for j in range(4)])
        # training shapes with special operands, sampled lanes: the
        # infinity row, the NaN column, the overflow lane, two at random
        for m, k, n in TRAINING_SHAPES:
            a, b = _special_operands(rng, m, k, n, fmt)
            lanes = {(0, 0), (0, n - 1), (m - 1, 0), (m // 2, n // 2),
                     (int(rng.integers(m)), int(rng.integers(n)))}
            _check_lanes(a, b, fmt, mode, 8, sorted(lanes))


def test_fmacs_binary32_tie_is_not_double_rounded():
    # a + x*y = 2^30 + 2^6 + 2^-24 exactly.  binary64 drops the 2^-24 and
    # lands on the binary32 tie 2^30 + 2^6, which a plain float32 cast
    # would round to even, 2^30; one correct rounding goes up.
    a = np.array([[2.0**30 + 2.0**7, 2.0**3 * (1 + 2.0**-15)]])
    b = np.array([[1.0], [-(2.0**3) * (1 - 2.0**-15)]])
    assert float(np.float32(np.sum(a[0] * b[:, 0]))) == 1073741824.0
    got = matmul_wide(a, b, BINARY32, mode=AccumMode.FMACS)
    assert float(got[0, 0]) == 1073741952.0
    assert float(got[0, 0]) == _oracle_chain(a[0], b[:, 0], BINARY32, AccumMode.FMACS, 8)[0]
    # steps after the corrected one start from the corrected sum
    a3 = np.concatenate([a, [[1.0]]], axis=1)
    b3 = np.concatenate([b, [[256.0]]])
    assert float(matmul_wide(a3, b3, BINARY32, mode=AccumMode.FMACS)[0, 0]) == 1073742208.0


def test_fmacs_binary32_denormal_tie_is_not_double_rounded():
    # Below 2^-126 the binary32 quantum is 2^-149.  The exact sum
    # 513 * 2^-149 + 2^-150 - 2^-196 lies just under a midpoint; binary64
    # drops the 2^-196 and lands on it, and a cast would round to even.
    a = np.array([[2.0**-140 + 2.0**-149, (1 + 2.0**-23) * 2.0**-75]])
    b = np.array([[1.0], [(1 - 2.0**-23) * 2.0**-75]])
    assert float(np.float32(a[0, 0] + a[0, 1] * b[1, 0])) == 2.0**-140 + 2.0**-148
    got = matmul_wide(a, b, BINARY32, mode=AccumMode.FMACS)
    assert float(got[0, 0]) == 2.0**-140 + 2.0**-149
    assert float(got[0, 0]) == _oracle_chain(a[0], b[:, 0], BINARY32, AccumMode.FMACS, 8)[0]


@pytest.mark.parametrize("mode", list(AccumMode), ids=lambda m: m.value)
def test_matmul_negative_zero_products_sum_to_positive_zero(mode):
    # every accumulator starts at +0, and (+0) + (-0) is +0
    a = np.array([[-1.0, 1.0]])
    b = np.array([[0.0], [-0.0]])
    for out in (matmul_wide(a, b, HALF, mode=mode), matmul(a, b, HALF, mode=mode).data):
        assert out[0, 0] == 0.0 and not np.signbit(out[0, 0])
    assert _oracle_chain(a[0], b[:, 0], HALF, mode, 8) == (0.0, 0.0)


@pytest.mark.parametrize("mode", list(AccumMode), ids=lambda m: m.value)
def test_matmul_nan_is_canonical(mode):
    # -inf + inf, 0 * inf and a NaN operand give NaN lanes; whatever sign
    # the hardware leaves on them, both outputs carry numpy's canonical NaN
    a = np.array([[-np.inf, np.inf, 1.0], [0.0, 1.0, np.nan]])
    b = np.array([[1.0, np.inf], [1.0, 1.0], [1.0, 1.0]])
    canonical = np.float32(np.nan).view(np.uint32)
    for fmt in (HALF, BINARY32):
        wide = matmul_wide(a, b, fmt, mode=mode, chunk=2)
        narrow = matmul(a, b, fmt, mode=mode, chunk=2).data
        for out in (wide, narrow):
            assert np.isnan(out).all()
            assert np.all(out.view(np.uint32) == canonical)


def test_matmul_wide_is_prerounding_state():
    rng = np.random.default_rng(29)
    a = roundfp_array(rng.standard_normal((4, 9)).astype(np.float32), HALF)
    b = roundfp_array(rng.standard_normal((9, 3)).astype(np.float32), HALF)
    wide = matmul_wide(a, b, HALF, mode=AccumMode.FMACS)
    assert wide.dtype == np.float32
    narrow = matmul(a, b, HALF, mode=AccumMode.FMACS).data
    assert np.array_equal(roundfp_array(wide, HALF), narrow)


def test_matmul_rejects_nonformat_input():
    bad = np.full((2, 2), 1.0 + 2.0**-11, dtype=np.float32)
    good = np.eye(2, dtype=np.float32)
    with pytest.raises(ValueError):
        matmul(bad, good, HALF)
    for fmt, value in ((HALF, 1.0 + 2.0**-11),       # off the grid
                       (WIDE_N, WIDE_N.min_normal / 2),  # denormal in a /n format
                       (HALF, 65536.0)):             # above max_finite
        m = good.copy()
        m[1, 0] = value
        with pytest.raises(ValueError, match=rf"^b\[.*\] = .* is not representable in {fmt}$"):
            matmul_wide(good, m, fmt)
    specials = np.array([[np.nan], [np.inf], [-np.inf], [-0.0], [0.0]], dtype=np.float32)
    out = matmul_wide(specials, np.ones((1, 1), dtype=np.float32), WIDE_N, mode=AccumMode.MACS)
    assert np.array_equal(out, np.abs(specials) * [[1], [1], [-1], [1], [1]], equal_nan=True)
    with pytest.raises(ValueError):
        matmul(good, good, HALF, chunk=0)
    with pytest.raises(ValueError):
        matmul(np.ones((2, 3), dtype=np.float32), np.ones((2, 3), dtype=np.float32), HALF)


def test_accum_mode_parse():
    assert AccumMode.parse("fmac8") is AccumMode.FMAC8
    assert AccumMode.parse("FMACS") is AccumMode.FMACS
    assert AccumMode.parse(AccumMode.MAC) is AccumMode.MAC
    with pytest.raises(ValueError):
        AccumMode.parse("fma")
