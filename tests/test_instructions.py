import ast
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpemu import _dyadic, instructions
from fpemu.formats import BINARY32, FpFormat
from fpemu.instructions import (
    _LOOP_LANES,
    AccumMode,
    _fmac8_dot_exact,
    _running_sums,
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
from fpemu.rounding import _products_fit_binary32, roundfp, roundfp_array

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


def test_huge_int_operand_is_refused_like_any_other():
    with pytest.raises(ValueError, match=r"^a=1000.*0 is not representable in 1/5/10/d$"):
        mac(10**400, 1.0, 1.0, HALF)
    with pytest.raises(ValueError, match=r"^a32=-1000.*0 is not representable in 1/8/23/d$"):
        fmacs(-10**400, 1.0, 1.0, HALF)
    with pytest.raises(ValueError, match=r"^y=1000.*0 is not representable in 1/5/10/d$"):
        macs(0.0, 1.0, 10**400, HALF)
    # the oracle rounds such an int like any other value beyond the format
    assert round_float(10**400, HALF) == math.inf
    assert round_float(-10**400, HALF) == -math.inf


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
        assert _same_bits(got, want), (got, want)


def _same_bits(a: float, b: float) -> bool:
    """Bitwise binary64 equality, zero signs included, with all NaNs equal."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


# Formats whose members include integers with trailing zeros (every
# value from 8 up in 1/3/2/d, from 16 up in 1/4/3/n, from 2^11 up in
# 1/5/10/d), binary32 itself and bfloat16.
DOT_CORPUS_FORMATS = ("1/3/2/d", "1/4/3/n", "1/5/10/d", "1/5/10/n", "1/8/23/d", "1/8/7/n")


def _dot_corpus(fmt, rng):
    """(w, x, chunk) pairs for :func:`test_fmac8_dot_matches_oracle_by_bits`."""
    big = fmt.max_finite

    def values(n, lo, hi):
        e = rng.integers(lo, hi, n).astype(np.float64)
        return roundfp_array(rng.standard_normal(n) * 2.0**e, fmt).tolist()

    def integers(n, top):
        return roundfp_array(rng.integers(-top, top + 1, n).astype(np.float64), fmt).tolist()

    pairs = []
    for chunk in (1, 3, 8, 1024):
        for _ in range(12):  # anywhere in the range, the denormal band included
            n = int(rng.integers(0, 40))
            pairs.append((values(n, fmt.e_min - fmt.mant_bits, fmt.e_max // 2),
                          values(n, fmt.e_min - fmt.mant_bits, fmt.e_max // 2), chunk))
        for _ in range(6):  # integers, many with trailing zeros
            n = int(rng.integers(1, 40))
            top = min(int(big), 1 << 14)
            pairs.append((integers(n, top), integers(n, 4), chunk))
        for e in (1, 2):  # integers near 2^(p+e), where the quantum grows to 2^e
            n = int(rng.integers(1, 40))
            at = 1 << (fmt.mant_bits + e)
            near = at + rng.integers(-at // 4, at // 4 + 1, n)
            w = roundfp_array(np.minimum(near, big).astype(np.float64), fmt)
            pairs.append((w.tolist(), integers(n, 2), chunk))
        for _ in range(6):  # partial sums cancelling around min_normal
            n = int(rng.integers(2, 20))
            mid = fmt.e_min // 2
            pairs.append((values(n, mid - fmt.mant_bits // 2 - 2, mid + 2),
                          values(n, mid - fmt.mant_bits // 2 - 2, mid + 2), chunk))
        for k, first in ((2, big), (3, -big)):  # an overflow mid-chunk, then an opposing one
            n = int(rng.integers(2 * k, 2 * k + 10))
            w = values(n, 0, fmt.e_max // 2)
            at = int(rng.integers(0, n - 2 * k + 1))
            w[at:at + 2 * k] = [first] * k + [-first] * k
            pairs.append((w, [1.0] * n, chunk))
    # NaN and the infinities at each position of a chunk, in w or in x,
    # against a finite, zero or infinite partner
    for chunk in (1, 3, 8):
        for at in range(chunk):
            for special in (math.nan, math.inf, -math.inf):
                for partner in (1.5, -0.0, math.inf):
                    n = 3 * chunk
                    w = values(n, 0, 3)
                    x = values(n, 0, 3)
                    (w, x)[at % 2][chunk + at] = special
                    (x, w)[at % 2][chunk + at] = partner
                    pairs.append((w, x, chunk))
    # long vectors: several chunks of 1024
    for n in (1025, 2100):
        pairs.append((values(n, fmt.e_min - 2, fmt.e_max // 2),
                      values(n, fmt.e_min - 2, fmt.e_max // 2), 1024))
    # a negative master that the final rounding flushes or rounds to -0
    tiny = fmt.min_normal
    pairs.append(([tiny, -1.5 * tiny], [1.0, 1.0], 1))
    pairs.append(([2.0 * tiny, -2.5 * tiny], [1.0, 1.0], 1))
    return pairs


@pytest.mark.parametrize("spec", DOT_CORPUS_FORMATS)
def test_fmac8_dot_matches_oracle_by_bits(spec):
    fmt = FpFormat.parse(spec)
    rng = np.random.default_rng(1010)
    pairs = _dot_corpus(fmt, rng)
    results = []
    for w, x, chunk in pairs:
        got = fmac8_dot(w, x, fmt, chunk=chunk)
        want = dot_oracle(w, x, fmt, chunk=chunk)
        assert _same_bits(got, want), (w, x, chunk, got, want)
        results.append(got)
    # the corpus reaches what it is meant to reach
    assert any(math.isnan(r) for r in results) and any(math.isinf(r) for r in results)
    if not fmt.denormals:
        assert any(r == 0.0 and math.copysign(1.0, r) < 0 for r in results)


# The shortest vector fmac8_dot hands to the tensor FMAC8 reduction, by
# chunk: 96 elements, and at least 16 whole chunks.
TENSOR_DOT_EDGE = {1: 96, 3: 96, 8: 128}


@pytest.fixture
def reduce_calls(monkeypatch):
    """A list that grows by one for each call of ``instructions._reduce``."""
    calls = []
    reduce = instructions._reduce

    def counting(*args, **kwargs):
        calls.append(args[3])
        return reduce(*args, **kwargs)

    monkeypatch.setattr(instructions, "_reduce", counting)
    return calls


def _long_dot_corpus(fmt, rng):
    """(w, x, chunk) pairs around and past the lengths where
    :func:`fmac8_dot` takes the tensor FMAC8 reduction."""
    big, tiny = fmt.max_finite, fmt.min_normal

    def values(n, lo, hi):
        e = rng.integers(lo, hi, n).astype(np.float64)
        return roundfp_array(rng.standard_normal(n) * 2.0**e, fmt).tolist()

    pairs = []
    for chunk, edge in TENSOR_DOT_EDGE.items():
        for n in (edge - 1, edge, edge + 1):
            # anywhere in the range, the denormal band included
            pairs.append((values(n, fmt.e_min - fmt.mant_bits, fmt.e_max // 2),
                          values(n, fmt.e_min - fmt.mant_bits, fmt.e_max // 2), chunk))
            # partial sums cancelling around min_normal
            mid = fmt.e_min // 2
            pairs.append((values(n, mid - fmt.mant_bits // 2 - 2, mid + 2),
                          values(n, mid - fmt.mant_bits // 2 - 2, mid + 2), chunk))
        n = 2 * edge + 5
        # NaN and the infinities at several positions of a chunk, in w or
        # in x, against a finite, zero or infinite partner
        for at in sorted({0, chunk // 2, chunk - 1}):
            for special in (math.nan, math.inf, -math.inf):
                for partner in (1.5, -0.0, math.inf):
                    w, x = values(n, 0, 3), values(n, 0, 3)
                    i = (n // chunk // 2) * chunk + at
                    (w, x)[at % 2][i] = special
                    (x, w)[at % 2][i] = partner
                    pairs.append((w, x, chunk))
        # an overflow mid-chunk, then an opposing one in a later chunk
        for k, first in ((2, big), (3, -big)):
            w = values(n, 0, fmt.e_max // 2)
            at = n // 3 + chunk // 2
            w[at:at + k] = [first] * k
            w[at + k + 2 * chunk:at + 2 * k + 2 * chunk] = [-first] * k
            pairs.append((w, [1.0] * n, chunk))
        # a negative master that the final rounding flushes or rounds to -0
        for a, b in ((tiny, -1.5 * tiny), (2.0 * tiny, -2.5 * tiny)):
            w = [0.0, -0.0] * (n // 2) + [0.0] * (n % 2)
            w[n // 2], w[n // 2 + chunk] = a, b
            pairs.append((w, [1.0] * n, chunk))
        # 1 + 2^-p, then the product 2^-(p+1) * (1 - 2^-26): formed in
        # binary32 it would round to a tie, which rounds 1 + 2^-p up to even
        p = fmt.mant_bits
        if p >= 13 and chunk > 1:
            w, x = [0.0] * n, [1.0] * n
            w[chunk:chunk + 2] = 1.0, 1.0 + 2.0**-13
            x[chunk:chunk + 2] = 1.0 + 2.0**-p, 2.0 ** -(p + 1) * (1.0 - 2.0**-13)
            pairs.append((w, x, chunk))
    return pairs


@pytest.mark.parametrize("spec", DOT_CORPUS_FORMATS)
def test_fmac8_dot_takes_long_vectors_to_the_tensor_reduction(spec, reduce_calls):
    fmt = FpFormat.parse(spec)
    rng = np.random.default_rng(2020)
    results = []
    for w, x, chunk in _long_dot_corpus(fmt, rng):
        tensor = len(w) >= TENSOR_DOT_EDGE[chunk]
        before = len(reduce_calls)
        got = fmac8_dot(w, x, fmt, chunk=chunk)
        assert reduce_calls[before:] == ([AccumMode.FMAC8] if tensor else []), (len(w), chunk)
        want = dot_oracle(w, x, fmt, chunk=chunk)
        assert type(got) is float and _same_bits(got, want), (w, x, chunk, got, want)
        # float32 operands hold the same values and give the same bits
        assert _same_bits(fmac8_dot(np.float32(w), np.float32(x), fmt, chunk=chunk), got)
        if tensor:
            results.append(got)
    # the tensor path reaches what the corpus is meant to reach
    assert any(math.isnan(r) for r in results) and any(math.isinf(r) for r in results)
    if not fmt.denormals:
        assert any(r == 0.0 and math.copysign(1.0, r) < 0 for r in results)


def test_fmac8_dot_names_the_first_bad_operand():
    bad_w = [1.0, 2.0, 1.0 + 2.0**-11, 4098.0, 1.0]
    bad_x = [2.0**-25, 1.0, 65536.0, 1.0, 1.0]
    ok = [1.0] * 5

    def message(w, x, fmt, dot=fmac8_dot):
        with pytest.raises(ValueError) as info:
            dot(w, x, fmt)
        return str(info.value)

    # all of w is checked before x
    assert message(bad_w, bad_x, HALF) == "w[2]=1.00048828125 is not representable in 1/5/10/d"
    assert message(ok, bad_x, HALF) == "x[0]=2.9802322387695312e-08 is not representable in 1/5/10/d"
    assert message([4100.0, 4098.0], ok[:2], HALF) == "w[1]=4098.0 is not representable in 1/5/10/d"
    assert message(ok[:2], [math.nan, 2.0**-24], HALF_N) == (
        "x[1]=5.960464477539063e-08 is not representable in 1/5/10/n")
    assert message([math.inf, -math.inf, 70000.0], ok[:3], HALF) == (
        "w[2]=70000.0 is not representable in 1/5/10/d")

    # long vectors take the tensor reduction and name the same operand
    # as the exact loop: past the boundary, all of w before x, NaN and
    # float32 signaling NaN members, a denormal in a /n format
    n = 300
    snan = np.array([0x7FA00000], dtype=np.uint32).view(np.float32)[0]

    def long(bad):
        v = [1.0] * n
        for i, b in bad.items():
            v[i] = b
        return v

    cases = [
        (long({200: 1.0 + 2.0**-11, 260: 4098.0}), long({}), HALF,
         "w[200]=1.00048828125 is not representable in 1/5/10/d"),
        (long({299: 4098.0}), long({3: 2.0**-25}), HALF,
         "w[299]=4098.0 is not representable in 1/5/10/d"),
        (long({0: math.nan, 5: math.inf}), long({1: -math.inf, 2: math.nan, 250: 70000.0}), HALF,
         "x[250]=70000.0 is not representable in 1/5/10/d"),
        (np.float32(long({10: snan, 150: 1.0 + 2.0**-11})), np.float32(long({})), HALF,
         "w[150]=1.00048828125 is not representable in 1/5/10/d"),
        (long({7: math.nan}), long({120: 2.0**-24}), HALF_N,
         "x[120]=5.960464477539063e-08 is not representable in 1/5/10/n"),
    ]
    for w, x, fmt, text in cases:
        assert message(w, x, fmt) == message(w, x, fmt, dot=_fmac8_dot_exact) == text


@pytest.mark.parametrize("chunk", (np.int64(2**62), 2**70), ids=("int64-2^62", "2^70"))
def test_fmac8_dot_takes_a_huge_chunk_silently(chunk, reduce_calls):
    # the length rule divides K rather than multiplying the chunk, so no
    # numpy integer overflows and the vector stays on the exact loop
    rng = np.random.default_rng(2021)
    w = roundfp_array(rng.standard_normal(4096), HALF).tolist()
    x = roundfp_array(rng.standard_normal(4096), HALF).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fmac8_dot(w, x, HALF, chunk=chunk)
    assert not reduce_calls
    assert _same_bits(got, _fmac8_dot_exact(w, x, HALF, chunk=4096))
    assert _same_bits(got, dot_oracle(w, x, HALF, chunk=4096))


# ── instruction/oracle sweeps ──────────────────────────────────────────


INSTRUCTION_ORACLES = ((mac, mac_oracle), (macs, macs_oracle), (fmac, fmac_oracle),
                       (fmacs, fmacs_oracle))


def _dyadic_reference(impl, acc, x, y, fmt):
    """``impl`` in the float-level arithmetic of ``_dyadic``."""
    acc_fmt = BINARY32 if impl in (macs, fmacs) else fmt
    if impl in (fmac, fmacs):
        return _dyadic.fused_add_round(acc, x, y, acc_fmt)
    special, p = _dyadic.mul_exact(x, y)
    r1 = special if special is not None else _dyadic.add_round(-0.0, p, fmt)
    return _dyadic.add_round(acc, r1, acc_fmt)


def _special_grid(fmt):
    """Every triple over ±0, ±smallest positive, ±min_normal, ±1.5,
    ±max_finite, ±inf and NaN: every pairing of a signed zero, an
    underflowing or overflowing product and an infinite accumulator."""
    base = (0.0, fmt.smallest_positive, fmt.min_normal, 1.5, fmt.max_finite, math.inf)
    values = [s * v for v in base for s in (1.0, -1.0)] + [math.nan]
    return [(a, x, y) for a in values for x in values for y in values]


@pytest.mark.parametrize("fmt", (HALF, HALF_N, WIDE, WIDE_N, BF8), ids=str)
def test_instructions_match_oracle(fmt):
    rng = np.random.default_rng(5)
    triples = []
    for _ in range(250):
        e = int(rng.integers(-30, 20))
        x = q(float(rng.standard_normal()) * 2.0**e, fmt)
        y = q(float(rng.standard_normal()), fmt)
        a_fmt = q(float(rng.standard_normal()) * 2.0**e, fmt)
        a32 = float(np.float32(rng.standard_normal()))
        triples += [(a_fmt, x, y, False), (a32, x, y, True)]
    # every special triple, with the accumulator in both roles
    triples += [t + (wide,) for t in _special_grid(fmt) for wide in (False, True)]
    for acc, x, y, wide in triples:
        for impl, ora in INSTRUCTION_ORACLES:
            if (impl in (macs, fmacs)) == wide:
                got, want = impl(acc, x, y, fmt), ora(acc, x, y, fmt)
                assert _same_bits(got, want), (impl.__name__, acc, x, y, got, want)
                ref = _dyadic_reference(impl, acc, x, y, fmt)
                assert _same_bits(ref, want), (impl.__name__, acc, x, y, ref, want)
    # one grid case: an infinite accumulator meets a finite product that
    # rounds to the opposite infinity
    assert math.isnan(mac(-math.inf, fmt.max_finite, fmt.max_finite, fmt))


@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=lambda t: t.__name__)
@pytest.mark.parametrize("fmt", (HALF, HALF_N, WIDE, WIDE_N, BF8), ids=str)
def test_instructions_take_numpy_scalars_silently(fmt, dtype):
    # the suite turns RuntimeWarning into an error; every result is a
    # Python float with the bits of the float operands' result
    assert math.isnan(fmac(np.float32(math.inf), np.float32(1), np.float32(-math.inf), fmt))
    for a, x, y in _special_grid(fmt):
        for impl, ora in INSTRUCTION_ORACLES:
            got = impl(dtype(a), dtype(x), dtype(y), fmt)
            assert type(got) is float and _same_bits(got, ora(a, x, y, fmt)), (
                impl.__name__, a, x, y, got)


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


def test_dyadic_shares_no_code_with_the_kernels():
    # _dyadic checks the numpy kernels, so it may import neither numpy
    # nor the modules that hold them
    tree = ast.parse(Path(_dyadic.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # a relative import names one of fpemu's own modules
                base = f"fpemu.{base}".rstrip(".")
            imported |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    assert "fpemu.formats" in imported  # the walk sees the relative import
    bad = {m for m in imported
           if m.split(".")[0] == "numpy" or m in ("fpemu.rounding", "fpemu.instructions")}
    assert not bad


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
# Shapes that cross product blocks: a 64x85 output holds 3 steps per
# block, and k = 600 spans three blocks of at most 256 steps.  FMAC8
# blocks hold whole chunks: at chunk 8 the 64x85 blocks grow to one
# 8-step chunk, and the k = 600 blocks stay at 256 steps.
BLOCK_SHAPES = ((64, 20, 85), (3, 600, 2))


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
    narrow = matmul(a, b, fmt, mode=mode, chunk=chunk)
    for i, j in lanes:
        want_wide, want = _oracle_chain(a[i].tolist(), b[:, j].tolist(), fmt, mode, chunk)
        where = f"{a.shape[0]}x{a.shape[1]}x{b.shape[1]} {fmt} {mode.value} [{i},{j}]"
        assert _same_bits32(wide[i, j], want_wide), f"wide {where}"
        assert _same_bits32(narrow[i, j], want), f"narrow {where}"


@pytest.mark.parametrize("mode", list(AccumMode), ids=lambda m: m.value)
def test_matmul_matches_scalar_chains(mode):
    rng = np.random.default_rng(19)
    block_rng = np.random.default_rng(23)
    for fmt in (HALF, WIDE_N, BINARY32):
        # random normals, every lane
        a = roundfp_array(rng.standard_normal((3, 10)).astype(np.float32), fmt)
        b = roundfp_array(rng.standard_normal((10, 4)).astype(np.float32), fmt)
        _check_lanes(a, b, fmt, mode, 4, [(i, j) for i in range(3) for j in range(4)])
        # special operands, sampled lanes: the infinity row, the NaN
        # column, the overflow lane, two at random
        for shapes, r in ((TRAINING_SHAPES, rng), (BLOCK_SHAPES, block_rng)):
            for m, k, n in shapes:
                a, b = _special_operands(r, m, k, n, fmt)
                lanes = {(0, 0), (0, n - 1), (m - 1, 0), (m // 2, n // 2),
                         (int(r.integers(m)), int(r.integers(n)))}
                _check_lanes(a, b, fmt, mode, 8, sorted(lanes))


@pytest.mark.parametrize("chunk", (3, 100, 2**40), ids=("chunk3", "chunk100", "chunk2^40"))
def test_fmac8_chunks_that_do_not_fit_a_block_match_scalar_chains(chunk):
    # Chunk 3 cuts the 256-step blocks of k = 600 down to 255 steps;
    # chunk 100 is longer than the 3-step blocks of the 64x85 output; and
    # chunk 2^40 is longer than k, so it drains only at the end, as a
    # chunk of k steps does.
    rng = np.random.default_rng(29)
    for fmt in (HALF, WIDE_N, BINARY32):
        for m, k, n in BLOCK_SHAPES:
            a, b = _special_operands(rng, m, k, n, fmt)
            lanes = {(0, 0), (0, n - 1), (m - 1, 0), (m // 2, n // 2),
                     (int(rng.integers(m)), int(rng.integers(n)))}
            _check_lanes(a, b, fmt, AccumMode.FMAC8, chunk, sorted(lanes))
            if chunk > k:
                got = matmul_wide(a, b, fmt, mode=AccumMode.FMAC8, chunk=chunk)
                one = matmul_wide(a, b, fmt, mode=AccumMode.FMAC8, chunk=k)
                assert (got.view(np.uint32) == one.view(np.uint32)).all()


def _round_ref(v: float, fmt: FpFormat) -> float:
    """v rounded into ``fmt`` by ``_dyadic``'s big-integer rounding."""
    return _dyadic.round_mk(*_dyadic.to_mk(v), fmt) if -math.inf < v < math.inf and v else v


def _instruction_chain(arow, bcol, fmt, mode, chunk):
    """One output element replayed with the scalar instructions, which run
    on ``_dyadic``'s exact integers: (wide, narrow) as in :func:`_oracle_chain`.
    FMAC8's narrow result is that of :func:`fmac8_dot`'s exact loop."""
    acc = 0.0
    if mode is AccumMode.FMAC8:
        master = 0.0
        for i, (x, y) in enumerate(zip(arow, bcol)):
            if i % chunk == 0:
                master = fmacs(master, acc, 1.0, fmt)  # binary32 drain
                acc = 0.0
            acc = fmac(acc, x, y, fmt)
        return fmacs(master, acc, 1.0, fmt), _fmac8_dot_exact(arow, bcol, fmt, chunk)
    step = {AccumMode.MAC: mac, AccumMode.MACS: macs,
            AccumMode.FMAC: fmac, AccumMode.FMACS: fmacs}[mode]
    for x, y in zip(arow, bcol):
        acc = step(acc, x, y, fmt)
    return acc, _round_ref(acc, fmt)


# Every product of two values of a format with p <= 11 and e <= 7 is a
# binary32 number, so its products are formed in binary32.  1/7/11/d is
# the widest such format; 1/7/12/d and 1/8/7/n are the narrowest that are
# not, by one mantissa bit and by one exponent bit.
PRODUCT_RULE_FORMATS = {"1/7/11/d": True, "1/7/12/d": False, "1/8/7/n": False,
                        "1/5/10/d": True, "1/6/9/n": True, "1/8/23/d": False}
# 12 lanes over 300 steps, two product blocks (255 + 45 steps for FMAC8
# at chunk 3), and 150 and 480 lanes over 9 and 4 steps: both sides of
# _LOOP_LANES.
RULE_SHAPES = ((4, 300, 3), (10, 9, 15), (12, 4, 40))


def _rule_operands(rng, m, k, n, fmt):
    """Format operands over the whole range, denormals included, with signed
    zeros; lane (0, 0) sums -smallest_positive^2 products (a -0 in FMACS
    when they are below binary32's range), lane (m-1, n-1) meets
    +-max_finite^2 products, and row 1 and column 1 hold an infinity."""
    lo, hi = fmt.e_min - fmt.mant_bits, fmt.e_max // 2 + 1
    a = rng.standard_normal((m, k)) * 2.0 ** rng.integers(lo, hi, (m, k))
    b = rng.standard_normal((k, n)) * 2.0 ** rng.integers(lo, hi, (k, n))
    near_one = rng.random((m, k)) < 0.5  # half the steps nearer 1, so that sums mix
    a[near_one] = rng.standard_normal(int(near_one.sum()))
    for x in (a, b):
        r = rng.random(x.shape)
        x[r < 0.08] = 0.0
        x[r > 0.92] = -0.0
    tiny, big = fmt.smallest_positive, fmt.max_finite
    a[0], b[:, 0] = -tiny, tiny
    a[m - 1, ::2], b[::2, n - 1] = big, big
    a[m - 1, 1::4], b[1::4, n - 1] = -big, big
    a[1, k // 2], b[k // 3, 1] = np.inf, -np.inf
    return (roundfp_array(a.astype(np.float32), fmt),
            roundfp_array(b.astype(np.float32), fmt))


@pytest.mark.parametrize("spec", PRODUCT_RULE_FORMATS)
def test_matmul_matches_instruction_chains_in_every_lane(spec):
    fmt = FpFormat.parse(spec)
    assert _products_fit_binary32(fmt) == PRODUCT_RULE_FORMATS[spec]
    lanes = [m * n for m, _, n in RULE_SHAPES]
    assert min(lanes) <= _LOOP_LANES < max(lanes)
    rng = np.random.default_rng(31)
    chunk = 3  # FMAC8 cuts the 256-step blocks of k = 300 to 255 steps
    results = []
    for m, k, n in RULE_SHAPES:
        a, b = _rule_operands(rng, m, k, n, fmt)
        for mode in AccumMode:
            wide = matmul_wide(a, b, fmt, mode=mode, chunk=chunk)
            narrow = matmul(a, b, fmt, mode=mode, chunk=chunk)
            # float64 operands hold the same values and give the same bits
            a64, b64 = a.astype(np.float64), b.astype(np.float64)
            assert np.array_equal(wide.view(np.uint32),
                                  matmul_wide(a64, b64, fmt, mode=mode, chunk=chunk).view(np.uint32))
            assert np.array_equal(narrow.view(np.uint32),
                                  matmul(a64, b64, fmt, mode=mode, chunk=chunk).view(np.uint32))
            for i in range(m):
                for j in range(n):
                    want_wide, want = _instruction_chain(a[i].tolist(), b[:, j].tolist(),
                                                         fmt, mode, chunk)
                    where = f"{m}x{k}x{n} {fmt} {mode.value} [{i},{j}]"
                    assert _same_bits32(wide[i, j], want_wide), f"wide {where}"
                    assert _same_bits32(narrow[i, j], want), f"narrow {where}"
            # the rational oracle on a slice: the -0 lane, the overflow lane
            _check_lanes(a, b, fmt, mode, chunk, [(0, 0), (m - 1, n - 1)])
            results.append(narrow)
    got = np.concatenate([r.ravel() for r in results])
    # The corpus reaches every kind of result.
    assert np.isnan(got).any() and np.isinf(got).any()
    assert ((got == 0) & np.signbit(got)).any()
    mag = np.abs(got[np.isfinite(got)])
    assert (mag > 1).any()
    assert ((mag > 0) & (mag < fmt.min_normal)).any() == fmt.denormals


def test_running_sums_loop_and_accumulate_give_the_same_bits():
    # _running_sums loops over rows above _LOOP_LANES lanes and calls
    # np.add.accumulate up to it; np.add.accumulate is the reference.
    rng = np.random.default_rng(47)
    for lanes in (1, _LOOP_LANES, _LOOP_LANES + 1, 3 * _LOOP_LANES):
        for steps in (1, 2, 40):
            rows = (rng.standard_normal((steps + 1, lanes))
                    * 2.0 ** rng.integers(-160, 126, (steps + 1, lanes))).astype(np.float32)
            rows[0, ::3] = -0.0
            rows[1:, ::7] = -0.0
            rows[-1, 1::11] = np.inf
            rows[-1, 2::13] = -np.inf
            want = rows.copy()
            with np.errstate(invalid="ignore", over="ignore"):
                np.add.accumulate(want, axis=0, out=want)
                _running_sums(rows)
            assert np.array_equal(rows.view(np.uint32), want.view(np.uint32)), (lanes, steps)


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


def test_fmacs_binary32_overflow_midpoint_is_not_double_rounded():
    # x*y = 2^103 - 2^60 exactly (4188889 * 2099863 = 2^43 - 1).  Added to
    # +-max_f32 = +-(2^128 - 2^104), the exact sum lies 2^60 short of the
    # overflow midpoint 2^128 - 2^103.  binary64 drops the 2^60 and lands on
    # it, where a float32 cast ties to even, infinity; one correct rounding
    # stays at max_f32.
    big = BINARY32.max_finite
    x, y = 4188889 * 2.0**30, 2099863 * 2.0**30
    for sign in (1.0, -1.0):
        a = np.array([[sign * big, x]])
        b = np.array([[1.0], [sign * y]])
        with np.errstate(over="ignore"):
            assert np.isinf(np.float32(a[0, 0] + x * sign * y))
        got = matmul_wide(a, b, BINARY32, mode=AccumMode.FMACS)
        assert float(got[0, 0]) == sign * big
        assert fmacs_oracle(sign * big, x, sign * y, BINARY32) == sign * big
        _check_lanes(a, b, BINARY32, AccumMode.FMACS, 8, [(0, 0)])
    # Just above the midpoint: x*y = 2^103 + 2^80, exact in binary64, overflows.
    a = np.array([[big, (2**23 + 1) * 2.0**40]])
    b = np.array([[1.0], [2.0**40]])
    assert float(matmul_wide(a, b, BINARY32, mode=AccumMode.FMACS)[0, 0]) == math.inf
    _check_lanes(a, b, BINARY32, AccumMode.FMACS, 8, [(0, 0)])


def test_fmacs_blocks_mix_exact_and_inexact_products():
    # A 1x600 by 600x2 product runs in three blocks of at most 256 steps.
    # Blocks 0 and 2 hold binary32-exact products only and are summed in
    # float32.  Block 1 also holds the inexact tie product of
    # test_fmacs_binary32_tie_is_not_double_rounded in column 0, so it
    # takes the checked binary64 steps for both columns.
    k = 600
    a = np.zeros((1, k))
    b = np.zeros((k, 2))
    a[0, :2] = 2.0**30, 2.0**7
    b[:2] = 1.0
    a[0, 300] = 2.0**3 * (1 + 2.0**-15)
    b[300] = -(2.0**3) * (1 - 2.0**-15), 1.0
    a[0, 550], b[550] = 1.0, 256.0
    got = matmul_wide(a, b, BINARY32, mode=AccumMode.FMACS)
    assert got[0].tolist() == [1073742208.0, 1073742208.0]
    _check_lanes(a, b, BINARY32, AccumMode.FMACS, 8, [(0, 0), (0, 1)])


def test_fmacs_bfloat16_products_below_binary32_are_rounded_once():
    # 1/8/7/n products reach far below 2^-149, where they are not binary32
    # numbers.  Steps of 2^-126 and 2^-149 make the odd binary32 value
    # 2^-126 + 2^-149; adding the product 2^-150 is a tie that rounds up
    # to even.  Rounding the product into binary32 first would make it 0.
    a = np.array([[2.0**-63, 2.0**-75, 2.0**-75, 2.0**-100]])
    b = np.array([[2.0**-63], [2.0**-74], [2.0**-75], [2.0**-60]])
    assert float(np.float32(a[0, 2] * b[2, 0])) == 0.0
    got = matmul_wide(a, b, BF8, mode=AccumMode.FMACS)
    assert float(got[0, 0]) == 2.0**-126 + 2.0**-148
    _check_lanes(a, b, BF8, AccumMode.FMACS, 8, [(0, 0)])


FORMAT_WIDTH_MODES = (AccumMode.MAC, AccumMode.FMAC, AccumMode.FMAC8)


@pytest.mark.parametrize("mode", FORMAT_WIDTH_MODES, ids=lambda m: m.value)
def test_format_width_midpoint_sum_is_rounded_once(mode):
    # In 1/8/7/n, 7 * 37 = 259 and 9 * 29 = 261 are midpoints between
    # 8-bit significands: 259 ties to even upward, 261 downward.  Step 0
    # sets the accumulator to +-2^(e-60); step 1 adds such a tie product
    # times 2^(e-8).  The binary64 add drops the accumulator and lands on
    # the midpoint, which rounds to even, while the exact sum lies just to
    # the other side.  MAC rounds the product first, so it never meets the
    # midpoint; it must still agree with the oracle.
    rows = []
    for e in (-8, 30, -50):
        for sign in (1.0, -1.0):
            rows.append([-sign * 2.0 ** (e - 60), sign * 7.0 * 2.0 ** (e - 4)])
            rows.append([sign * 2.0 ** (e - 60), sign * 9.0 * 2.0 ** (e - 4)])
    a = np.array(rows)
    b = np.array([[1.0, 1.0], [37 / 16, 29 / 16]])
    _check_lanes(a, b, BF8, mode, 8, [(i, j) for i in range(len(a)) for j in range(2)])
    got = matmul_wide(a, b, BF8, mode=mode)
    ties = np.zeros(got.shape, dtype=bool)
    ties[0::2, 0] = ties[1::2, 1] = True
    naive = roundfp_array(a[:, :1] * b[:1] + a[:, 1:] * b[1:], BF8)
    differs = got[ties] != naive[ties]
    assert differs.all() if mode is not AccumMode.MAC else not differs.any()


@pytest.mark.parametrize("mode", FORMAT_WIDTH_MODES, ids=lambda m: m.value)
def test_format_width_overflow_partway_through_a_block(mode):
    # Lane 0 overflows at step 1; lane 1 reaches the overflow threshold
    # 65520, a midpoint that ties to even, 65536, which is infinity.
    # Both must stay infinite through the steps after, although finite
    # steps follow.  Lane 2 rounds down to max_finite and comes back.
    big = HALF.max_finite
    a = np.array([[big, big, -big, 1.0],
                  [big, 16.0, -big, 1.0],
                  [big, 8.0, -big, 1.0],
                  [-big, -big, big, 1.0]])
    b = np.ones((4, 1))
    got = matmul_wide(a, b, HALF, mode=mode)
    assert got[:, 0].tolist() == [math.inf, math.inf, 1.0, -math.inf]
    _check_lanes(a, b, HALF, mode, 8, [(i, 0) for i in range(4)])


@pytest.mark.parametrize("mode", FORMAT_WIDTH_MODES, ids=lambda m: m.value)
def test_format_width_flush_partway_through_a_block(mode):
    # In 1/6/9/n, min_normal - 1.5 min_normal = -0.5 min_normal flushes to
    # -0 at step 1, and adding -0 keeps it.  In lane 1, step 3 adds the
    # denormal product 0.75 min_normal, which flushes to +0 as well.
    mn = WIDE_N.min_normal
    a = np.array([[mn, -1.5 * mn, 0.0, -0.0],
                  [mn, -1.5 * mn, 0.0, 1.5 * 2.0**-16]])
    b = np.array([[1.0], [1.0], [-1.0], [2.0**-15]])
    got = matmul_wide(a, b, WIDE_N, mode=mode)
    assert (got == 0.0).all()
    if mode is not AccumMode.FMAC8:  # the drain into the +0 master gives +0
        assert np.signbit(got[:, 0]).tolist() == [True, False]
    _check_lanes(a, b, WIDE_N, mode, 8, [(0, 0), (1, 0)])


@pytest.mark.parametrize("chunk, at", ((2, 0), (3, 255)), ids=("chunk2", "chunk3-across-blocks"))
def test_fmac8_drains_the_corrected_step(chunk, at):
    # Steps `at` and `at + 1` are the 259 tie of
    # test_format_width_midpoint_sum_is_rounded_once, in one chunk; the
    # next step drains the corrected 258/256 into the master, once.  With
    # chunk 3 the blocks are 255 steps, whole chunks, so the corrected
    # chunk opens the second block.
    k = 300
    a = np.zeros((1, k))
    b = np.zeros((k, 1))
    a[0, at:at + 3] = -(2.0**-68), 7 / 16, 1.0
    b[at:at + 3, 0] = 1.0, 37 / 16, 0.5
    a[0, -1], b[-1, 0] = 1.0, 2.0**-8
    got = matmul_wide(a, b, BF8, mode=AccumMode.FMAC8, chunk=chunk)
    assert float(got[0, 0]) == 258 / 256 + 0.5 + 2.0**-8
    _check_lanes(a, b, BF8, AccumMode.FMAC8, chunk, [(0, 0)])


@pytest.mark.parametrize("mode", list(AccumMode), ids=lambda m: m.value)
def test_matmul_negative_zero_products_sum_to_positive_zero(mode):
    # every accumulator starts at +0, and (+0) + (-0) is +0
    a = np.array([[-1.0, 1.0]])
    b = np.array([[0.0], [-0.0]])
    for out in (matmul_wide(a, b, HALF, mode=mode), matmul(a, b, HALF, mode=mode)):
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
        narrow = matmul(a, b, fmt, mode=mode, chunk=2)
        for out in (wide, narrow):
            assert np.isnan(out).all()
            assert np.all(out.view(np.uint32) == canonical)


@pytest.mark.parametrize("fmt", (WIDE_N, BINARY32, BF8), ids=str)
def test_matmul_takes_float32_signaling_nan_silently(fmt):
    # 0x7FA00000 is a signaling NaN, a member of every format.  Widening it
    # raises numpy's invalid flag, which the suite turns into an error.
    snan = np.array([0x7FA00000, 0xFFA00001], dtype=np.uint32).view(np.float32)
    a = np.ones((2, 3), dtype=np.float32)
    a[0, 1], a[1, 2] = snan
    b = np.ones((3, 2), dtype=np.float32)
    canonical = np.float32(np.nan).view(np.uint32)
    for mode in AccumMode:
        for out in (matmul(a, b, fmt, mode=mode, chunk=2), matmul_wide(a, b, fmt, mode=mode, chunk=2),
                    matmul_wide(b.T, a.T, fmt, mode=mode, chunk=2).T):
            assert np.all(out.view(np.uint32) == canonical)


@pytest.mark.parametrize("mode", list(AccumMode), ids=lambda m: m.value)
def test_matmul_wide_is_prerounding_state(mode):
    rng = np.random.default_rng(29)
    a = roundfp_array(rng.standard_normal((4, 9)).astype(np.float32), HALF)
    b = roundfp_array(rng.standard_normal((9, 3)).astype(np.float32), HALF)
    wide = matmul_wide(a, b, HALF, mode=mode, chunk=4)
    narrow = matmul(a, b, HALF, mode=mode, chunk=4)
    assert wide.dtype == narrow.dtype == np.float32
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
    # operands that are not matrices are refused by name and shape
    for a, b, name, shape in (([1.0, 2.0], [[1.0], [2.0]], "a", "(2,)"),
                              (good, np.ones((2, 2, 1)), "b", "(2, 2, 1)"),
                              (1.0, good, "a", "()")):
        with pytest.raises(ValueError, match=rf"^{name} must be a 2-D matrix, got shape {re.escape(shape)}$"):
            matmul(a, b, HALF)


def test_accum_mode_parse():
    assert AccumMode.parse("fmac8") is AccumMode.FMAC8
    assert AccumMode.parse("FMACS") is AccumMode.FMACS
    assert AccumMode.parse(AccumMode.MAC) is AccumMode.MAC
    with pytest.raises(ValueError):
        AccumMode.parse("fma")
