from fractions import Fraction

import numpy as np
import pytest

from fpemu.formats import (
    BINARY32,
    FpClass,
    FpFormat,
    FpValue,
    _BLOCK,
    class_counts,
    classify,
    classify_array,
    decode16,
    decode16_array,
    encode16,
    encode16_array,
)
from fpemu.rounding import _on_grid


HALF = FpFormat.parse("1/5/10/d")
HALF_N = FpFormat.parse("1/5/10/n")
WIDE = FpFormat.parse("1/6/9/d")
BF8 = FpFormat.parse("1/8/7/n")
# every 16-bit format: 1/e/(15-e) for e = 2..8, with and without denormals
FORMATS16 = [FpFormat(e, 15 - e, d) for e in range(2, 9) for d in (True, False)]
D16 = [f for f in FORMATS16 if f.denormals]


def test_frozen_constants_half():
    assert HALF.bias == 15
    assert HALF.e_min == -14
    assert HALF.e_max == 15
    assert HALF.min_denormal == 2.0**-24
    assert HALF.min_normal == 2.0**-14
    assert HALF.max_finite == 65504.0
    assert HALF.overflow_threshold == 65520.0
    assert HALF.width == 16


def test_frozen_constants_wide_exponent():
    assert WIDE.bias == 31
    assert WIDE.e_min == -30
    assert WIDE.e_max == 31
    assert WIDE.min_denormal == 2.0**-39
    assert WIDE.min_normal == 2.0**-30
    assert WIDE.max_finite == (2.0 - 2.0**-9) * 2.0**31
    assert WIDE.width == 16


def test_frozen_constants_quarter_mantissa():
    assert BF8.e_min == -126
    assert BF8.e_max == 127
    assert BF8.min_denormal is None
    assert BF8.smallest_positive == 2.0**-126
    assert BF8.max_finite == (2.0 - 2.0**-7) * 2.0**127
    assert BF8.width == 16


def test_binary32_matches_numpy_limits():
    info = np.finfo(np.float32)
    assert BINARY32.max_finite == float(info.max)
    assert BINARY32.min_normal == float(info.tiny)
    assert BINARY32.min_denormal == float(info.smallest_subnormal)


def test_str_parse_round_trip():
    for spec in ("1/5/10/d", "1/5/10/n", "1/6/9/d", "1/6/9/n", "1/8/7/n", "1/2/1/d"):
        assert str(FpFormat.parse(spec)) == spec


@pytest.mark.parametrize(
    "bad",
    [
        "1/9/6/d",      # exponent field too wide
        "1/1/10/d",     # exponent field too narrow
        "1/5/0/d",      # mantissa too narrow
        "1/5/24/d",     # mantissa wider than binary32 can host
        "2/5/10/d",     # sign field must be a single bit
        "1/5/10/x",
        "1/5/10",
        "1-5-10-d",
        "1/\u0665/\u0661\u0660/d",   # Arabic-Indic digits for 1/5/10/d
        "",
    ],
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        FpFormat.parse(bad)


def test_contains_boundaries():
    assert HALF.contains(0.0)
    assert HALF.contains(-0.0)
    assert HALF.contains(2.0**-24)
    assert not HALF.contains(2.0**-25)
    assert HALF.contains(65504.0)
    assert not HALF.contains(65520.0)
    assert HALF.contains(float("inf"))
    assert HALF.contains(float("nan"))
    # flush-to-zero variant drops the denormal range
    assert not HALF_N.contains(2.0**-24)
    assert HALF_N.contains(2.0**-14)
    # one ulp below min_normal is the largest denormal
    assert HALF.contains(2.0**-14 - 2.0**-24)
    assert not HALF_N.contains(2.0**-14 - 2.0**-24)
    # Python ints are tested exactly and never overflow a float
    assert not HALF.contains(4098)  # the quantum at 2^12 is 4
    assert HALF.contains(4100)
    assert HALF.contains(-65504) and HALF.contains(0)
    assert not HALF.contains(10**400)
    # numpy scalars are tested at their own value
    assert HALF.contains(np.float16(0.1))
    assert not HALF.contains(np.float32(0.1))
    assert HALF.contains(np.float32(2.0**-24)) and not HALF_N.contains(np.float32(2.0**-24))
    assert HALF.contains(np.float32("nan")) and HALF.contains(np.float16("-inf"))
    # a ratio whose denominator is not a power of two is never a member
    assert HALF.contains(Fraction(3, 4)) and not HALF.contains(Fraction(1, 3))


def test_contains_respects_mantissa_width():
    assert HALF.contains(1.0 + 2.0**-10)
    assert not HALF.contains(1.0 + 2.0**-11)
    assert WIDE.contains(1.0 + 2.0**-9)
    assert not WIDE.contains(1.0 + 2.0**-10)


def test_classify_examples():
    assert classify(0.0, HALF) is FpClass.ZERO
    assert classify(-0.0, HALF) is FpClass.ZERO
    assert classify(2.0**-24, HALF) is FpClass.DENORMAL
    assert classify(-2.0**-15, HALF) is FpClass.DENORMAL
    assert classify(2.0**-14, HALF) is FpClass.NORMAL
    assert classify(float("inf"), HALF) is FpClass.INFINITY
    assert classify(float("nan"), HALF) is FpClass.NAN
    # same magnitude, different format, different class
    assert classify(2.0**-24, WIDE) is FpClass.NORMAL
    # an int beyond binary64's range is in no format
    for big in (10**400, -10**400):
        with pytest.raises(ValueError, match=r"^-?1000*0 is not representable in 1/5/10/d$"):
            classify(big, HALF)


def test_classify_array_agrees_with_scalar():
    rng = np.random.default_rng(3)
    words = rng.integers(0, 1 << 16, size=2000, dtype=np.uint16)
    vals = words.view(np.float16).astype(np.float32)
    # raw binary32 bit patterns, signaling NaNs (quiet bit clear) included
    raw = rng.integers(0, 1 << 32, size=4000, dtype=np.uint64).astype(np.uint32)
    snan = np.array([0x7F800001, 0xFF800001, 0x7FBFFFFF, 0x00000001, 0x80000000],
                    dtype=np.uint32)
    raw32 = np.concatenate([raw, snan]).view(np.float32)
    # binary64: the same values widened, and raw binary64 bit patterns
    with np.errstate(invalid="ignore"):  # widening quiets signaling NaNs
        raw64 = np.concatenate([
            raw32.astype(np.float64),
            rng.integers(0, 1 << 64, size=4000, dtype=np.uint64).view(np.float64),
        ])
    classes = list(FpClass)
    for fmt in (HALF, WIDE, BF8):
        for x in (vals, raw32, raw64):
            codes = classify_array(x, fmt)
            assert codes.dtype == np.uint8 and codes.shape == x.shape
            for v, c in zip(x.tolist(), codes.tolist()):
                assert classes[c] is classify(v, fmt)
    # binary64 values below binary32's range and a 2-D view
    tiny = np.array([[2.0**-149, -(2.0**-160)], [np.nan, -np.inf]])
    assert classify_array(tiny, BF8).tolist() == [[1, 1], [4, 3]]
    assert classify_array(tiny.T, BF8).tolist() == [[1, 4], [1, 3]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("blocks", [(2, 0), (3, 1000)], ids=["whole", "remainder"])
def test_blocked_class_counts_match_the_codes(dtype, blocks):
    # random bit patterns over whole blocks and a shorter last one; each
    # class in turn sits at the first and the last element of every block
    whole, rest = blocks
    n = whole * _BLOCK + rest
    uint = np.dtype(dtype).str.replace("f", "u")
    rng = np.random.default_rng(23)
    base = rng.integers(0, np.iinfo(uint).max, n, dtype=uint, endpoint=True).view(dtype)
    ends = np.r_[0:n:_BLOCK, _BLOCK - 1:n:_BLOCK, n - 1]
    for fmt in (HALF, BF8):
        for v in (-0.0, fmt.min_normal / 2, -1.0, np.inf, np.nan):
            x = base.copy()
            x[ends] = v
            want = np.bincount(classify_array(x, fmt), minlength=5).tolist()
            got = class_counts(x, fmt)
            assert list(got) == want and all(type(c) is int for c in got), (fmt, v)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_class_counts_of_empty_and_0d_input(dtype):
    assert class_counts(np.zeros(0, dtype), HALF) == (0, 0, 0, 0, 0)
    for v, code in ((0.0, 0), (2.0**-20, 1), (-3.0, 2), (-np.inf, 3), (np.nan, 4)):
        got = class_counts(np.array(v, dtype), HALF)
        assert got == tuple(int(i == code) for i in range(5))
        assert got == tuple(np.bincount(classify_array(np.array(v, dtype), HALF).ravel(),
                                        minlength=5))


def test_encoding_partition_counts():
    # every 16-bit word decodes, and the value classes partition the space
    for fmt in (HALF, WIDE):
        words = np.arange(1 << 16, dtype=np.uint16)
        vals = decode16_array(words, fmt)
        codes = classify_array(vals, fmt)
        counts = np.bincount(codes, minlength=5)
        p = fmt.mant_bits
        assert counts[0] == 2                      # signed zeros
        assert counts[1] == 2 * (2**p - 1)         # denormals
        assert counts[3] == 2                      # infinities
        assert counts[4] == 2 * (2**p - 1)         # NaN payloads
        assert counts.sum() == 1 << 16


def test_half_wire_format_matches_ieee_binary16():
    words = np.arange(1 << 16, dtype=np.uint16)
    ours = decode16_array(words, HALF)
    ref = words.view(np.float16).astype(np.float32)
    both_nan = np.isnan(ours) & np.isnan(ref)
    assert np.all((ours == ref) | both_nan)
    # sign of every non-NaN value survives
    ok = ~np.isnan(ref)
    assert np.array_equal(np.signbit(ours[ok]), np.signbit(ref[ok]))


def _inf_word(fmt):
    return ((1 << fmt.exp_bits) - 1) << fmt.mant_bits


def _nan_word(fmt):
    """The canonical NaN: the infinity word with the mantissa MSB set."""
    return _inf_word(fmt) | 1 << (fmt.mant_bits - 1)


def test_encode_decode_round_trip_all_words():
    words = np.arange(1 << 16, dtype=np.uint16)
    mag = words & 0x7FFF
    for fmt in FORMATS16:
        vals = decode16_array(words, fmt)
        back = encode16_array(vals, fmt)
        # NaNs collapse to the canonical quiet pattern, the denormal words
        # of a flush format to a signed zero; everything else round-trips
        # bit for bit
        flushed = (mag < 1 << fmt.mant_bits) & (not fmt.denormals)
        want = np.where(flushed, words & 0x8000, words)
        nan_words = mag > _inf_word(fmt)
        assert np.array_equal(np.isnan(vals), nan_words)
        assert np.array_equal(back[~nan_words], want[~nan_words])
        assert np.all(back[nan_words] == _nan_word(fmt))
        # the scalar forms agree with the arrays
        bits = vals.view(np.uint32)
        for w in range(0, 1 << 16, 61):
            v = decode16(w, fmt)
            assert np.float32(v).view(np.uint32) == bits[w]
            assert encode16(v, fmt) == back[w]


@pytest.mark.parametrize("fmt", D16, ids=str)
def test_decode_enumerates_the_grid_in_order(fmt):
    # A d format has exactly inf_word nonnegative finite values, so
    # inf_word strictly increasing members of its grid, from +0 up to
    # max_finite, are all of them, each once and in order.
    vals = decode16_array(np.arange(_inf_word(fmt), dtype=np.uint16), fmt)
    vals = vals.astype(np.float64)
    assert vals[0] == 0.0 and not np.signbit(vals[0])
    assert np.all(np.diff(vals) > 0)
    assert _on_grid(vals, fmt).all()
    assert vals[1] == fmt.min_denormal and vals[-1] == fmt.max_finite


@pytest.mark.parametrize("fmt", FORMATS16, ids=str)
def test_decode_sign_bit_and_specials(fmt):
    inf_word = _inf_word(fmt)
    pos = decode16_array(np.arange(inf_word, dtype=np.uint16), fmt)
    neg = decode16_array(np.arange(inf_word, dtype=np.uint16) | 0x8000, fmt)
    assert np.array_equal(neg.view(np.uint32), pos.view(np.uint32) ^ 0x80000000)  # -0 too
    assert decode16_array([inf_word, inf_word | 0x8000], fmt).tolist() == [np.inf, -np.inf]
    above = np.arange(inf_word + 1, 0x8000)
    for words in (above, above | 0x8000):
        nans = decode16_array(words, fmt)
        assert np.all(nans.view(np.uint32) == np.float32(np.nan).view(np.uint32))


@pytest.mark.parametrize("fmt", D16, ids=str)
def test_flush_format_decodes_like_its_twin_but_denormals(fmt):
    flush = FpFormat(fmt.exp_bits, fmt.mant_bits, False)
    words = np.arange(1 << 16, dtype=np.uint16)
    d = decode16_array(words, fmt)
    n = decode16_array(words, flush)
    mag = words & 0x7FFF
    denormal = (mag > 0) & (mag < 1 << fmt.mant_bits)
    assert np.array_equal(n[~denormal].view(np.uint32), d[~denormal].view(np.uint32))
    assert np.all(n[denormal] == 0.0)
    assert np.array_equal(np.signbit(n[denormal]), words[denormal] >= 0x8000)


@pytest.mark.parametrize("fmt", FORMATS16, ids=str)
def test_encode_rejects_unrepresentable_values(fmt):
    p = fmt.mant_bits
    off_grid = [1.0 + 2.0 ** (-p - 1), 3.0 * 2.0 ** (fmt.e_min - p - 1)]
    too_big = [2.0 ** (fmt.e_max + 1), fmt.overflow_threshold, 1e300]
    too_small = [fmt.smallest_positive / 2, 2.0**-1074]
    twin_denormals = [fmt.min_normal / 2, fmt.min_normal - 2.0 ** (fmt.e_min - p)]
    rejected = off_grid + too_big + too_small
    if fmt.denormals:
        assert encode16_array(twin_denormals, fmt).tolist() == [1 << (p - 1), (1 << p) - 1]
    else:
        rejected += twin_denormals
    for v in rejected:
        for x in (v, -v):
            with pytest.raises(ValueError):
                encode16(x, fmt)
            with pytest.raises(ValueError):
                encode16_array([1.0, x, 0.0], fmt)
    good = [0.0, -0.0, 1.0, fmt.max_finite, -fmt.smallest_positive, np.inf, -np.inf, np.nan]
    assert encode16_array(good, fmt).tolist() == [
        0, 0x8000, (fmt.bias << p), _inf_word(fmt) - 1,
        0x8000 | (1 if fmt.denormals else 1 << p),
        _inf_word(fmt), 0x8000 | _inf_word(fmt), _nan_word(fmt)]


@pytest.mark.parametrize("word", [-1, 1 << 16, 1 << 20])
def test_decode16_rejects_words_outside_16_bits(word):
    with pytest.raises(ValueError):
        decode16(word, HALF)


def test_flush_format_decodes_denormal_words_as_zero():
    # a denormal bit pattern in a flush-to-zero format reads back as a
    # signed zero, so decoded values always satisfy contains()
    word_pos = np.uint16(0x0001)
    word_neg = np.uint16(0x8001)
    assert decode16(word_pos, HALF_N) == 0.0
    v = decode16(word_neg, HALF_N)
    assert v == 0.0 and np.signbit(v)
    for word in (word_pos, word_neg):
        assert HALF_N.contains(decode16(word, HALF_N))


def test_encode16_scalar_examples():
    assert encode16(1.0, HALF) == 0x3C00
    assert encode16(-2.0, HALF) == 0xC000
    assert encode16(2.0**-24, HALF) == 0x0001
    assert encode16(65504.0, HALF) == 0x7BFF
    assert encode16(float("inf"), HALF) == 0x7C00
    assert encode16(float("nan"), HALF) == 0x7E00


@pytest.mark.parametrize("fmt", (HALF, HALF_N, WIDE, BF8), ids=str)
def test_encode16_takes_float32_signaling_nan_silently(fmt):
    # Widening a float32 signaling NaN raises numpy's invalid flag, which
    # the suite turns into an error; every NaN encodes as the canonical word.
    snan = np.array([0x7F800001, 0xFFA00000, 0x7FBFFFFF], dtype=np.uint32).view(np.float32)
    canonical = _nan_word(fmt)
    assert fmt != HALF or canonical == 0x7E00
    assert encode16_array(snan, fmt).tolist() == [canonical] * 3
    assert encode16_array(snan[::2].reshape(2, 1), fmt).tolist() == [[canonical]] * 2
    assert [encode16(v, fmt) for v in snan] == [canonical] * 3


def test_fpvalue_rejects_unrepresentable():
    FpValue(1.5, HALF)
    with pytest.raises(ValueError):
        FpValue(1.0 + 2.0**-11, HALF)
    with pytest.raises(ValueError):
        FpValue(2.0**-24, HALF_N)
