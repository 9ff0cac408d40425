"""End-to-end acceptance checks.

Each test verifies one headline claim about the package, prints a single
``[PASS]``/``[FAIL]`` line with the observed numbers, and asserts the same
condition.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines
on success; a plain pytest run still enforces everything.

The suite leans on two independent reference paths: the big-integer dyadic
arithmetic in ``fpemu._dyadic`` and the exact-rational arithmetic in
``fpemu.oracle``.  Neither shares code with the vectorized kernels under
test.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np
import pytest

from fpemu._dyadic import round_mk, to_mk
from fpemu.cli import main as cli_main
from fpemu.formats import BINARY32, FpFormat, decode16_array
from fpemu.instructions import (
    _TENSOR_DOT_MIN_CHUNKS,
    _TENSOR_DOT_MIN_K,
    AccumMode,
    _fmac8_dot_exact,
    _reduce,
    _reduce_rows,
    fmac,
    fmac8_dot,
    fmacs,
    macs,
)
from fpemu.oracle import (
    dot_oracle,
    fmac_oracle,
    fmacs_oracle,
    round_float,
)
from fpemu.rounding import roundfp_array
from fpemu.training import gradient_check, resolve_config, train

FORMAT_SPECS = ("1/5/10/d", "1/5/10/n", "1/6/9/d", "1/6/9/n", "1/8/7/n")
FORMATS = [FpFormat.parse(s) for s in FORMAT_SPECS]
HALF = FORMATS[0]
TASKS = ("regression", "mlp_classify", "cnn_classify")


def _report(ok: bool, line: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {line}", flush=True)
    assert ok, line


def _bits_match(a, b) -> np.ndarray:
    """Bitwise float32 equality with all NaNs identified with each other."""
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    return (a.view(np.uint32) == b.view(np.uint32)) | (np.isnan(a) & np.isnan(b))


def _dy_round(x: float, fmt: FpFormat) -> float:
    """Scalar big-integer reference for rounding a finite value; a zero
    keeps its sign."""
    return round_mk(*to_mk(x), fmt) if x else x


def _f16_ref(x: np.ndarray) -> np.ndarray:
    """Reference binary16 rounding: numpy's native conversion."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return np.asarray(x).astype(np.float16).astype(np.float32)


def _grid64(fmt: FpFormat) -> np.ndarray:
    """All finite values of the gradual-underflow grid of ``fmt``, sorted,
    as exact float64 (uses the denormal twin so /n formats still exercise
    the pre-flush grid)."""
    twin = FpFormat.parse(str(fmt)[:-1] + "d")
    grid = decode16_array(np.arange(65536, dtype=np.uint16), twin)
    return np.unique(grid[np.isfinite(grid)]).astype(np.float64)


# ---------------------------------------------------------------------------
# cached training runs (several criteria share them)

_RUNS: dict[str, object] = {}


def _run(task: str, **overrides: str):
    cfg = resolve_config({"task": task, **overrides})
    key = cfg.to_text()
    if key not in _RUNS:
        _RUNS[key] = train(cfg)
    return _RUNS[key]


_DLS = {"dls": "on", "growth_interval": "200"}


# ---------------------------------------------------------------------------
# 1. format constants


def test_c01_format_constants():
    expected = {
        "1/5/10/d": ("-14", "15", "0x1.0000000000000p-24"),
        "1/6/9/d": ("-30", "31", "0x1.0000000000000p-39"),
        "1/8/7/n": ("-126", "127", None),
    }
    checked = 0
    for spec, (e_min, e_max, min_den) in expected.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(["format-info", spec])
        assert rc == 0
        fields = {}
        for line in buf.getvalue().splitlines():
            parts = line.split(None, 1)
            if len(parts) == 2:
                fields[parts[0]] = parts[1].strip()
        assert fields["e_min"] == e_min, (spec, fields["e_min"])
        assert fields["e_max"] == e_max, (spec, fields["e_max"])
        if min_den is None:
            assert fields["min_denormal"] == "none", (spec, fields)
        else:
            assert min_den in fields["min_denormal"], (spec, fields)
        checked += 1
    _report(checked == 3,
            f"1. format constants: {checked}/3 formats match the published "
            "E_min/E_max/min-denormal table exactly (tolerance: exact)")


# ---------------------------------------------------------------------------
# 2. binary16 parity


def test_c02_binary16_parity():
    t0 = time.monotonic()
    mismatches = 0

    # (a) every 16-bit encoding decodes to a fixed point of roundfp and
    # agrees with the native binary16 interpretation
    grid = decode16_array(np.arange(65536, dtype=np.uint16), HALF)
    got = roundfp_array(grid, HALF)
    mismatches += int((~_bits_match(got, grid)).sum())
    mismatches += int((~_bits_match(got, _f16_ref(grid))).sum())
    n_grid = grid.size

    # (b) random binary32 bit patterns
    rng = np.random.default_rng(20260816)
    n_random = 10_000_000
    for _ in range(10):
        x = rng.integers(0, 1 << 32, 1_000_000, dtype=np.uint64)
        x = x.astype(np.uint32).view(np.float32)
        mismatches += int((~_bits_match(roundfp_array(x, HALF), _f16_ref(x))).sum())

    # (c) every midpoint between neighbouring representables, and the
    # closest float64 on either side of each midpoint and representable
    g64 = _grid64(HALF)
    mids = (g64[:-1] + g64[1:]) / 2.0
    edge = HALF.overflow_threshold
    tiny = HALF.min_denormal / 2.0
    boundary = np.concatenate([
        mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
        np.nextafter(g64, -np.inf), np.nextafter(g64, np.inf),
        np.array([edge, -edge, tiny, -tiny]),
        np.nextafter(np.array([edge, -edge, tiny, -tiny]), 0.0),
        np.nextafter(np.array([edge, -edge, tiny, -tiny]), np.inf),
    ])
    mismatches += int(
        (~_bits_match(roundfp_array(boundary, HALF), _f16_ref(boundary))).sum())

    dt = time.monotonic() - t0
    _report(mismatches == 0 and dt < 120.0,
            f"2. binary16 parity: {n_grid} grid words + {n_random} random "
            f"binary32 + {boundary.size} boundary values, {mismatches} "
            f"mismatches in {dt:.1f}s (tolerance: zero, under 120s)")


@pytest.mark.skipif(not os.environ.get("FPEMU_EXHAUSTIVE"),
                    reason="set FPEMU_EXHAUSTIVE=1 for the full 2^32 sweep")
def test_c02_binary16_parity_exhaustive():
    mismatches = 0
    for hi in range(256):
        base = np.uint64(hi) << np.uint64(24)
        x = (base + np.arange(1 << 24, dtype=np.uint64)).astype(np.uint32)
        x = x.view(np.float32)
        mismatches += int((~_bits_match(roundfp_array(x, HALF), _f16_ref(x))).sum())
    _report(mismatches == 0,
            f"2x. binary16 parity, exhaustive 2^32 sweep: {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 3. rounding vs exact-rational / big-integer oracle


def _c03_corpus(fmt: FpFormat, rng: np.random.Generator) -> np.ndarray:
    g64 = _grid64(fmt)
    mids = (g64[:-1] + g64[1:]) / 2.0
    structured = [
        g64, mids,
        np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
        np.nextafter(g64, -np.inf), np.nextafter(g64, np.inf),
    ]
    # binade edges with quarter-quantum offsets on both sides
    p = fmt.mant_bits
    for k in range(fmt.e_min - p, fmt.e_max + 1):
        base = 2.0 ** k
        q_hi = 2.0 ** (max(k, fmt.e_min) - p)
        q_lo = 2.0 ** (max(k - 1, fmt.e_min) - p)
        offs = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
        vals = np.concatenate([base + offs * q_hi, base - offs * q_lo, [base]])
        structured.append(vals)
        structured.append(-vals)

    bits = rng.integers(0, 1 << 32, 300_000, dtype=np.uint64)
    with np.errstate(invalid="ignore"):
        f32 = bits.astype(np.uint32).view(np.float32).astype(np.float64)
    exps = rng.integers(fmt.e_min - p - 4, fmt.e_max + 3, 300_000)
    signs = rng.choice([-1.0, 1.0], 300_000)
    scaled = signs * (1.0 + rng.random(300_000)) * 2.0 ** exps.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled32 = scaled[:200_000].astype(np.float32).astype(np.float64)

    corpus = np.concatenate(structured + [f32, scaled, scaled32])
    return corpus[np.isfinite(corpus)]


def test_c03_rounding_oracle_agreement():
    t0 = time.monotonic()
    counts = []
    mismatches = 0
    xchecked = 0
    for i, fmt in enumerate(FORMATS):
        rng = np.random.default_rng(777 + i)
        corpus = _c03_corpus(fmt, rng)
        assert corpus.size >= 1_000_000, corpus.size
        got = roundfp_array(corpus, fmt)
        want = np.array([_dy_round(v, fmt) for v in corpus.tolist()],
                        dtype=np.float32)
        mismatches += int((~_bits_match(got, want)).sum())
        # exact-rational crosscheck of a slice of the same corpus
        sub = rng.choice(corpus.size, 50_000, replace=False)
        frac = np.array([round_float(float(corpus[j]), fmt) for j in sub],
                        dtype=np.float32)
        mismatches += int((~_bits_match(got[sub], frac)).sum())
        xchecked += sub.size
        counts.append(corpus.size)

        specials = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0])
        s = roundfp_array(specials, fmt)
        assert s[0] == np.inf and s[1] == -np.inf and np.isnan(s[2])
        assert s[3] == 0.0 and not np.signbit(s[3])
        assert s[4] == 0.0 and np.signbit(s[4])

    dt = time.monotonic() - t0
    _report(mismatches == 0,
            f"3. rounding oracle agreement: {min(counts)}..{max(counts)} "
            f"values per format x {len(FORMATS)} formats vs big-integer "
            f"oracle, {xchecked} also vs exact-rational oracle, "
            f"{mismatches} mismatches in {dt:.1f}s (tolerance: zero)")


# ---------------------------------------------------------------------------
# 4. chunked dot product vs step-by-step oracle


def _normal_vector(rng, n, lo, hi):
    """float32 standard normals scaled by random powers of two in [lo, hi)."""
    e = rng.integers(lo, hi, n).astype(np.float64)
    return (rng.standard_normal(n) * 2.0 ** e).astype(np.float32)


def _c04_pairs(fmt: FpFormat, rng: np.random.Generator) -> list:
    """(w, x, chunk) test vectors: mostly short random pairs, plus
    engineered denormal partial sums and intermediate overflow.  All
    vectors are drawn first and then rounded into ``fmt`` in one call."""
    p = fmt.mant_bits
    mid = fmt.e_min // 2
    pairs = []
    n_random = 97_000
    kinds = rng.choice(5, n_random, p=[0.80, 0.12, 0.05, 0.025, 0.005])
    bounds = [(0, 9), (9, 33), (33, 97), (97, 385), (385, 1025)]
    lengths = np.empty(n_random, dtype=np.int64)
    for k, (lo, hi) in enumerate(bounds):
        m = kinds == k
        lengths[m] = rng.integers(lo, hi, int(m.sum()))
    lengths[0] = 0
    lengths[1] = 1024
    for n in lengths:
        n = int(n)
        w = _normal_vector(rng, n, fmt.e_min - 2, fmt.e_max // 2)
        x = _normal_vector(rng, n, fmt.e_min - 2, fmt.e_max // 2)
        pairs.append((w, x, 8))

    # products land in the denormal band, partial sums cancel around it
    for _ in range(1500):
        n = int(rng.integers(4, 33))
        w = _normal_vector(rng, n, mid - p // 2 - 2, mid + 2)
        x = _normal_vector(rng, n, mid - p // 2 - 2, mid + 2)
        pairs.append((w, x, 8))

    # run the 16-bit accumulator over the overflow threshold mid-chunk;
    # alternating signs make opposing infinities meet in the wide master
    # (the planted values are format values, which rounding keeps)
    big = np.float32(fmt.max_finite)
    one = np.float32(1.0)
    for i in range(1500):
        n = int(rng.integers(6, 25))
        w = _normal_vector(rng, n, fmt.e_max // 2, fmt.e_max - 1)
        x = _normal_vector(rng, n, 0, fmt.e_max // 2)
        k = int(rng.integers(0, n - 4))
        w[k:k + 4] = [big, big, -big, -big][: n - k][:4]
        x[k:k + 4] = one
        pairs.append((w, x, int(rng.choice([1, 8]))))
    pairs.append((np.array([big, big, -big, -big]), np.array([one] * 4), 2))

    vectors = [v for w, x, _ in pairs for v in (w, x)]
    ends = np.cumsum([v.size for v in vectors])[:-1]
    rounded = np.split(roundfp_array(np.concatenate(vectors), fmt), ends)
    return [(rounded[2 * j], rounded[2 * j + 1], chunk) for j, (_, _, chunk) in enumerate(pairs)]


# A batch of c04 pairs holds at most this many padded products.
_C04_BATCH_PRODUCTS = 1 << 16


def _fmac8_kernel_dots(pairs, fmt: FpFormat) -> np.ndarray:
    """Each (w, x, chunk) pair's chunked dot product through the FMAC8 array
    reduction, rounded into ``fmt`` as :func:`matmul` rounds its output.

    Pairs of one chunk and one length residue mod chunk run as the lanes
    of one reduction, shortest first, with at most _C04_BATCH_PRODUCTS
    products per batch.  A shorter pair is padded on the left with +0
    products, by a multiple of chunk steps: that leaves the accumulator
    and the master at +0 when the pair's first step comes.  Padding on
    the right would not be neutral, since +0 added to a -0 accumulator
    gives +0.
    """
    got = np.empty(len(pairs), dtype=np.float32)
    groups: dict[tuple[int, int], list[int]] = {}
    for j, (w, _, chunk) in enumerate(pairs):
        groups.setdefault((chunk, len(w) % chunk), []).append(j)

    def run(batch, chunk):
        steps = len(pairs[batch[-1]][0])
        prods = np.zeros((steps, len(batch)))
        for lane, j in enumerate(batch):
            w, x, _ = pairs[j]
            prods[steps - len(w):, lane] = np.asarray(w, np.float64) * np.asarray(x, np.float64)
        master = _reduce(iter([prods]), (len(batch),), fmt, AccumMode.FMAC8, chunk)
        got[batch] = roundfp_array(master, fmt)

    for (chunk, _), members in groups.items():
        members.sort(key=lambda j: len(pairs[j][0]))
        batch: list[int] = []
        for j in members:
            if batch and (len(batch) + 1) * len(pairs[j][0]) > _C04_BATCH_PRODUCTS:
                run(batch, chunk)
                batch = []
            batch.append(j)
        run(batch, chunk)
    return got


def test_c04_dot_product_oracle_agreement():
    t0 = time.monotonic()
    mismatches = 0
    per_format = []
    lens = []
    xchecked = 0
    tensor_pairs = 0
    for i, fmt in enumerate(FORMATS):
        rng = np.random.default_rng(4040 + i)
        pairs = _c04_pairs(fmt, rng)
        got = _fmac8_kernel_dots(pairs, fmt)
        for count, (w, x, chunk) in enumerate(pairs, 1):
            want = _fmac8_dot_exact(w, x, fmt, chunk=chunk)
            if not bool(_bits_match(got[count - 1], want)):
                mismatches += 1
            # fmac8_dot itself, where it takes the tensor reduction
            if len(w) >= _TENSOR_DOT_MIN_K and len(w) // _TENSOR_DOT_MIN_CHUNKS >= chunk:
                if not bool(_bits_match(fmac8_dot(w, x, fmt, chunk=chunk), want)):
                    mismatches += 1
                tensor_pairs += 1
            lens.append(len(w))
            # exact-rational crosscheck on a thin slice
            if count % 400 == 0:
                frac = dot_oracle([float(v) for v in w], [float(v) for v in x],
                                  fmt, chunk=chunk)
                if not bool(_bits_match(want, frac)):
                    mismatches += 1
                xchecked += 1
        per_format.append(len(pairs))
    dt = time.monotonic() - t0
    _report(mismatches == 0 and min(per_format) >= 100_000
            and min(lens) == 0 and max(lens) == 1024 and tensor_pairs > 0,
            f"4. chunked dot oracle agreement: {min(per_format)} vector pairs "
            f"per format x {len(FORMATS)} formats, n in [{min(lens)}, "
            f"{max(lens)}], incl. denormal partial sums and mid-chunk "
            f"overflow, FMAC8 array reduction vs fmac8_dot's big-integer loop, "
            f"{tensor_pairs} pairs on fmac8_dot's tensor path vs that loop, "
            f"{xchecked} pairs also vs exact-rational oracle, "
            f"{mismatches} mismatches in {dt:.1f}s (tolerance: zero)")


# ---------------------------------------------------------------------------
# 5. fused accumulate instructions vs big-integer oracle


def test_c05_instruction_oracle_agreement():
    t0 = time.monotonic()
    n = 100_000
    mismatches = 0
    exact_checked = []
    for i, fmt in enumerate(FORMATS):
        rng = np.random.default_rng(5050 + i)
        xs = decode16_array(rng.integers(0, 65536, n).astype(np.uint16), fmt)
        ys = decode16_array(rng.integers(0, 65536, n).astype(np.uint16), fmt)
        accs = decode16_array(rng.integers(0, 65536, n).astype(np.uint16), fmt)
        a32 = rng.integers(0, 1 << 32, n, dtype=np.uint64)
        a32 = a32.astype(np.uint32).view(np.float32)

        # the production block reductions, one step per triple; the
        # accumulators are row 0
        with np.errstate(invalid="ignore", over="ignore"):
            prods = xs.astype(np.float64) * ys.astype(np.float64)
            rows_f = np.stack([accs.astype(np.float64), np.empty(n)])
            _reduce_rows(rows_f, prods[None], fmt)
            rows = np.stack([a32, np.empty(n, dtype=np.float32)])
            _reduce_rows(rows, prods[None], BINARY32)
        got_f = rows_f[1]
        got_fs = rows[1]

        want_f = np.empty(n, dtype=np.float32)
        want_fs = np.empty(n, dtype=np.float32)
        for j in range(n):
            a, x, y, aw = float(accs[j]), float(xs[j]), float(ys[j]), float(a32[j])
            want_f[j] = fmac(a, x, y, fmt)
            want_fs[j] = fmacs(aw, x, y, fmt)
        mismatches += int((~_bits_match(got_f, want_f)).sum())
        mismatches += int((~_bits_match(got_fs, want_fs)).sum())

        # exact-rational crosscheck on a slice
        for j in range(0, n, 20):
            a, x, y, aw = float(accs[j]), float(xs[j]), float(ys[j]), float(a32[j])
            if not bool(_bits_match(want_f[j], fmac_oracle(a, x, y, fmt))):
                mismatches += 1
            if not bool(_bits_match(want_fs[j], fmacs_oracle(aw, x, y, fmt))):
                mismatches += 1

        # macs == fmacs wherever the product rounding is exact; random
        # operands rarely have exact products, so extend the corpus with
        # short-significand operands whose products always fit
        p = fmt.mant_bits
        low_mask = np.uint16((1 << (p - p // 2 + 1)) - 1)
        xw = rng.integers(0, 65536, 40_000).astype(np.uint16) & ~low_mask
        yw = rng.integers(0, 65536, 40_000).astype(np.uint16) & ~low_mask
        xs_m = np.concatenate([xs, decode16_array(xw, fmt)])
        ys_m = np.concatenate([ys, decode16_array(yw, fmt)])
        a32_m = np.concatenate([a32, a32[:40_000]])
        with np.errstate(invalid="ignore"):
            p64 = xs_m.astype(np.float64) * ys_m.astype(np.float64)
        q = roundfp_array(p64, fmt).astype(np.float64)
        exact = np.isfinite(p64) & (q == p64)
        idx = np.flatnonzero(exact)
        for j in idx:
            aw, x, y = float(a32_m[j]), float(xs_m[j]), float(ys_m[j])
            if not bool(_bits_match(macs(aw, x, y, fmt), fmacs(aw, x, y, fmt))):
                mismatches += 1
        exact_checked.append(idx.size)

    # binary32 operands, as in format=none runs, whose default mode is
    # FMACS.  16-bit products span too few bits to make an inexact
    # binary64 sum land on a binary32 tie; these triples do it on purpose:
    # x*y = +-2^(E-24) (1 - 2^-2m) is just off half an ulp of
    # a32 = (1+f) 2^E, so the binary64 add is inexact and may round onto
    # the tie, which only _reduce_rows's round-to-odd fix-up gets right.
    rng = np.random.default_rng(5059)
    n32 = 20_000
    e = rng.integers(-80, 81, n32)
    m = rng.integers(15, 24, n32)
    i = (e - 24) // 2 + rng.integers(-20, 21, n32)
    f = rng.integers(0, 1 << 23, n32) / 2.0**23
    a32 = (rng.choice([-1.0, 1.0], n32) * (1.0 + f) * 2.0**e).astype(np.float32)
    xs = 2.0**i * (1.0 + 2.0**-m)
    ys = rng.choice([-1.0, 1.0], n32) * 2.0 ** (e - 24 - i) * (1.0 - 2.0**-m)
    rows = np.stack([a32, np.empty(n32, dtype=np.float32)])
    _reduce_rows(rows, (xs * ys)[None], BINARY32)
    want32 = np.array([fmacs(float(aw), x, y, BINARY32)
                       for aw, x, y in zip(a32, xs.tolist(), ys.tolist())], dtype=np.float32)
    mismatches += int((~_bits_match(rows[1], want32)).sum())
    for j in range(0, n32, 20):
        got = fmacs_oracle(float(a32[j]), float(xs[j]), float(ys[j]), BINARY32)
        if not bool(_bits_match(want32[j], got)):
            mismatches += 1
    # lanes where a plain binary64 add cast to float32 is wrong
    fixed = int((~_bits_match((a32 + xs * ys).astype(np.float32), want32)).sum())

    dt = time.monotonic() - t0
    _report(mismatches == 0 and min(exact_checked) >= 10_000 and fixed >= 1_000,
            f"5. instruction oracle agreement: {n} triples per format x "
            f"{len(FORMATS)} formats for fmac and fmacs, array block reductions "
            f"vs big-integer instructions, plus macs==fmacs on "
            f"{min(exact_checked)}..{max(exact_checked)} exact-product "
            f"triples, plus {n32} binary32 fmacs triples near binary32 ties "
            f"({fixed} need the round-to-odd fix-up), {mismatches} mismatches "
            f"in {dt:.1f}s (tolerance: zero)")


# ---------------------------------------------------------------------------
# 6. rounding invariants


def _c06_corpus(fmt: FpFormat, rng: np.random.Generator) -> np.ndarray:
    bits = rng.integers(0, 1 << 32, 60_000, dtype=np.uint64)
    with np.errstate(invalid="ignore"):
        f32 = bits.astype(np.uint32).view(np.float32).astype(np.float64)
    p = fmt.mant_bits
    exps = rng.integers(fmt.e_min - p - 3, fmt.e_max + 2, 40_000)
    signs = rng.choice([-1.0, 1.0], 40_000)
    scaled = signs * (1.0 + rng.random(40_000)) * 2.0 ** exps.astype(np.float64)
    return np.concatenate([f32, scaled])


def test_c06_rounding_invariants():
    t0 = time.monotonic()
    n_cases = {"idempotence": 0, "monotonicity": 0,
               "sign symmetry": 0, "faithfulness": 0}
    violations = 0
    for i, fmt in enumerate(FORMATS):
        corpus = _c06_corpus(fmt, np.random.default_rng(606 + i))
        y = roundfp_array(corpus, fmt)
        violations += int((~_bits_match(roundfp_array(y, fmt), y)).sum())
        n_cases["idempotence"] += corpus.size

        finite = corpus[np.isfinite(corpus)]
        xs = np.sort(finite)
        ys = roundfp_array(xs, fmt).astype(np.float64)
        with np.errstate(invalid="ignore"):  # inf-minus-inf plateaus
            violations += int((np.diff(ys) < 0).sum())
        n_cases["monotonicity"] += xs.size

        keep = ~np.isnan(corpus)
        neg = roundfp_array(-corpus[keep], fmt)
        pos = roundfp_array(corpus[keep], fmt)
        violations += int((~_bits_match(neg, -pos)).sum())
        n_cases["sign symmetry"] += int(keep.sum())

        x = finite[np.abs(finite) < fmt.overflow_threshold]
        x = x[x != 0.0]
        y6 = roundfp_array(x, fmt).astype(np.float64)
        _, e = np.frexp(np.abs(x))
        q = 2.0 ** (np.maximum(e - 1, fmt.e_min) - fmt.mant_bits)
        # a nonzero value may round to zero: under RNE that only happens
        # within half a quantum of zero, so the standard bound covers it;
        # a flush-to-zero format instead zeroes anything whose rounded
        # magnitude lands below min_normal, so bound the input directly
        if fmt.denormals:
            ok = np.ones(x.size, dtype=bool)
        else:
            flushed = (y6 == 0.0) & (x != 0.0)
            violations += int((np.abs(x[flushed]) >= fmt.min_normal).sum())
            ok = ~flushed
        violations += int((np.abs(y6[ok] - x[ok]) > q[ok] / 2.0).sum())
        n_cases["faithfulness"] += x.size

    dt = time.monotonic() - t0
    detail = ", ".join(f"{k}: {v}" for k, v in n_cases.items())
    _report(violations == 0,
            f"6. rounding invariants ({detail}) across {len(FORMATS)} "
            f"formats, {violations} violations in {dt:.1f}s (tolerance: zero)")


# ---------------------------------------------------------------------------
# 7. denormal telemetry direction


def test_c07_denormal_direction():
    rows = []
    ok = True
    for task in TASKS:
        narrow = _run(task, format="1/5/10/d").summary.global_max
        narrow_dls = _run(task, format="1/5/10/d", **_DLS).summary.global_max
        wide = _run(task, format="1/6/9/d").summary.global_max
        ok &= wide <= narrow
        ok &= narrow_dls <= narrow
        if task == "regression":
            ok &= narrow_dls < narrow
        rows.append(f"{task}: 1/5/10/d={narrow:.4f} +dls={narrow_dls:.4f} "
                    f"1/6/9/d={wide:.4f}")
    _report(ok,
            "7. denormal direction: wider-exponent format never exceeds, and "
            "loss scaling never raises (strictly lowers on regression), the "
            f"global max denormal fraction [{'; '.join(rows)}]")


# ---------------------------------------------------------------------------
# 8. convergence direction


def test_c08_convergence():
    t0 = time.monotonic()
    rows = []
    ok = True
    for task in TASKS:
        base = _run(task, format="none")
        quant = _run(task, format="1/6/9/n", **_DLS)
        ident = _run(task, format="1/8/23/d")
        rel = abs(quant.final_loss - base.final_loss) / abs(base.final_loss)
        same = (ident.losses == base.losses and all(
            np.array_equal(a, b) for a, b in
            zip(ident.model.params(), base.model.params())))
        ok &= rel <= 0.05 and same and base.outcome == "converged"
        rows.append(f"{task}: 1/6/9/n+dls rel={rel:.4%} identity={same}")
    fail_row = _run("regression", format="1/5/10/n")
    rows.append(f"recorded, not asserted: regression 1/5/10/n no-dls -> "
                f"{fail_row.outcome} (final {fail_row.final_loss:.3e})")
    dt = time.monotonic() - t0
    _report(ok and dt < 600.0,
            "8. convergence: 1/6/9/n+DLS within 5% of binary32 baseline and "
            "1/8/23 run bit-identical on all tasks "
            f"[{'; '.join(rows)}] in {dt:.0f}s (tolerance: 5% rel, under 600s)")


# ---------------------------------------------------------------------------
# 9. determinism


def test_c09_determinism(tmp_path):
    cfg_entries = {"task": "mlp_classify", "format": "1/5/10/d",
                   "steps": "120", **_DLS}
    train(resolve_config(cfg_entries), out_dir=tmp_path / "a")
    train(resolve_config(cfg_entries), out_dir=tmp_path / "b")
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("loss.csv", "telemetry.csv", "config.txt", "summary.json"))
    _report(same,
            "9. determinism: two runs of the same config produced "
            "byte-identical loss and telemetry CSVs (tolerance: exact)")


# ---------------------------------------------------------------------------
# 10. gradient sanity


def test_c10_gradient_check():
    worsts = {}
    for task in TASKS:
        cfg = resolve_config({"task": task, "format": "none"})
        worsts[task] = gradient_check(cfg, n_directions=100)
    ok = all(v <= 1e-4 for v in worsts.values())
    detail = ", ".join(f"{k}: {v:.3e}" for k, v in worsts.items())
    _report(ok,
            f"10. gradient sanity: central finite differences over 100 "
            f"directions per task, worst relative error [{detail}] "
            "(tolerance: 1e-4)")
