"""Correctness checks on the outputs of one benchmark run.

Every check is a plain function over recorded outputs that returns a list
of failure messages (empty when it holds), so the benchmark's tests can
hand each one a deliberately corrupted output.  References are computed
here, apart from the kernels under test: numpy's float16 cast, a bfloat16
rounding written with integer operations on the float32 bit pattern,
format thresholds derived from the bit widths, and the exact-rational
``fpemu.oracle`` for everything else.
"""

from __future__ import annotations

import math

import numpy as np


def same_bits(a, b) -> np.ndarray:
    """Bitwise float32 equality, all NaNs counted equal."""
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    return (a.view(np.uint32) == b.view(np.uint32)) | (np.isnan(a) & np.isnan(b))


def _first_bad(label: str, ok: np.ndarray, x=None, got=None, want=None) -> list[str]:
    if ok.all():
        return []
    i = int(np.flatnonzero(~ok.ravel())[0])
    detail = ""
    if x is not None:
        detail = f" first at [{i}]: x={float(np.ravel(x)[i])!r}"
        if got is not None:
            detail += f" got={float(np.ravel(got)[i])!r}"
        if want is not None:
            detail += f" want={float(np.ravel(want)[i])!r}"
    return [f"{label}: {int((~ok).sum())} mismatches{detail}"]


# ── format thresholds, from the bit widths alone ───────────────────────


class Thresholds:
    def __init__(self, exp_bits: int, mant_bits: int, denormals: bool) -> None:
        self.p = mant_bits
        self.denormals = denormals
        self.e_min = -(2 ** (exp_bits - 1) - 2)
        self.e_max = 2 ** (exp_bits - 1) - 1
        self.min_normal = 2.0 ** self.e_min
        self.max_finite = (2.0 - 2.0 ** -mant_bits) * 2.0 ** self.e_max
        self.overflow = (2.0 - 2.0 ** -(mant_bits + 1)) * 2.0 ** self.e_max

    @classmethod
    def of(cls, fmt) -> "Thresholds":
        return cls(fmt.exp_bits, fmt.mant_bits, fmt.denormals)


# ── quantization ───────────────────────────────────────────────────────


def f16_reference(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return np.asarray(x, dtype=np.float32).astype(np.float16).astype(np.float32)


def bf16_flush_reference(x: np.ndarray) -> np.ndarray:
    """bfloat16 round-to-nearest-even, then flush denormals to signed zero.

    Integer operations on the float32 bit pattern: add 0x7FFF plus the
    lowest kept bit and clear the low half word.  A carry runs into the
    exponent on its own, and the top binade carries into infinity.
    """
    u = np.asarray(x, dtype=np.float32).view(np.uint32).astype(np.uint64)
    lsb = (u >> np.uint64(16)) & np.uint64(1)
    r = ((u + np.uint64(0x7FFF) + lsb) & np.uint64(0xFFFF0000)).astype(np.uint32)
    exp_zero = (r & np.uint32(0x7F800000)) == 0
    r = np.where(exp_zero, r & np.uint32(0x80000000), r)
    out = r.view(np.float32)
    return np.where(np.isnan(np.asarray(x, dtype=np.float32)), np.float32(np.nan), out)


def check_reference(label: str, x: np.ndarray, y: np.ndarray, ref: np.ndarray) -> list[str]:
    return _first_bad(f"{label} vs reference", same_bits(y, ref), x, y, ref)


def check_oracle_sample(label, x, y, idx, fmt, round_float) -> list[str]:
    want = np.array([round_float(float(x[i]), fmt) for i in idx], dtype=np.float32)
    return _first_bad(f"{label} vs oracle.round_float", same_bits(y[idx], want),
                      x[idx], y[idx], want)


def check_invariants(label, x, y, y_of_y, y_of_neg, th: Thresholds) -> list[str]:
    """Idempotence, sign symmetry and the half-quantum bound, every element."""
    errs = _first_bad(f"{label} idempotence", same_bits(y_of_y, y), x, y_of_y, y)
    keep = ~np.isnan(x)
    errs += _first_bad(f"{label} sign symmetry", same_bits(y_of_neg[keep], -y[keep]),
                       x[keep], y_of_neg[keep], -y[keep])
    with np.errstate(invalid="ignore"):      # widening quiets signalling NaNs
        x64 = np.asarray(x, dtype=np.float64)
        y64 = np.asarray(y, dtype=np.float64)
        mag = np.abs(x64)
        finite = np.isfinite(x64)
        big = finite & (mag >= th.overflow)
        errs += _first_bad(f"{label} overflow to inf", np.isinf(y64[big]), x64[big], y64[big])
        inside = finite & (mag > 0) & (mag < th.overflow)
        xs, ys = x64[inside], y64[inside]
        _, e = np.frexp(np.abs(xs))
        q = np.exp2((np.maximum(e - 1, th.e_min) - th.p).astype(np.float64))
        flushed = (ys == 0.0) & (not th.denormals)
        if not th.denormals:
            # a flush-to-zero format may zero anything that rounds below min_normal
            errs += _first_bad(f"{label} flush only below min_normal",
                               np.abs(xs[flushed]) < th.min_normal, xs[flushed], ys[flushed])
        ok = flushed | (np.abs(ys - xs) <= q / 2.0)
    errs += _first_bad(f"{label} half-quantum bound", ok, xs, ys)
    return errs


def class_counts(y: np.ndarray, th: Thresholds) -> tuple[int, int, int, int, int]:
    """(zero, denormal, normal, inf, nan) counts of rounded values."""
    a = np.abs(np.asarray(y, dtype=np.float64))
    nan = np.isnan(a)
    inf = np.isinf(a)
    zero = a == 0.0
    den = (a > 0.0) & (a < th.min_normal)
    n = a.size
    return (int(zero.sum()), int(den.sum()), n - int(zero.sum() + den.sum() + inf.sum() + nan.sum()),
            int(inf.sum()), int(nan.sum()))


def check_counts(label: str, recorded: tuple, want: tuple) -> list[str]:
    if tuple(recorded) == tuple(want):
        return []
    return [f"{label} class counts (zero, denormal, normal, inf, nan): "
            f"recorded {tuple(recorded)} != computed {tuple(want)}"]


# ── scalar paths: fmac8_dot and the four instructions ──────────────────


def check_scalar_results(label: str, got, want) -> list[str]:
    got = np.asarray(got, dtype=np.float32)
    want = np.asarray(want, dtype=np.float32)
    if got.shape != want.shape:
        return [f"{label}: {got.shape[0]} results for {want.shape[0]} expected"]
    return _first_bad(label, same_bits(got, want), np.arange(got.size), got, want)


def check_oracle_independent(dyadic_calls: int, oracle_globals: dict) -> list[str]:
    errs = []
    if dyadic_calls:
        errs.append(f"the oracles made {dyadic_calls} calls into fpemu._dyadic")
    if any(getattr(v, "__name__", "") == "fpemu._dyadic" for v in oracle_globals.values()):
        errs.append("fpemu.oracle imports fpemu._dyadic")
    return errs


# ── training ───────────────────────────────────────────────────────────


def check_converged(runs: dict) -> list[str]:
    return [f"{label}: outcome {r['summary'].get('outcome')!r}, final loss "
            f"{r['summary'].get('final_loss')!r}"
            for label, r in runs.items() if r["summary"].get("outcome") != "converged"]


def check_close_to_baseline(runs: dict, pairs, tol: float = 0.05) -> list[str]:
    errs = []
    for base, quant in pairs:
        b = runs[base]["summary"]["final_loss"]
        q = runs[quant]["summary"]["final_loss"]
        rel = abs(q - b) / abs(b) if b else math.inf
        if not rel <= tol:
            errs.append(f"{quant}: final loss {q!r} is {rel:.2%} from {base} ({b!r}), "
                        f"over {tol:.0%}")
    return errs


def check_identical(runs: dict, pairs) -> list[str]:
    errs = []
    for a, b in pairs:
        ra, rb = runs[a], runs[b]
        if ra["losses"] != rb["losses"]:
            errs.append(f"{a} and {b}: loss columns differ")
        pa, pb = ra.get("params"), rb.get("params")
        if pa is None or pb is None:
            errs.append(f"{a} and {b}: master weights were not captured")
        elif len(pa) != len(pb) or not all(
                x.shape == y.shape and bool(same_bits(x, y).all()) for x, y in zip(pa, pb)):
            errs.append(f"{a} and {b}: master weights differ")
    return errs


def check_denormal_order(runs: dict, triples) -> list[str]:
    """(narrow, narrow+DLS, wide): wide <= narrow and narrow+DLS <= narrow."""
    errs = []
    for narrow, narrow_dls, wide in triples:
        g = {k: runs[k]["summary"]["global_max_denormal_fraction"]
             for k in (narrow, narrow_dls, wide)}
        if not g[wide] <= g[narrow]:
            errs.append(f"{wide} max denormal fraction {g[wide]!r} exceeds {narrow} {g[narrow]!r}")
        if not g[narrow_dls] <= g[narrow]:
            errs.append(f"{narrow_dls} max denormal fraction {g[narrow_dls]!r} exceeds "
                        f"{narrow} {g[narrow]!r}")
    return errs


def check_no_denormals(runs: dict) -> list[str]:
    errs = []
    for label, r in runs.items():
        if not r["summary"]["format"].endswith("/n"):
            continue
        n = sum(row["n_denormal"] for row in r["telemetry"])
        if n or r["summary"]["global_max_denormal_fraction"] != 0.0:
            errs.append(f"{label}: a flush-to-zero format recorded {n} denormals")
    return errs


def check_telemetry(runs: dict, sizes: dict, steps: dict) -> list[str]:
    """Per record: counts sum to the tensor size; every step has every tensor;
    the summary's global max equals the maximum recomputed from the rows."""
    errs = []
    for label, r in runs.items():
        want = sizes[label]
        seen: dict[int, set] = {}
        gmax = 0.0
        for row in r["telemetry"]:
            total = sum(row[k] for k in ("n_zero", "n_denormal", "n_normal", "n_inf", "n_nan"))
            if want.get(row["tensor_id"]) != total:
                errs.append(f"{label}: {row['tensor_id']} step {row['step']} counts sum to "
                            f"{total}, tensor size is {want.get(row['tensor_id'])}")
                break
            seen.setdefault(row["step"], set()).add(row["tensor_id"])
            gmax = max(gmax, row["n_denormal"] / total)
        if sorted(seen) != list(range(steps[label])) or any(s != set(want) for s in seen.values()):
            errs.append(f"{label}: telemetry does not hold every tensor at every step")
        if r["summary"]["global_max_denormal_fraction"] != gmax:
            errs.append(f"{label}: summary max denormal fraction disagrees with telemetry")
    return errs


def check_report(code: int, text: str, run_ids) -> list[str]:
    errs = [] if code == 0 else [f"fpemu report exited {code}"]
    listed = {line.split()[0] for line in text.splitlines() if line.strip()}
    missing = sorted(set(run_ids) - listed)
    if missing:
        errs.append(f"fpemu report does not list {missing}")
    return errs


def check_matmul_samples(samples) -> list[str]:
    """``samples``: (label, got, want) per sampled output element."""
    bad = [(label, g, w) for label, g, w in samples if not bool(same_bits(g, w))]
    if not bad:
        return []
    label, g, w = bad[0]
    return [f"matmul vs oracle chain: {len(bad)} of {len(samples)} sampled outputs differ; "
            f"first {label}: got {g!r} want {w!r}"]


def check_repeats(label: str, first, later: list) -> list[str]:
    n = sum(1 for d in later if d != first)
    return [f"{label}: {n} later round(s) produced different outputs"] if n else []
