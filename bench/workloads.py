"""The benchmark's four workloads: inputs from a seed, timed rounds, checks.

A workload is one main *section*, the work it exists to measure, which a
traced run traces, plus *probe* sections: small fixed passes of the other
kinds of work, so that every end-to-end metric is measured on every
workload, run with tracing off.  One round is one pass of the main
section with ``reps`` passes of every probe interleaved: before the first
and after each training run (and, for cnn, every 10 steps inside them,
their time taken out of the training time), or after the whole pass for
the other sections.  Spreading
the probes over the round lets their medians see the same machine as the
main work.  A run repeats whole rounds until its time is up, so every run
attempts the same operations in the same proportions.

Each section records, per pass, the work done and the seconds it took
(``samples``), its outputs in the first round (checked after the timed
loop), and a digest of its outputs in every round (later rounds must
repeat the first bit for bit).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

import checks
# Program functions are called through their modules, so that a traced
# run's wrappers (installed on the modules) see the calls.
from fpemu import _dyadic, cli, instructions, oracle, rounding, tasks, telemetry, training
from fpemu.formats import FpFormat
from fpemu.instructions import AccumMode

_now = time.perf_counter

DLS = {"dls": "on", "growth_interval": "200"}   # the acceptance suite's loss scaling

# Step counts: every training check holds at these on every seed tried,
# with margin (see README), and a round still fits the run length.
CNN_STEPS = 40
REGRESSION_STEPS = 150
MLP_STEPS = 90
PROBE_STEPS = 10


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


class Section:
    kind = ""        # which end-to-end rate the section's samples feed

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (work, seconds) per pass
        self.attempted = 0
        self.failed = 0
        self.fail_messages: list[str] = []
        self.first = None       # outputs of the first pass, for the checks
        self.digests: list[str] = []

    def _op(self, fn, *args, **kwargs):
        """Run one operation; an exception counts it failed and yields None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.failed += 1
            if len(self.fail_messages) < 5:
                self.fail_messages.append(f"{type(exc).__name__}: {exc}")
            return None

    def run_pass(self, workdir: Path, between=None) -> None:
        """One pass; ``between()`` runs the probes (after each training run)."""
        outputs, digest = self._pass(workdir, between or (lambda: None))
        if self.first is None:
            self.first = outputs
        self.digests.append(digest)

    def check(self) -> list[str]:
        errs = checks.check_repeats(self.name, self.digests[0], self.digests[1:])
        return errs + self._check(self.first)

    def simulated(self) -> dict:
        return {}


# ── training ───────────────────────────────────────────────────────────


def _label(task: str, overrides: dict) -> str:
    text = f"{task}:{overrides.get('format', 'none')}"
    if overrides.get("dls") == "on":
        text += "+dls"
    return text + f"@{overrides.get('mode', 'fmacs')}"


def _tensor_sizes(task: str, layout: tuple, batch: int) -> dict[str, int]:
    """Element count of every logged tensor, from the task's layer widths."""
    sizes = {"input": batch * layout[0]}
    if task == "cnn_classify":
        side = int(round(layout[0] ** 0.5)) - 2          # valid 3x3 convolution
        ch, classes = layout[1], layout[2]
        feat = side * side * ch
        sizes.update({"conv0.weight": ch * 9, "conv0.act": batch * feat,
                      "conv0.dact": batch * feat, "fc0.weight": classes * feat,
                      "fc0.act": batch * classes, "fc0.dact": batch * classes})
        return sizes
    for i, (n_in, n_out) in enumerate(zip(layout, layout[1:])):
        sizes.update({f"fc{i}.weight": n_in * n_out, f"fc{i}.act": batch * n_out,
                      f"fc{i}.dact": batch * n_out})
    return sizes


def _read_run(run_dir: Path) -> dict:
    loss_text = (run_dir / "loss.csv").read_bytes()
    tele_text = (run_dir / "telemetry.csv").read_bytes()
    with open(run_dir / "loss.csv", newline="") as f:
        loss_rows = list(csv.DictReader(f))
    with open(run_dir / "telemetry.csv", newline="") as f:
        tele = [{**row, "step": int(row["step"]),
                 **{k: int(row[k]) for k in ("n_zero", "n_denormal", "n_normal", "n_inf", "n_nan")}}
                for row in csv.DictReader(f)]
    return {
        "losses": [row["loss"] for row in loss_rows],
        "skipped": sum(int(row["skipped"]) for row in loss_rows),
        "telemetry": tele,
        "summary": json.loads((run_dir / "summary.json").read_text()),
        "loss_csv": _digest(loss_text),
        "telemetry_csv": _digest(tele_text),
    }


class TrainSection(Section):
    """Training runs; through ``fpemu train --out`` and ``fpemu report``
    when ``via_cli``, else through ``training.train`` directly."""

    kind = "train"

    def __init__(self, name: str, specs, seed: int, *, via_cli: bool,
                 probe_every: int | None = None) -> None:
        super().__init__()
        self.name = name
        self.via_cli = via_cli
        self.probe_every = probe_every   # also run the probes every this many steps
        self.seed = seed % 2**32
        # (label, task, config entries)
        self.specs = [(_label(task, ov), task, {"task": task, "seed": str(self.seed),
                                                "steps": str(steps), **ov})
                      for task, steps, ov in specs]
        self.configs = {}
        self.sizes = {}
        self.steps = {}

    def setup(self) -> None:
        data = {}
        for label, task, entries in self.specs:
            cfg = training.resolve_config(entries)
            if task not in data:
                data[task] = tasks.build_task_data(task, cfg.seed)
            training.build_model(cfg, data[task])
            self.configs[label] = cfg
            self.sizes[label] = _tensor_sizes(task, data[task].layout, cfg.batch_size)
            self.steps[label] = cfg.steps

    def _pass(self, workdir: Path, between):
        captured = {}
        steps = 0
        seconds = 0.0
        tree = workdir / f"{self.name}-{len(self.digests)}"
        orig_train = cli.train
        orig_env = training.StepEnv
        probe_s = [0.0]
        if self.probe_every:
            started = [0]

            def step_env(*args, **kwargs):   # train() makes one StepEnv per step
                started[0] += 1
                if started[0] % self.probe_every == 0:
                    t = _now()
                    between()
                    probe_s[0] += _now() - t
                return orig_env(*args, **kwargs)
            training.StepEnv = step_env
        if self.via_cli and self.first is None:
            def capture(cfg, out_dir=None):
                result = orig_train(cfg, out_dir=out_dir)
                captured[cfg.run_id()] = [p.copy() for p in result.model.params()]
                return result
            cli.train = capture
        try:
            between()
            for label, task, entries in self.specs:
                cfg = self.configs[label]
                probe_s[0] = 0.0
                t0 = _now()
                if self.via_cli:
                    argv = ["train", "--task", task, "--out", str(tree)]
                    for k, v in entries.items():
                        if k != "task":
                            argv += ["--set", f"{k}={v}"]
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = self._op(cli.main, argv)
                    if code not in (None, 0):
                        self.failed += 1
                        self.fail_messages.append(f"fpemu train {label} exited {code}")
                else:
                    result = self._op(training.train, cfg, out_dir=tree / cfg.run_id())
                    if result is not None:
                        captured[cfg.run_id()] = [p.copy() for p in result.model.params()]
                seconds += _now() - t0 - probe_s[0]
                steps += cfg.steps
                between()
        finally:
            cli.train = orig_train
            training.StepEnv = orig_env
        report = None
        if self.via_cli:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self._op(cli.main, ["report", str(tree)])
            report = (code, out.getvalue())
        self.samples.append((steps, seconds))

        runs = {}
        for label, task, entries in self.specs:
            run_dir = tree / self.configs[label].run_id()
            if (run_dir / "summary.json").is_file():
                runs[label] = _read_run(run_dir)
                runs[label]["params"] = captured.get(self.configs[label].run_id())
        shutil.rmtree(tree, ignore_errors=True)
        digest = _digest(json.dumps(
            {k: [r["loss_csv"], r["telemetry_csv"]] for k, r in runs.items()},
            sort_keys=True).encode())
        if self.first is not None:
            return None, digest
        return {"runs": runs, "report": report}, digest

    def _pairs(self, runs, a_ov: dict, b_ov: dict):
        out = []
        for task in sorted({t for _, t, _ in self.specs}):
            a, b = _label(task, a_ov), _label(task, b_ov)
            if a in runs and b in runs:
                out.append((a, b))
        return out

    def _check(self, first) -> list[str]:
        runs = first["runs"]
        errs = []
        if len(runs) != len(self.specs):
            errs.append(f"{self.name}: {len(self.specs) - len(runs)} run(s) left no artifacts")
        errs += checks.check_converged(runs)
        # Within 5% of binary32 is checked on mlp and cnn only: regression's
        # final loss sits at its noise floor, where the gap swings 0-11%
        # with the seed (see README), so it is no property of the method.
        errs += checks.check_close_to_baseline(
            runs, [(a, b) for a, b in self._pairs(runs, {"format": "none"},
                                                  {"format": "1/6/9/n", **DLS})
                   if not a.startswith("regression")])
        errs += checks.check_identical(
            runs, self._pairs(runs, {"format": "none"}, {"format": "1/8/23/d"}))
        triples = []
        for narrow, narrow_dls in self._pairs(runs, {"format": "1/5/10/d"},
                                              {"format": "1/5/10/d", **DLS}):
            wide = narrow.replace("1/5/10/d", "1/6/9/d")
            if wide in runs:
                triples.append((narrow, narrow_dls, wide))
        errs += checks.check_denormal_order(runs, triples)
        errs += checks.check_no_denormals(runs)
        errs += checks.check_telemetry(runs, self.sizes, self.steps)
        if first["report"] is not None:
            code, text = first["report"]
            errs += checks.check_report(code, text, [self.configs[k].run_id() for k in runs])
        errs += checks.check_matmul_samples(self._matmul_samples())
        return errs

    def _matmul_samples(self):
        """Replay one step of each config, capture the first matmul of every
        (shape, kind), and replay sampled outputs as oracle chains."""
        captured = {}
        orig = {"matmul": training.matmul, "matmul_wide": training.matmul_wide}

        def capturing(kind):
            def call(a, b, fmt, mode, chunk):
                out = orig[kind](a, b, fmt, mode=mode, chunk=chunk)
                key = (kind, a.shape, b.shape, str(fmt), AccumMode.parse(mode))
                if key not in captured:
                    data = out.data if kind == "matmul" else out
                    captured[key] = (np.array(a, np.float64), np.array(b, np.float64),
                                     fmt, AccumMode.parse(mode), chunk, np.array(data))
                return out
            return call

        seen = set()
        training.matmul, training.matmul_wide = capturing("matmul"), capturing("matmul_wide")
        try:
            for label, task, entries in self.specs:
                cfg = self.configs[label]
                key = (task, cfg.fmt_name, cfg.mode)
                if key not in seen:
                    seen.add(key)
                    training.train(training.resolve_config({**entries, "steps": "1"}))
        finally:
            training.matmul, training.matmul_wide = orig["matmul"], orig["matmul_wide"]

        rng = _rng(self.seed, 7)
        samples = []
        for (kind, sa, sb, fmt_name, mode), (a, b, fmt, _, chunk, out) in sorted(
                captured.items(), key=lambda kv: repr(kv[0])):
            for _ in range(3):
                i, j = int(rng.integers(sa[0])), int(rng.integers(sb[1]))
                want = oracle_chain(a[i], b[:, j], fmt, mode, chunk, wide=(kind == "matmul_wide"))
                label = f"{kind} {sa[0]}x{sa[1]}x{sb[1]} {fmt_name} {mode.value} [{i},{j}]"
                samples.append((label, float(out[i, j]), want))
        return samples

    def simulated(self) -> dict:
        return {label: {"denormals": sum(row["n_denormal"] for row in r["telemetry"]),
                        "skipped_steps": r["skipped"],
                        "final_loss": r["summary"]["final_loss"],
                        "loss_csv": r["loss_csv"], "telemetry_csv": r["telemetry_csv"]}
                for label, r in self.first["runs"].items()}


def oracle_chain(arow, bcol, fmt: FpFormat, mode: AccumMode, chunk: int, *, wide: bool) -> float:
    """One matmul output element replayed step by step with ``fpemu.oracle``."""
    x = [float(v) for v in arow]
    y = [float(v) for v in bcol]
    acc = 0.0
    if mode is AccumMode.FMAC8:
        master = 0.0
        for i in range(len(x)):
            if i % chunk == 0:
                master = oracle.fmacs_oracle(master, acc, 1.0, fmt)   # binary32 drain
                acc = 0.0
            acc = oracle.fmac_oracle(acc, x[i], y[i], fmt)
        acc = oracle.fmacs_oracle(master, acc, 1.0, fmt)
    else:
        step = {AccumMode.MAC: oracle.mac_oracle, AccumMode.MACS: oracle.macs_oracle,
                AccumMode.FMAC: oracle.fmac_oracle, AccumMode.FMACS: oracle.fmacs_oracle}[mode]
        for xi, yi in zip(x, y):
            acc = step(acc, xi, yi, fmt)
    return float(np.float32(acc)) if wide else oracle.round_float(acc, fmt)


# ── bulk quantization ──────────────────────────────────────────────────


def _values(rng, n: int, e_lo: int, e_hi: int) -> np.ndarray:
    """Random sign, random 23-bit fraction, exponent uniform in [e_lo, e_hi]."""
    e = rng.integers(e_lo, e_hi + 1, n).astype(np.float64)
    frac = 1.0 + rng.integers(0, 1 << 23, n) / 2.0**23
    sign = rng.choice([-1.0, 1.0], n)
    return sign * frac * np.exp2(e)


def quantize_input(rng, fmt: FpFormat, n: int) -> np.ndarray:
    """float32 inputs: normals, the format's denormal band, exact rounding
    midpoints, the overflow range, raw bit patterns, +-0, +-inf and NaN."""
    th = checks.Thresholds.of(fmt)
    shares = {"normal": 0.55, "denormal": 0.15, "midpoint": 0.10, "overflow": 0.05, "bits": 0.10}
    k = {key: int(n * s) for key, s in shares.items()}
    n_special = n - sum(k.values())
    parts = [
        _values(rng, k["normal"], th.e_min, th.e_max),
        _values(rng, k["denormal"], th.e_min - th.p - 2, th.e_min - 1),
        _values(rng, k["overflow"], th.e_max, min(th.e_max + 1, 127)),
    ]
    # midpoints between neighbours of the format's grid: (2m+1) * 2^(q-1)
    e = rng.integers(th.e_min - 1, th.e_max + 1, k["midpoint"])
    q = np.maximum(e, th.e_min) - th.p
    m = np.where(e >= th.e_min, rng.integers(1 << th.p, 1 << (th.p + 1), e.size),
                 rng.integers(0, 1 << th.p, e.size))
    sign = rng.choice([-1.0, 1.0], e.size)
    parts.append(sign * (2 * m + 1) * np.exp2((q - 1).astype(np.float64)))
    with np.errstate(over="ignore", under="ignore"):
        out = np.concatenate([p.astype(np.float32) for p in parts])
    bits = rng.integers(0, 1 << 32, k["bits"], dtype=np.uint64).astype(np.uint32).view(np.float32)
    specials = np.resize(np.array([0.0, -0.0, np.inf, -np.inf, np.nan], np.float32), n_special)
    out = np.concatenate([out, bits, specials])
    return out[rng.permutation(out.size)]


QUANT_FORMATS = ("1/5/10/d", "1/6/9/d", "1/6/9/n", "1/8/7/n")


class QuantizeSection(Section):
    """Quantize and record: ``roundfp_array`` then ``DenormalStats.from_array``."""

    kind = "quantize"

    def __init__(self, name: str, seed: int, n: int, *, oracle_sample: int) -> None:
        super().__init__()
        self.name = name
        self.seed = seed
        self.n = n
        self.oracle_sample = oracle_sample
        self.formats = [FpFormat.parse(s) for s in QUANT_FORMATS]
        self.inputs = {}
        self.roofline: list[float] = []

    def setup(self) -> None:
        rng = _rng(self.seed, 3)
        self.inputs = {str(f): quantize_input(rng, f, self.n) for f in self.formats}

    def _pass(self, workdir: Path, between):
        outs = {}
        elems = 0
        seconds = 0.0
        for fmt in self.formats:
            x = self.inputs[str(fmt)]
            t0 = _now()
            y = self._op(rounding.roundfp_array, x, fmt)
            stats = None if y is None else self._op(
                telemetry.DenormalStats.from_array, y, fmt, tensor_id="bulk",
                phase=telemetry.Phase.FORWARD_ACTIVATION, step=0)
            seconds += _now() - t0
            elems += x.size
            if stats is not None:
                outs[str(fmt)] = (y, (stats.n_zero, stats.n_denormal, stats.n_normal,
                                      stats.n_inf, stats.n_nan))
        self.samples.append((elems, seconds))
        # the fastest any rounding into 1/5/10/d could run: numpy's own cast
        x = self.inputs["1/5/10/d"]
        t0 = _now()
        with np.errstate(over="ignore"):
            x.astype(np.float16)
        self.roofline.append(x.size / (_now() - t0))
        between()
        digest = _digest(b"".join(y.tobytes() + repr(c).encode() for y, c in outs.values()))
        return (outs if self.first is None else None), digest

    def _check(self, first) -> list[str]:
        errs = []
        rng = _rng(self.seed, 4)
        for fmt in self.formats:
            label = f"{self.name} {fmt}"
            if str(fmt) not in first:
                errs.append(f"{label}: no output")
                continue
            x = self.inputs[str(fmt)]
            y, counts = first[str(fmt)]
            th = checks.Thresholds.of(fmt)
            if str(fmt) == "1/5/10/d":
                errs += checks.check_reference(label, x, y, checks.f16_reference(x))
            elif str(fmt) == "1/8/7/n":
                errs += checks.check_reference(label, x, y, checks.bf16_flush_reference(x))
            else:
                idx = rng.choice(x.size, min(self.oracle_sample, x.size), replace=False)
                errs += checks.check_oracle_sample(label, x, y, idx, fmt, oracle.round_float)
            errs += checks.check_invariants(label, x, y, rounding.roundfp_array(y, fmt),
                                            rounding.roundfp_array(-x, fmt), th)
            errs += checks.check_counts(label, counts, checks.class_counts(y, th))
        return errs

    def simulated(self) -> dict:
        return {fmt: {"rounded": _digest(y.tobytes()), "class_counts": list(c)}
                for fmt, (y, c) in self.first.items()}


# ── scalar dot products and instructions ───────────────────────────────


def format_values(rng, fmt: FpFormat, n: int, e_lo: int, e_hi: int) -> np.ndarray:
    """Values of ``fmt`` built from their fields, exponent in [e_lo, e_hi)."""
    th = checks.Thresholds.of(fmt)
    e = np.minimum(rng.integers(e_lo, e_hi, n), th.e_max).astype(np.float64)
    frac = 1.0 + rng.integers(0, 1 << th.p, n) / float(1 << th.p)
    v = rng.choice([-1.0, 1.0], n) * frac * np.exp2(e)
    quantum = 2.0 ** (th.e_min - th.p)
    low = e < th.e_min                                   # onto the denormal grid
    v[low] = np.trunc(v[low] / quantum) * quantum
    return v


def decode_words(words: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """16-bit words of a /d format to values, from the bit layout."""
    th = checks.Thresholds.of(fmt)
    w = words.astype(np.int64)
    sign = np.where(w >> 15, -1.0, 1.0)
    ef = (w >> th.p) & ((1 << fmt.exp_bits) - 1)
    mf = (w & ((1 << th.p) - 1)).astype(np.float64)
    bias = th.e_max
    mag = np.where(ef == 0, mf * 2.0 ** (th.e_min - th.p),
                   (1.0 + mf / 2.0**th.p) * np.exp2((ef - bias).astype(np.float64)))
    special = ef == (1 << fmt.exp_bits) - 1
    mag = np.where(special, np.where(mf == 0, np.inf, np.nan), mag)
    return sign * mag


def dot_pairs(rng, fmt: FpFormat, n_random: int, n_denormal: int, n_overflow: int):
    """(w, x, chunk) vector pairs as in the acceptance suite's dot criterion:
    random pairs of length 0-1024, products in the denormal band, and runs
    of the format-width accumulator over the overflow threshold mid-chunk."""
    th = checks.Thresholds.of(fmt)
    kinds = rng.choice(5, n_random, p=[0.80, 0.12, 0.05, 0.025, 0.005])
    bounds = [(0, 9), (9, 33), (33, 97), (97, 385), (385, 1025)]
    lengths = [int(rng.integers(*bounds[k])) for k in kinds]
    lengths[:2] = [0, 1024]
    pairs = []
    for n in lengths:
        pairs.append((format_values(rng, fmt, n, th.e_min - 2, th.e_max // 2),
                      format_values(rng, fmt, n, th.e_min - 2, th.e_max // 2), 8))
    mid = th.e_min // 2
    for _ in range(n_denormal):
        n = int(rng.integers(4, 33))
        pairs.append((format_values(rng, fmt, n, mid - th.p // 2 - 2, mid + 2),
                      format_values(rng, fmt, n, mid - th.p // 2 - 2, mid + 2), 8))
    for _ in range(n_overflow):
        n = int(rng.integers(6, 25))
        w = format_values(rng, fmt, n, th.e_max // 2, th.e_max - 1)
        x = format_values(rng, fmt, n, 0, th.e_max // 2)
        k = int(rng.integers(0, n - 4))
        w[k:k + 4] = [th.max_finite, th.max_finite, -th.max_finite, -th.max_finite]
        x[k:k + 4] = 1.0
        pairs.append((w, x, int(rng.choice([1, 8]))))
    return [([float(v) for v in w], [float(v) for v in x], c) for w, x, c in pairs]


DOT_FORMATS = ("1/5/10/d", "1/6/9/d")
INSTRUCTIONS = ("mac", "macs", "fmac", "fmacs")


class DotSection(Section):
    """``fmac8_dot`` over vector pairs and the four scalar instructions
    over random 16-bit triples; feeds two rates."""

    kind = "dot"

    def __init__(self, name: str, seed: int, *, n_random: int, n_special: int,
                 n_triples: int) -> None:
        super().__init__()
        self.name = name
        self.seed = seed
        self.sizes = (n_random, n_special, n_triples)
        self.formats = [FpFormat.parse(s) for s in DOT_FORMATS]
        self.pairs = {}
        self.triples = {}
        self.instr_samples: list[tuple[float, float]] = []

    def setup(self) -> None:
        n_random, n_special, n_triples = self.sizes
        rng = _rng(self.seed, 5)
        for fmt in self.formats:
            self.pairs[str(fmt)] = dot_pairs(rng, fmt, n_random, n_special, n_special)
            words = rng.integers(0, 1 << 16, (3, n_triples))
            a, x, y = (list(map(float, decode_words(w, fmt))) for w in words)
            a32 = rng.integers(0, 1 << 32, n_triples, dtype=np.uint64)
            a32 = list(map(float, a32.astype(np.uint32).view(np.float32)))
            self.triples[str(fmt)] = (a, x, y, a32)

    def _pass(self, workdir: Path, between):
        outs = {}
        elems = 0
        dot_s = 0.0
        calls = 0
        instr_s = 0.0
        op = self._op
        for fmt in self.formats:
            pairs = self.pairs[str(fmt)]
            t0 = _now()
            got = [op(instructions.fmac8_dot, w, x, fmt, c) for w, x, c in pairs]
            dot_s += _now() - t0
            elems += sum(len(w) for w, _, _ in pairs)
            outs[(str(fmt), "fmac8_dot")] = got
            a, x, y, a32 = self.triples[str(fmt)]
            for name in INSTRUCTIONS:
                fn = getattr(instructions, name)
                acc = a32 if name.endswith("s") else a
                t0 = _now()
                got = [op(fn, p, q, r, fmt) for p, q, r in zip(acc, x, y)]
                instr_s += _now() - t0
                calls += len(got)
                outs[(str(fmt), name)] = got
        self.samples.append((elems, dot_s))
        self.instr_samples.append((calls, instr_s))
        between()
        digest = _digest(repr(sorted(outs.items())).encode())
        return (outs if self.first is None else None), digest

    def _check(self, first) -> list[str]:
        errs = []
        dyadic_calls = [0]
        counted = {}
        for attr in ("to_mk", "round_mk", "add_round", "mul_exact", "fused_add_round"):
            fn = getattr(_dyadic, attr)
            counted[attr] = fn

            def counting(*a, _fn=fn, **k):
                dyadic_calls[0] += 1
                return _fn(*a, **k)
            setattr(_dyadic, attr, counting)
        try:
            for fmt in self.formats:
                label = f"{self.name} {fmt}"
                got = [np.nan if v is None else v for v in first[(str(fmt), "fmac8_dot")]]
                want = [oracle.dot_oracle(w, x, fmt, chunk=c) for w, x, c in self.pairs[str(fmt)]]
                errs += checks.check_scalar_results(f"{label} fmac8_dot vs oracle.dot_oracle",
                                                    got, want)
                a, x, y, a32 = self.triples[str(fmt)]
                for name in INSTRUCTIONS:
                    ref = getattr(oracle, f"{name}_oracle")
                    acc = a32 if name.endswith("s") else a
                    want = [ref(p, q, r, fmt) for p, q, r in zip(acc, x, y)]
                    got = [np.nan if v is None else v for v in first[(str(fmt), name)]]
                    errs += checks.check_scalar_results(f"{label} {name} vs oracle.{name}_oracle",
                                                        got, want)
        finally:
            for attr, fn in counted.items():
                setattr(_dyadic, attr, fn)
        errs += checks.check_oracle_independent(dyadic_calls[0], vars(oracle))
        return errs

    def simulated(self) -> dict:
        return {f"{fmt} {name}": _digest(repr(v).encode()) for (fmt, name), v in self.first.items()}


# ── the workloads ──────────────────────────────────────────────────────


def _sweep_specs():
    formats = [("none", {}), ("1/8/23/d", {}), ("1/5/10/d", {}), ("1/5/10/d", DLS),
               ("1/6/9/d", {}), ("1/6/9/n", DLS), ("1/8/7/n", {})]
    specs = [(task, steps, {"format": f, **extra})
             for task, steps in (("regression", REGRESSION_STEPS), ("mlp_classify", MLP_STEPS))
             for f, extra in formats]
    specs += [("mlp_classify", MLP_STEPS, {"format": "1/6/9/n", "mode": m, **DLS})
              for m in ("mac", "macs", "fmac", "fmac8")]
    return specs


CNN_SPECS = [
    ("cnn_classify", CNN_STEPS, {"format": "none"}),
    ("cnn_classify", CNN_STEPS, {"format": "1/6/9/n", **DLS}),
    ("cnn_classify", CNN_STEPS, {"format": "1/5/10/d", "mode": "macs", **DLS}),
]
PROBE_TRAIN = [("regression", PROBE_STEPS, {"format": "1/5/10/d", **DLS})]


def _probe_quantize(seed):
    return QuantizeSection("probe_quantize", seed, 1 << 16, oracle_sample=512)


def _probe_dot(seed):
    return DotSection("probe_dot", seed, n_random=16, n_special=2, n_triples=200)


class ProbeTrain(TrainSection):
    """A short training run; it is not trained to convergence, so its
    check is that telemetry is whole and the loss went down."""

    def _check(self, first) -> list[str]:
        runs = first["runs"]
        errs = checks.check_telemetry(runs, self.sizes, self.steps)
        for label, r in runs.items():
            losses = [float(v) for v in r["losses"]]
            if not np.mean(losses[-3:]) < np.mean(losses[:3]):
                errs.append(f"{label}: loss did not go down")
        return errs


def build(workload: str, seed: int):
    """(main section, probe sections, probe passes per interleaving point)."""
    probe_train = ProbeTrain("probe_train", PROBE_TRAIN, seed, via_cli=False)
    if workload == "train_cnn":
        return (TrainSection("train_cnn", CNN_SPECS, seed, via_cli=False, probe_every=10),
                [_probe_quantize(seed), _probe_dot(seed)], 1)
    if workload == "train_sweep":
        return (TrainSection("train_sweep", _sweep_specs(), seed, via_cli=True),
                [_probe_quantize(seed), _probe_dot(seed)], 1)
    if workload == "quantize_bulk":
        return (QuantizeSection("quantize_bulk", seed, 1 << 20, oracle_sample=8192),
                [probe_train, _probe_dot(seed)], 1)
    if workload == "dot_verify":
        return (DotSection("dot_verify", seed, n_random=100, n_special=10, n_triples=1200),
                [probe_train, _probe_quantize(seed)], 1)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("train_cnn", "train_sweep", "quantize_bulk", "dot_verify")
