"""Fast tests of the benchmark itself.

    python3 -m pytest bench/tests -q

For each workload a shrunken run completes with its checks passing, and
each correctness check fails when handed a deliberately corrupted output.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from fpemu.formats import FpFormat  # noqa: E402
from spans import Tracer  # noqa: E402

HALF = FpFormat.parse("1/5/10/d")


def run_section(section, tmp_path, passes=2):
    section.setup()
    for _ in range(passes):
        section.run_pass(tmp_path)
    return section.check()


def flip_mantissa_bit(values: np.ndarray, i: int) -> np.ndarray:
    out = np.array(values, dtype=np.float32)
    out.view(np.uint32)[i] ^= np.uint32(1 << 13)
    return out


# ── shrunken runs of every workload ────────────────────────────────────


@pytest.fixture(scope="module")
def quantize_run(tmp_path_factory):
    s = workloads.QuantizeSection("quantize_bulk", 3, 1 << 12, oracle_sample=256)
    return s, run_section(s, tmp_path_factory.mktemp("q"))


@pytest.fixture(scope="module")
def dot_run(tmp_path_factory):
    s = workloads.DotSection("dot_verify", 3, n_random=6, n_special=2, n_triples=40)
    return s, run_section(s, tmp_path_factory.mktemp("d"))


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    specs = [(task, steps, ov) for task, steps, ov in workloads._sweep_specs()
             if task == "regression"]
    s = workloads.TrainSection("train_sweep", specs, 3, via_cli=True)
    return s, run_section(s, tmp_path_factory.mktemp("t"), passes=1)


def test_quantize_bulk_shrunken_run(quantize_run):
    s, errs = quantize_run
    assert errs == [] and s.failed == 0 and s.attempted == 2 * 2 * len(s.formats)


def test_dot_verify_shrunken_run(dot_run):
    s, errs = dot_run
    assert errs == [] and s.failed == 0 and s.samples and s.instr_samples


def test_train_sweep_shrunken_run(sweep_run):
    s, errs = sweep_run
    assert errs == [] and s.failed == 0
    assert s.first["report"][0] == 0 and len(s.first["runs"]) == len(s.specs)


def test_train_cnn_shrunken_run(tmp_path):
    specs = [(task, 2, ov) for task, _, ov in workloads.CNN_SPECS]
    s = workloads.TrainSection("train_cnn", specs, 3, via_cli=False)
    errs = run_section(s, tmp_path)
    # two steps do not converge; every other check holds
    assert errs and all("outcome" in e or "final loss" in e for e in errs), errs
    assert s.failed == 0 and s.samples[0][0] == 3 * 2


def test_missing_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dot_verify", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "correct" not in proc.stdout


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.active = True
    inner = tracer.span(lambda a: ("inner",), lambda: sum(range(20000)))
    outer = tracer.span(lambda a: ("outer",), lambda: [inner() for _ in range(3)])
    outer()
    st = tracer.stats
    assert st["inner"].calls == 3 and st["outer"].calls == 1
    assert st["outer"].self_ns + st["inner"].total_ns <= st["outer"].total_ns + 1
    assert st["outer"].self_ns >= 0


# ── corrupted outputs make each check fail ─────────────────────────────


def test_quantize_checks_catch_corruption(quantize_run):
    s, _ = quantize_run
    for fmt in s.formats:
        x = s.inputs[str(fmt)]
        y, counts = s.first[str(fmt)]
        th = checks.Thresholds.of(fmt)
        i = int(np.flatnonzero(np.isfinite(y) & (y != 0))[0])
        bad = flip_mantissa_bit(y, i)
        if str(fmt) == "1/5/10/d":
            assert checks.check_reference("t", x, bad, checks.f16_reference(x))
        elif str(fmt) == "1/8/7/n":
            assert checks.check_reference("t", x, bad, checks.bf16_flush_reference(x))
        else:
            from fpemu import oracle
            assert checks.check_oracle_sample("t", x, bad, np.array([i]), fmt, oracle.round_float)
        assert checks.check_invariants("t", x, y, bad, -y, th)          # idempotence
        assert checks.check_invariants("t", x, y, y, -bad, th)          # sign symmetry
        off = list(counts)
        off[2] += 1
        assert checks.check_counts("t", off, checks.class_counts(y, th))


def test_half_quantum_bound_catches_a_wrong_neighbour():
    th = checks.Thresholds.of(HALF)
    x = np.array([1.0 + 2.0**-12], dtype=np.float32)      # rounds to 1.0
    wrong = np.array([1.0 + 2.0**-10], dtype=np.float32)  # a grid value, but a quantum away
    assert any("half-quantum" in e for e in checks.check_invariants("t", x, wrong, wrong, -wrong, th))


def test_bf16_reference_rounds_and_flushes():
    x = np.array([1.0 + 2.0**-8, 1.0 + 3 * 2.0**-8, 2.0**-127, -2.0**-130, 3.4e38],
                 dtype=np.float32)
    want = np.array([1.0, 1.0 + 2.0**-6, 0.0, -0.0, np.inf], dtype=np.float32)
    assert checks.same_bits(checks.bf16_flush_reference(x), want).all()


def test_dot_checks_catch_corruption(dot_run):
    s, _ = dot_run
    from fpemu import oracle
    fmt = s.formats[0]
    got = list(s.first[(str(fmt), "fmac8_dot")])
    want = [oracle.dot_oracle(w, x, fmt, chunk=c) for w, x, c in s.pairs[str(fmt)]]
    assert checks.check_scalar_results("t", got, want) == []
    i = next(k for k, v in enumerate(got) if np.isfinite(v) and v != 0)
    got[i] = float(np.nextafter(np.float32(got[i]), np.float32(np.inf)))
    assert checks.check_scalar_results("t", got, want)
    a, x, y, _ = s.triples[str(fmt)]
    res = list(s.first[(str(fmt), "fmac")])
    j = next(k for k, v in enumerate(res) if np.isfinite(v))
    res[j] = -res[j] if res[j] else 2.0**-24
    assert checks.check_scalar_results("t", res, [oracle.fmac_oracle(p, q, r, fmt)
                                                  for p, q, r in zip(a, x, y)])
    assert checks.check_oracle_independent(1, {})


def test_repeat_check_catches_a_changed_round():
    assert checks.check_repeats("t", "a", ["a", "a"]) == []
    assert checks.check_repeats("t", "a", ["a", "b"])


def test_training_checks_catch_corruption(sweep_run):
    s, _ = sweep_run
    runs = s.first["runs"]
    base, ident = "regression:none@fmacs", "regression:1/8/23/d@fmacs"
    quant = "regression:1/6/9/n+dls@fmacs"
    narrow, narrow_dls = "regression:1/5/10/d@fmacs", "regression:1/5/10/d+dls@fmacs"
    wide = "regression:1/6/9/d@fmacs"

    bad = copy.deepcopy(runs)
    bad[quant]["telemetry"][3]["n_normal"] += 1                   # a count off by one
    assert checks.check_telemetry(bad, s.sizes, s.steps)

    bad = copy.deepcopy(runs)
    bad[narrow]["summary"]["outcome"] = "degraded"
    assert checks.check_converged(bad)

    bad = copy.deepcopy(runs)
    bad[quant]["summary"]["final_loss"] *= 1.06
    assert checks.check_close_to_baseline(bad, [(base, quant)])

    bad = copy.deepcopy(runs)
    bad[ident]["params"][0].view(np.uint32)[0] ^= np.uint32(1)
    assert checks.check_identical(bad, [(base, ident)])
    bad = copy.deepcopy(runs)
    bad[ident]["losses"][-1] += "1"
    assert checks.check_identical(bad, [(base, ident)])

    bad = copy.deepcopy(runs)
    bad[wide]["summary"]["global_max_denormal_fraction"] = \
        bad[narrow]["summary"]["global_max_denormal_fraction"] + 0.01
    assert checks.check_denormal_order(bad, [(narrow, narrow_dls, wide)])
    bad = copy.deepcopy(runs)
    bad[narrow_dls]["summary"]["global_max_denormal_fraction"] = \
        bad[narrow]["summary"]["global_max_denormal_fraction"] + 0.01
    assert checks.check_denormal_order(bad, [(narrow, narrow_dls, wide)])

    bad = copy.deepcopy(runs)
    row = bad[quant]["telemetry"][5]
    row["n_denormal"] += 1
    row["n_normal"] -= 1
    assert checks.check_no_denormals(bad)

    code, text = s.first["report"]
    ids = [s.configs[k].run_id() for k in runs]
    assert checks.check_report(code, text, ids) == []
    assert checks.check_report(1, text, ids)
    drop = "\n".join(line for line in text.splitlines() if not line.startswith(ids[0]))
    assert checks.check_report(0, drop, ids)


def test_matmul_oracle_chain_catches_a_perturbed_output(sweep_run):
    s, _ = sweep_run
    samples = s._matmul_samples()
    assert samples and checks.check_matmul_samples(samples) == []
    label, got, want = samples[0]
    nudged = float(np.nextafter(np.float32(got), np.float32(np.inf)))
    assert checks.check_matmul_samples([(label, nudged, want)] + samples[1:])
