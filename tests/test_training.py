import dataclasses
import itertools
import math
import pathlib
import re

import numpy as np
import pytest

from fpemu.formats import FpFormat
from fpemu.instructions import AccumMode
from fpemu.rounding import roundfp, roundfp_array
from fpemu.tasks import TASK_NAMES, TASK_SIZES, build_task_data
from fpemu.telemetry import DenormalStats, Phase, RunSummary, TelemetrySink
from fpemu.training import (
    Linear,
    LossScaler,
    StepEnv,
    TrainConfig,
    build_model,
    gradient_check,
    mse_loss_and_grad,
    parse_config_text,
    resolve_config,
    softmax_ce_loss_and_grad,
    train,
    _det_exp,
    _det_log,
    _ordered_sum_flat,
    _ordered_sum_rows,
)

HALF = FpFormat.parse("1/5/10/d")


# ── config handling ────────────────────────────────────────────────────


def test_parse_config_text():
    text = """
    # a comment
    task = regression
    format=1/6/9/n   # trailing comment
    dls = on

    steps=40
    """
    entries = parse_config_text(text)
    assert entries == {"task": "regression", "format": "1/6/9/n",
                       "dls": "on", "steps": "40"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError):
        parse_config_text("just words\n")
    with pytest.raises(ValueError):
        parse_config_text("=value\n")
    with pytest.raises(ValueError):
        parse_config_text("a=1\na=2\n")


def test_resolve_config_defaults_and_overrides():
    cfg = resolve_config({"task": "mlp_classify"})
    assert cfg.task == "mlp_classify"
    assert cfg.fmt is None
    assert cfg.mode is AccumMode.FMACS
    assert cfg.momentum == 0.9  # task default
    cfg2 = resolve_config({"task": "mlp_classify", "momentum": "0.0",
                           "format": "1/5/10/d", "mode": "mac"})
    assert cfg2.momentum == 0.0
    assert str(cfg2.fmt) == "1/5/10/d"
    assert cfg2.mode is AccumMode.MAC


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        resolve_config({"task": "regression", "learning_rate": "0.1"})
    # no dtype key: training runs in float32, gradient_check in float64
    with pytest.raises(ValueError, match=r"^unknown config keys \['dtype'\]; known keys: "):
        resolve_config({"task": "regression", "dtype": "float64"})
    with pytest.raises(ValueError):
        resolve_config({"task": "nope"})
    with pytest.raises(ValueError):
        resolve_config({"task": "regression", "dls": "maybe"})


def test_config_text_round_trip():
    cfg = resolve_config({"task": "cnn_classify", "format": "1/5/10/n",
                          "dls": "on", "seed": "7"})
    back = resolve_config(parse_config_text(cfg.to_text()))
    assert back == cfg


def test_artifact_text_forms_are_pinned(tmp_path):
    """Literal config.txt, summary.json and telemetry.csv bytes: a writer
    and reader changed in step would still pass the round-trip tests."""
    cfg = resolve_config({"task": "mlp_classify", "format": "1/6/9/n", "mode": "mac",
                          "dls": "on", "init_scale": "1024", "lr": "0.1", "seed": "7",
                          "chunk": "4"})
    assert cfg.to_text() == (
        "task=mlp_classify\nformat=1/6/9/n\nmode=mac\nchunk=4\ndls=on\n"
        "init_scale=1024.0\ngrowth_interval=2000\ngrowth_factor=2.0\n"
        "backoff_factor=0.5\nmin_scale=1.0\nmax_scale=16777216.0\nsteps=500\n"
        "batch_size=32\nlr=0.1\nmomentum=0.9\nseed=7\ntelemetry_interval=1\n"
        "divergence_patience=20\nconverged_loss=0.05\ndegraded_loss=0.5\n"
    )
    assert TrainConfig().to_text().startswith(
        "task=regression\nformat=none\nmode=fmacs\nchunk=8\ndls=off\n")

    summary = RunSummary("r1", "1/5/10/d", True, "fmacs", {"w": 0.25, "a": 0.0}, 0.25, 3,
                         final_loss=0.125, outcome="degraded")
    assert summary.to_json() == (
        '{\n  "accum_mode": "fmacs",\n  "dls": true,\n  "final_loss": 0.125,\n'
        '  "format": "1/5/10/d",\n  "global_max_denormal_fraction": 0.25,\n'
        '  "n_records": 3,\n  "outcome": "degraded",\n'
        '  "per_tensor_max_denormal_fraction": {\n    "a": 0.0,\n    "w": 0.25\n  },\n'
        '  "run_id": "r1"\n}\n'
    )

    sink = TelemetrySink(run_id="r1")
    for values, tensor_id, phase, step in [
        ([2.0**-24, 0.0, 1.0], "fc0.weight", Phase.WEIGHT, 0),
        ([np.nan, np.inf, -2.0**-20], "fc0.dact", Phase.ACTIVATION_GRADIENT, 3),
    ]:
        sink.record(DenormalStats.from_array(np.array(values, np.float32), HALF,
                                             tensor_id=tensor_id, phase=phase, step=step))
    sink.write_csv(tmp_path / "telemetry.csv")
    assert (tmp_path / "telemetry.csv").read_bytes() == (
        b"run_id,tensor_id,phase,step,n_zero,n_denormal,n_normal,n_inf,n_nan,fraction\r\n"
        b"r1,fc0.weight,weight,0,1,1,1,0,0,0.3333333333333333\r\n"
        b"r1,fc0.dact,activation_gradient,3,0,1,0,1,1,0.3333333333333333\r\n"
    )


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(task="regression", steps=0)
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        TrainConfig(task="regression", seed=-1)
    with pytest.raises(ValueError, match="^init_scale must be a positive power of two"):
        TrainConfig(task="regression", dls=True, init_scale=3.0)
    # the scale schedule is only checked when loss scaling is on
    TrainConfig(task="regression", dls=False, init_scale=3.0, growth_interval=0)


@pytest.mark.parametrize("task", TASK_NAMES)
def test_batch_size_is_checked_against_the_task_data(task):
    assert len(build_task_data(task, 7).inputs) == TASK_SIZES[task]
    TrainConfig(task=task, batch_size=TASK_SIZES[task])
    with pytest.raises(ValueError, match="^batch_size exceeds dataset size$"):
        TrainConfig(task=task, batch_size=TASK_SIZES[task] + 1)


@pytest.mark.parametrize("task", TASK_NAMES)
def test_train_config_takes_the_task_defaults(task):
    assert TrainConfig(task=task) == resolve_config({"task": task})
    assert TrainConfig(task=task, steps=7).steps == 7
    assert TrainConfig(task=task, momentum=0.0).momentum == 0.0


def test_train_config_refuses_an_unknown_task():
    with pytest.raises(ValueError, match=r"^unknown task 'nope'; expected one of \(.*\)$"):
        TrainConfig(task="nope")


@pytest.mark.parametrize("task,layers", [
    ("regression", [("fc0", (1, 16))]),
    ("mlp_classify", [("fc0", (24, 8)), ("relu0", None), ("fc1", (3, 24))]),
    ("cnn_classify", [("conv0", (3, 9)), ("relu0", None), ("fc0", (4, 108))]),
])
def test_build_model_layers_follow_the_task_layout(task, layers):
    cfg = TrainConfig(task=task)
    model = build_model(cfg, build_task_data(task, cfg.seed))
    assert [(layer.name, layer.W.shape if layer.trainable else None)
            for layer in model.layers] == layers


def test_readme_lists_every_config_key():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("with `fmt` spelled `format`:", 1)[1].split(". ", 1)[0]
    keys = ["format" if f.name == "fmt" else f.name for f in dataclasses.fields(TrainConfig)]
    assert re.findall(r"`(\w+)`", listed) == keys


# ── loss scaler ────────────────────────────────────────────────────────


def _scaler(**schedule) -> LossScaler:
    return LossScaler(TrainConfig(task="regression", dls=True, **schedule))


def test_scaler_requires_powers_of_two():
    with pytest.raises(ValueError):
        _scaler(init_scale=3.0)
    with pytest.raises(ValueError):
        _scaler(backoff_factor=0.4)
    with pytest.raises(ValueError):
        _scaler(min_scale=2.0**16, init_scale=2.0**15)
    _scaler(init_scale=1.0, min_scale=1.0)
    # loss.csv writes the scale's repr, a float even when the config holds ints
    assert repr(_scaler(init_scale=1024, max_scale=2**20).scale) == "1024.0"


def test_scaler_backoff_and_floor():
    s = _scaler(init_scale=4.0, min_scale=1.0, growth_interval=100)
    s.backoff()
    assert s.scale == 2.0
    s.backoff()
    assert s.scale == 1.0
    s.backoff()
    assert s.scale == 1.0  # clamped
    assert s.good_steps == 0


def test_scaler_growth_and_cap():
    s = _scaler(init_scale=2.0, growth_interval=3, max_scale=8.0)
    for _ in range(3):
        s.advance()
    assert s.scale == 4.0
    for _ in range(3):
        s.advance()
    assert s.scale == 8.0
    for _ in range(3):
        s.advance()
    assert s.scale == 8.0  # capped
    s.backoff()
    assert s.scale == 4.0


def test_scaler_backoff_resets_growth_streak():
    s = _scaler(init_scale=2.0, growth_interval=3)
    s.advance()
    s.advance()
    s.backoff()
    for _ in range(2):
        s.advance()
    assert s.scale == 1.0  # streak restarted, no growth yet


# ── layer arithmetic ───────────────────────────────────────────────────


def test_linear_forward_quantization_chain():
    rng = np.random.default_rng(0)
    layer = Linear("t", 2, 1, rng, np.float32)
    layer.W = np.array([[1.0, 2.0**-12]], dtype=np.float32)
    layer.b = np.array([2.0**-12], dtype=np.float32)
    env = StepEnv(fmt=HALF, mode=AccumMode.FMACS, chunk=8)
    x = np.array([[1.0, 1.0]], dtype=np.float32)

    out = layer.forward(x, env)
    # binary32 accumulation keeps 1 + 2^-12 exactly, the rounding into
    # the 16-bit format drops it, then the bias add brings it back and
    # the output rounding drops it again
    assert out.shape == (1, 1)
    assert out[0, 0] == 1.0

    env_none = StepEnv(fmt=None, mode=AccumMode.FMACS, chunk=8)
    out_none = layer.forward(x, env_none)
    assert out_none[0, 0] == np.float32(1.0 + 2.0**-11)


def test_linear_backward_shapes_and_mirror():
    rng = np.random.default_rng(0)
    layer = Linear("t", 3, 2, rng, np.float32)
    env = StepEnv(fmt=HALF, mode=AccumMode.FMACS, chunk=8)
    x = roundfp_array(rng.standard_normal((4, 3)).astype(np.float32), HALF)
    layer.forward(x, env)
    dy = rng.standard_normal((4, 2)).astype(np.float32)
    dx = layer.backward(dy, env, need_dx=True)
    assert dx.shape == (4, 3)
    assert layer.dW.shape == (2, 3)
    assert layer.db.shape == (2,)
    # the incoming gradient is quantized before any use, so dx is built
    # from format values and is itself a format tensor
    assert np.array_equal(roundfp_array(dx, HALF), dx)


def test_telemetry_records_expected_tensors():
    cfg = resolve_config({"task": "regression", "format": "1/5/10/d",
                          "steps": "3", "telemetry_interval": "2"})
    result = train(cfg)
    keys = {(r.tensor_id, r.phase, r.step) for r in result.sink.records}
    # steps 0 and 2 are recorded, step 1 is not
    assert ("input", "forward_activation", 0) in keys
    assert ("fc0.weight", "weight", 0) in keys
    assert ("fc0.act", "forward_activation", 2) in keys
    assert ("fc0.dact", "activation_gradient", 2) in keys
    assert not any(step == 1 for _, _, step in keys)
    # biases are quantized but not logged
    assert not any("bias" in tid for tid, _, _ in keys)


# ── whole runs ─────────────────────────────────────────────────────────


def test_identity_width_run_matches_unquantized():
    base = train(resolve_config({"task": "regression", "format": "none",
                                 "steps": "60"}))
    ident = train(resolve_config({"task": "regression", "format": "1/8/23/d",
                                  "steps": "60"}))
    assert ident.losses == base.losses
    for lb, li in zip(base.model.params(), ident.model.params()):
        assert np.array_equal(lb, li)


def test_runs_are_byte_deterministic(tmp_path):
    cfg = resolve_config({"task": "regression", "format": "1/5/10/d",
                          "dls": "on", "growth_interval": "20", "steps": "50"})
    train(cfg, out_dir=tmp_path / "a")
    train(cfg, out_dir=tmp_path / "b")
    for name in ("config.txt", "loss.csv", "telemetry.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_telemetry_interval_does_not_perturb_training(tmp_path):
    common = {"task": "regression", "format": "1/5/10/d", "steps": "40"}
    train(resolve_config({**common, "telemetry_interval": "1"}), tmp_path / "a")
    train(resolve_config({**common, "telemetry_interval": "13"}), tmp_path / "b")
    assert (tmp_path / "a" / "loss.csv").read_bytes() == (tmp_path / "b" / "loss.csv").read_bytes()


def test_dls_backoff_recovers_from_oversized_scale():
    cfg = resolve_config({
        "task": "regression", "format": "1/5/10/d", "dls": "on",
        "init_scale": repr(2.0**24), "growth_interval": "200", "steps": "80",
    })
    result = train(cfg)
    assert sum(result.skipped) >= 1
    assert result.scales[0] == 2.0**24
    assert min(result.scales) < 2.0**24
    # skipped steps never update weights, so the loss stays finite
    assert all(math.isfinite(v) for v in result.losses)
    # scale only moves by factors of two
    for a, b in zip(result.scales, result.scales[1:]):
        assert b in (a, a * 2.0, a * 0.5)


def test_dls_growth_schedule():
    cfg = resolve_config({
        "task": "regression", "format": "1/5/10/d", "dls": "on",
        "init_scale": "1024", "growth_interval": "25", "steps": "60",
    })
    result = train(cfg)
    assert sum(result.skipped) == 0
    assert result.scales[0] == 1024.0
    assert result.scales[25] == 2048.0
    assert result.scales[50] == 4096.0


def test_divergence_is_detected_and_stops_the_run():
    cfg = resolve_config({
        "task": "regression", "format": "none", "steps": "300",
        "lr": "1e9", "divergence_patience": "8",
    })
    result = train(cfg)
    assert result.outcome == "diverged"
    assert len(result.losses) < 300


@pytest.mark.parametrize("task", ("mlp_classify", "cnn_classify"))
def test_diverging_classifiers_raise_no_numpy_warning(task):
    # inf and NaN logits, activations and weights; the suite turns any
    # RuntimeWarning into an error
    cfg = resolve_config({"task": task, "format": "1/6/9/n", "steps": "12", "lr": "1e9"})
    result = train(cfg)
    assert result.outcome == "diverged"


def test_outcome_thresholds():
    entries = {"task": "regression", "format": "none", "steps": "30"}
    relaxed = train(resolve_config({**entries, "converged_loss": "1e9",
                                    "degraded_loss": "1e9"}))
    assert relaxed.outcome == "converged"
    tight = train(resolve_config({**entries, "converged_loss": "1e-30",
                                  "degraded_loss": "1e9"}))
    assert tight.outcome == "degraded"
    hopeless = train(resolve_config({**entries, "converged_loss": "1e-30",
                                     "degraded_loss": "1e-29"}))
    assert hopeless.outcome == "diverged"


# ── losses and gradients ───────────────────────────────────────────────


def test_mse_hand_value():
    yhat = np.array([[1.0], [2.0]], dtype=np.float32)
    t = np.array([[0.0], [4.0]], dtype=np.float32)
    loss, dy = mse_loss_and_grad(yhat, t)
    assert loss == np.float32((1.0 + 4.0) / 2.0)
    assert np.array_equal(dy, np.array([[1.0], [-2.0]], dtype=np.float32))


def test_softmax_ce_hand_properties():
    logits = np.array([[2.0, 0.0, -1.0], [0.5, 0.5, 0.5]], dtype=np.float32)
    labels = np.array([0, 2], dtype=np.int64)
    loss, dl = softmax_ce_loss_and_grad(logits, labels)
    assert loss > 0
    # gradient rows sum to zero and point away from the target class
    assert np.allclose(dl.sum(axis=1), 0.0, atol=1e-7)
    assert dl[0, 0] < 0 and dl[1, 2] < 0
    # uniform logits give loss log(3) on the second sample
    expected = (-math.log(math.e**2 / (math.e**2 + 1 + math.e**-1)) + math.log(3)) / 2
    assert abs(float(loss) - expected) < 1e-6


def _loop_sum_rows(a):
    acc = np.zeros(a.shape[1:], dtype=a.dtype)
    for i in range(a.shape[0]):
        acc = acc + a[i]
    return acc


def _ordered_sum_cases():
    rng = np.random.default_rng(55)
    for dtype, _ in itertools.product((np.float32, np.float64), range(7)):
        big = np.finfo(dtype).max
        for n, m in ((0, 3), (1, 1), (5, 4), (32, 24), (1152, 3), (7, 0)):
            for kind in ("normal", "neg_zero", "inf_pair", "overflow"):
                a = (rng.standard_normal((n, m)) * 10.0 ** rng.integers(-30, 30, (n, m))).astype(dtype)
                if kind == "neg_zero" and m:
                    a[:, 0] = -0.0
                elif kind == "inf_pair" and n >= 2 and m:
                    a[0, 0], a[-1, 0] = np.inf, -np.inf
                elif kind == "overflow" and n >= 2 and m:
                    a[:, -1] = big / 2
                yield a


def test_ordered_sums_match_the_loop():
    cases = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for a in _ordered_sum_cases():
            want = _loop_sum_rows(a)
            got = _ordered_sum_rows(a)
            assert got.dtype == a.dtype
            assert got.tobytes() == want.tobytes(), a.shape
            flat = a.dtype.type(0.0)
            for v in a.ravel():
                flat = flat + v
            got_flat = _ordered_sum_flat(a)
            assert type(got_flat) is a.dtype.type
            assert got_flat.tobytes() == flat.tobytes(), a.shape
            cases += 1
    assert cases == 336
    assert math.copysign(1.0, _ordered_sum_rows(np.full((3, 1), -0.0))[0]) == 1.0


def test_det_exp_and_log_accuracy():
    xs = np.linspace(-30.0, 0.0, 2001)
    rel = np.abs(_det_exp(xs) - np.exp(xs)) / np.exp(xs)
    assert float(rel.max()) < 1e-9
    ys = np.linspace(1.0, 8.0, 2001)
    assert float(np.abs(_det_log(ys) - np.log(ys)).max()) < 1e-12
    assert _det_exp(np.array([-np.inf]))[0] == 0.0
    assert math.isnan(_det_exp(np.array([np.nan]))[0])


def test_gradient_check_small():
    cfg = resolve_config({"task": "regression", "format": "none"})
    worst = gradient_check(cfg, n_directions=10)
    assert worst < 1e-6


@pytest.mark.parametrize("task", TASK_NAMES)
def test_gradient_check_takes_any_unquantized_config(task):
    # training runs in float32 only; gradient_check builds its own float64 model
    assert gradient_check(TrainConfig(task=task), n_directions=2) < 1e-4


def test_gradient_check_rejects_quantized_configs():
    with pytest.raises(ValueError, match="^gradient_check needs format=none$"):
        gradient_check(resolve_config({"task": "regression", "format": "1/5/10/d"}))
    with pytest.raises(ValueError, match="^gradient_check needs format=none$"):
        gradient_check(TrainConfig(task="mlp_classify", fmt=FpFormat.parse("1/8/23/d")))
