import math

import numpy as np
import pytest

from fpemu.formats import FpFormat
from fpemu.instructions import AccumMode
from fpemu.rounding import roundfp, roundfp_array
from fpemu.telemetry import Phase, TelemetrySink
from fpemu.training import (
    Linear,
    LossScaler,
    StepEnv,
    TrainConfig,
    gradient_check,
    mse_loss_and_grad,
    parse_config_text,
    resolve_config,
    softmax_ce_loss_and_grad,
    train,
    _det_exp,
    _det_log,
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
    with pytest.raises(ValueError):
        resolve_config({"task": "nope"})
    with pytest.raises(ValueError):
        resolve_config({"task": "regression", "dls": "maybe"})


def test_config_text_round_trip():
    cfg = resolve_config({"task": "cnn_classify", "format": "1/5/10/n",
                          "dls": "on", "seed": "7"})
    back = resolve_config(parse_config_text(cfg.to_text()))
    assert back == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(task="regression", dtype="float16")
    with pytest.raises(ValueError):
        TrainConfig(task="regression", fmt=HALF, dtype="float64")
    with pytest.raises(ValueError):
        TrainConfig(task="regression", steps=0)


# ── loss scaler ────────────────────────────────────────────────────────


def test_scaler_requires_powers_of_two():
    with pytest.raises(ValueError):
        LossScaler(init_scale=3.0)
    with pytest.raises(ValueError):
        LossScaler(backoff_factor=0.4)
    with pytest.raises(ValueError):
        LossScaler(min_scale=2.0**16, init_scale=2.0**15)
    LossScaler(init_scale=1.0, min_scale=1.0)


def test_scaler_backoff_and_floor():
    s = LossScaler(init_scale=4.0, min_scale=1.0, growth_interval=100)
    s.backoff()
    assert s.scale == 2.0
    s.backoff()
    assert s.scale == 1.0
    s.backoff()
    assert s.scale == 1.0  # clamped
    assert s.good_steps == 0


def test_scaler_growth_and_cap():
    s = LossScaler(init_scale=2.0, growth_interval=3, max_scale=8.0)
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
    s = LossScaler(init_scale=2.0, growth_interval=3)
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
    env = StepEnv(fmt=HALF, mode=AccumMode.FMACS, chunk=8, dtype=np.float32)
    x = np.array([[1.0, 1.0]], dtype=np.float32)

    out = layer.forward(x, env)
    # binary32 accumulation keeps 1 + 2^-12 exactly, the rounding into
    # the 16-bit format drops it, then the bias add brings it back and
    # the output rounding drops it again
    assert out.shape == (1, 1)
    assert out[0, 0] == 1.0

    env_none = StepEnv(fmt=None, mode=AccumMode.FMACS, chunk=8, dtype=np.float32)
    out_none = layer.forward(x, env_none)
    assert out_none[0, 0] == np.float32(1.0 + 2.0**-11)


def test_linear_backward_shapes_and_mirror():
    rng = np.random.default_rng(0)
    layer = Linear("t", 3, 2, rng, np.float32)
    env = StepEnv(fmt=HALF, mode=AccumMode.FMACS, chunk=8, dtype=np.float32)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_is_detected_and_stops_the_run():
    cfg = resolve_config({
        "task": "regression", "format": "none", "steps": "300",
        "lr": "1e9", "divergence_patience": "8",
    })
    result = train(cfg)
    assert result.outcome == "diverged"
    assert len(result.losses) < 300


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


def test_float64_reference_path_runs():
    cfg = resolve_config({"task": "regression", "format": "none",
                          "dtype": "float64", "steps": "20"})
    result = train(cfg)
    assert math.isfinite(result.final_loss)


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


def test_det_exp_and_log_accuracy():
    xs = np.linspace(-30.0, 0.0, 2001)
    rel = np.abs(_det_exp(xs) - np.exp(xs)) / np.exp(xs)
    assert float(rel.max()) < 1e-9
    ys = np.linspace(1.0, 8.0, 2001)
    assert float(np.abs(_det_log(ys) - np.log(ys)).max()) < 1e-12
    assert _det_exp(np.array([-np.inf]))[0] == 0.0
    assert math.isnan(_det_exp(np.array([np.nan]))[0])


def test_gradient_check_small():
    cfg = resolve_config({"task": "regression", "format": "none",
                          "dtype": "float64"})
    worst = gradient_check(cfg, n_directions=10)
    assert worst < 1e-6


def test_gradient_check_rejects_quantized_configs():
    with pytest.raises(ValueError):
        gradient_check(resolve_config({"task": "regression", "format": "1/5/10/d"}))
