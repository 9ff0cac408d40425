"""Mixed-precision training harness built on the emulated kernels.

The harness trains tiny models (a linear regressor, an MLP, a conv stem
plus linear head) while quantizing tensors at well-defined boundaries:

* master weights and optimizer state stay at binary32;
* weights, biases, activations and activation gradients are rounded
  into the configured 16-bit format right where they cross a layer
  boundary;
* matrix products run through :func:`fpemu.instructions.matmul` with a
  selectable accumulate mode, and weight gradients through
  :func:`matmul_wide` so they come back at binary32 width;
* every elementwise reduction (bias gradients, loss means) is an
  explicit ascending-order float32 chain.

With ``format=none`` the same code path runs unquantized: rounding
calls become pass-throughs and every matmul uses binary32 as the target
format, so a run quantized to 1/8/23/d is bit-identical to the
unquantized reference by construction.  Training runs in float32 only;
:func:`gradient_check` runs the same layers and losses in float64 through
an exact environment of its own.

Every source of randomness is a seeded ``numpy.random.Generator``, and
every reduction has a fixed order, so two runs with equal configs
produce byte-identical output files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .formats import BINARY32, FpFormat, parse_int, parse_value
from .instructions import AccumMode, matmul, matmul_wide
from .rounding import roundfp_array
from .tasks import TASK_SIZES, TaskData, build_task_data, task_defaults
from .telemetry import DenormalStats, Phase, RunSummary, TelemetrySink

__all__ = [
    "TrainConfig",
    "TrainResult",
    "LossScaler",
    "train",
    "gradient_check",
    "parse_config_text",
    "resolve_config",
]

LOSS_CSV_COLUMNS = ["step", "loss", "scale", "skipped"]

_LN2 = 0.6931471805599453
_LOG2E = 1.4426950408889634
_SQRT_HALF = 0.7071067811865476

# Taylor coefficients of 2**f = exp(f*ln2) around 0, degree 12.  The
# truncation error at f=1 is below 2e-12, far below float32 resolution.
_EXP2_COEFS = [_LN2**k / math.factorial(k) for k in range(13)]


# ---------------------------------------------------------------------------
# configuration


@dataclass
class TrainConfig:
    """Resolved hyperparameters for one training run.

    A field left ``None`` takes the task's value (:func:`fpemu.tasks.task_defaults`), in
    Python as from a config file or the CLI; a value given explicitly wins.

    Outcome classification: the final loss is the mean of the last (up
    to) 10 recorded step losses.  ``final <= converged_loss`` reports
    "converged", ``final <= degraded_loss`` reports "degraded", and
    anything worse, non-finite, or a run stopped early by a NaN streak
    reports "diverged".
    """

    task: str = "regression"
    fmt: FpFormat | None = None
    mode: AccumMode = AccumMode.FMACS
    chunk: int = 8
    dls: bool = False
    init_scale: float = 2.0**15
    growth_interval: int = 2000
    growth_factor: float = 2.0
    backoff_factor: float = 0.5
    min_scale: float = 1.0
    max_scale: float = 2.0**24
    steps: int | None = None
    batch_size: int | None = None
    lr: float | None = None
    momentum: float | None = None
    seed: int = 1234
    telemetry_interval: int = 1
    divergence_patience: int = 20
    converged_loss: float | None = None
    degraded_loss: float | None = None

    def __post_init__(self) -> None:
        for name, value in task_defaults(self.task).items():  # refuses an unknown task
            if getattr(self, name) is None:
                setattr(self, name, value)
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be positive")
        if self.batch_size > TASK_SIZES[self.task]:
            raise ValueError("batch_size exceeds dataset size")
        if self.telemetry_interval < 1:
            raise ValueError("telemetry_interval must be positive")
        if self.chunk < 1:
            raise ValueError("chunk must be positive")
        if not (math.isfinite(self.lr) and math.isfinite(self.momentum)):
            raise ValueError("lr and momentum must be finite")
        if self.divergence_patience < 1:
            raise ValueError("divergence_patience must be positive")
        if not self.converged_loss <= self.degraded_loss:
            raise ValueError("need converged_loss <= degraded_loss")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.dls:
            for name in ("init_scale", "growth_factor", "backoff_factor", "min_scale", "max_scale"):
                value = getattr(self, name)
                if value <= 0 or not float(math.log2(value)).is_integer():
                    raise ValueError(f"{name} must be a positive power of two, got {value}")
            if self.growth_factor <= 1:
                raise ValueError("growth_factor must exceed 1")
            if not 0 < self.backoff_factor < 1:
                raise ValueError("backoff_factor must be in (0, 1)")
            if self.min_scale > self.init_scale or self.init_scale > self.max_scale:
                raise ValueError("need min_scale <= init_scale <= max_scale")
            if self.growth_interval < 1:
                raise ValueError("growth_interval must be positive")

    @property
    def fmt_name(self) -> str:
        return "none" if self.fmt is None else str(self.fmt)

    def run_id(self) -> str:
        fmt_slug = self.fmt_name.replace("/", "-")
        dls_slug = "dls" if self.dls else "nodls"
        return f"{self.task}_{fmt_slug}_{self.mode.value}_{dls_slug}_s{self.seed}"

    def to_text(self) -> str:
        """Canonical key=value rendering; parseable by parse_config_text."""
        return "".join(
            f"{_config_key(f.name)}={_render(getattr(self, f.name))}\n" for f in fields(self)
        )


def _config_key(name: str) -> str:
    """The config key of a TrainConfig field; only ``fmt`` is spelled otherwise."""
    return "format" if name == "fmt" else name


def _render(value) -> str:
    """A field value as config.txt writes it."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, AccumMode):
        return value.value
    return "none" if value is None else str(value)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines; '#' starts a comment, blanks ignored."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


_BOOL_WORDS = {
    "on": True, "true": True, "yes": True, "1": True,
    "off": False, "false": False, "no": False, "0": False,
}


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in _BOOL_WORDS:
        raise ValueError(f"bad boolean {raw!r} for dls")
    return _BOOL_WORDS[raw.lower()]


def _parse_format(raw: str) -> FpFormat | None:
    return None if raw.lower() in ("none", "") else FpFormat.parse(raw)


# declared type of a field -> parser of its config value
_PARSERS = {
    bool: _parse_bool, int: parse_int, float: parse_value, str: str, AccumMode: AccumMode.parse,
    FpFormat | None: _parse_format, int | None: parse_int, float | None: parse_value,
}
# config key -> (TrainConfig field, parser of its value)
_CONFIG_FIELDS = {_config_key(n): (n, _PARSERS[t]) for n, t in get_type_hints(TrainConfig).items()}


def resolve_config(entries: dict[str, str]) -> TrainConfig:
    """A TrainConfig of config file entries; a field left out takes its default."""
    unknown = sorted(set(entries) - set(_CONFIG_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown config keys {unknown}; known keys: {sorted(_CONFIG_FIELDS)}"
        )
    return TrainConfig(**{
        name: parse(entries[key]) for key, (name, parse) in _CONFIG_FIELDS.items() if key in entries
    })


# ---------------------------------------------------------------------------
# dynamic loss scaling


class LossScaler:
    """Power-of-two dynamic loss scale with grow/backoff bookkeeping.

    The schedule is read from a :class:`TrainConfig`, whose checks make
    the scale and both factors powers of two, so that scaling and
    unscaling are exact float operations (barring overflow and
    underflow, which the skip logic is there to catch).
    """

    def __init__(self, cfg: TrainConfig) -> None:
        self.scale = float(cfg.init_scale)
        self.growth_interval = cfg.growth_interval
        self.growth_factor = float(cfg.growth_factor)
        self.backoff_factor = float(cfg.backoff_factor)
        self.min_scale = float(cfg.min_scale)
        self.max_scale = float(cfg.max_scale)
        self.good_steps = 0

    def backoff(self) -> None:
        """Non-finite gradients seen: halve the scale, reset the streak."""
        self.scale = max(self.scale * self.backoff_factor, self.min_scale)
        self.good_steps = 0

    def advance(self) -> None:
        """A clean step: count it, grow the scale when the streak is long."""
        self.good_steps += 1
        if self.good_steps >= self.growth_interval:
            self.scale = min(self.scale * self.growth_factor, self.max_scale)
            self.good_steps = 0


# ---------------------------------------------------------------------------
# quantization environment shared by the layers


@dataclass
class StepEnv:
    """Per-step bundle of format, accumulate mode and telemetry wiring."""

    fmt: FpFormat | None
    mode: AccumMode
    chunk: int
    sink: TelemetrySink | None = None
    step: int = 0
    record: bool = False

    def quantize(
        self, x: np.ndarray, tensor_id: str, phase: Phase, log: bool = True
    ) -> np.ndarray:
        if self.fmt is not None:
            out = roundfp_array(x, self.fmt)
        else:
            out = np.asarray(x, dtype=np.float32)
        if log and self.sink is not None and self.record:
            self.sink.record(
                DenormalStats.from_array(
                    out, self.fmt or BINARY32,
                    tensor_id=tensor_id, phase=phase, step=self.step,
                )
            )
        return out

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return matmul(a, b, self.fmt or BINARY32, mode=self.mode, chunk=self.chunk)

    def matmul_wide(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return matmul_wide(a, b, self.fmt or BINARY32, mode=self.mode, chunk=self.chunk)


def _ordered_sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 with one add per row, ascending index order.

    One sequential ``np.add.accumulate`` over the rows after a +0 row, so
    that the sums start from +0 as a loop would (a column of -0 sums to
    +0).  Overflowed gradients can put inf of both signs in a column; the
    resulting NaN is intentional (the loss-scaling skip logic catches
    it), so the invalid-operand warning is suppressed.
    """
    rows = np.zeros((a.shape[0] + 1, *a.shape[1:]), dtype=a.dtype)
    rows[1:] = a
    with np.errstate(invalid="ignore"):
        np.add.accumulate(rows, axis=0, out=rows)
    return rows[-1]


def _ordered_sum_flat(a: np.ndarray):
    """Scalar sum of all elements in C order, one rounding per add."""
    return _ordered_sum_rows(a.reshape(-1))


# ---------------------------------------------------------------------------
# layers


class Linear:
    """Fully connected layer; master weights at the model's dtype."""

    trainable = True

    def __init__(self, name: str, in_dim: int, out_dim: int, rng, dtype) -> None:
        self.name = name
        std = 1.0 / math.sqrt(in_dim)
        self.W = (rng.standard_normal((out_dim, in_dim)) * std).astype(dtype)
        self.b = np.zeros(out_dim, dtype=dtype)
        self.vW = np.zeros_like(self.W)
        self.vb = np.zeros_like(self.b)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None
        self._wq: np.ndarray | None = None

    # Conv3x3 calls the bodies below, not forward/backward, so a wrapper on
    # Linear.forward/backward (a profiler span) never runs inside Conv3x3's.

    def forward(self, x: np.ndarray, env: StepEnv) -> np.ndarray:
        return self._affine(x, env)

    def backward(self, dy: np.ndarray, env: StepEnv, need_dx: bool) -> np.ndarray | None:
        return self._affine_backward(dy, env, need_dx)

    def _affine(self, x: np.ndarray, env: StepEnv) -> np.ndarray:
        self._x = x
        wq = env.quantize(self.W, f"{self.name}.weight", Phase.WEIGHT)
        # Bias vectors are quantized like weights but not logged: with a
        # handful of elements their denormal fraction is 0-or-1 noise.
        bq = env.quantize(self.b, f"{self.name}.bias", Phase.WEIGHT, log=False)
        self._wq = wq
        z = env.matmul(x, wq.T)
        s = z + bq[None, :]
        return env.quantize(s, f"{self.name}.act", Phase.FORWARD_ACTIVATION)

    def _affine_backward(
        self, dy: np.ndarray, env: StepEnv, need_dx: bool
    ) -> np.ndarray | None:
        dyq = env.quantize(dy, f"{self.name}.dact", Phase.ACTIVATION_GRADIENT)
        self.dW = env.matmul_wide(dyq.T, self._x)
        self.db = _ordered_sum_rows(dyq)
        if need_dx:
            return env.matmul(dyq, self._wq)
        return None


class Conv3x3(Linear):
    """Valid 3x3 convolution on single-channel 8x8 inputs via im2col.

    Inputs arrive flattened to (batch, 64).  The patch matrix has one
    row per output position, so the convolution is a ``Linear`` layer
    from 9 patch pixels to ``channels`` applied to every patch.  Output
    is flattened to (batch, 6*6*channels) with position-major layout.
    """

    def __init__(self, name: str, channels: int, rng, dtype) -> None:
        super().__init__(name, 9, channels, rng, dtype)
        self.channels = channels

    @staticmethod
    def _im2col(imgs: np.ndarray) -> np.ndarray:
        b = imgs.shape[0]
        cols = np.empty((b, 36, 9), dtype=imgs.dtype)
        k = 0
        for di in range(3):
            for dj in range(3):
                cols[:, :, k] = imgs[:, di:di + 6, dj:dj + 6].reshape(b, 36)
                k += 1
        return cols.reshape(b * 36, 9)

    def forward(self, x: np.ndarray, env: StepEnv) -> np.ndarray:
        b = x.shape[0]
        s = self._affine(self._im2col(x.reshape(b, 8, 8)), env)
        return s.reshape(b, 36 * self.channels)

    def backward(self, dy: np.ndarray, env: StepEnv, need_dx: bool) -> np.ndarray | None:
        if need_dx:
            raise NotImplementedError(
                "input gradient for the conv stem is unused by the bundled tasks"
            )
        return self._affine_backward(dy.reshape(-1, self.channels), env, need_dx)


class ReLU:
    """Exact elementwise max(x, 0); introduces no rounding."""

    trainable = False

    def __init__(self, name: str) -> None:
        self.name = name
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, env: StepEnv) -> np.ndarray:
        self._mask = (x > 0).astype(x.dtype)
        return np.maximum(x, 0)

    def backward(self, dy: np.ndarray, env: StepEnv, need_dx: bool) -> np.ndarray:
        return dy * self._mask


class Model:
    def __init__(self, layers: list) -> None:
        self.layers = layers

    def forward(self, x: np.ndarray, env: StepEnv) -> np.ndarray:
        h = x
        for layer in self.layers:
            h = layer.forward(h, env)
        return h

    def backward(self, dout: np.ndarray, env: StepEnv) -> None:
        d = dout
        for i in reversed(range(len(self.layers))):
            d = self.layers[i].backward(d, env, need_dx=(i > 0))

    def trainable_layers(self) -> list:
        return [layer for layer in self.layers if layer.trainable]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.trainable_layers() for g in (layer.dW, layer.db)]

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.trainable_layers() for p in (layer.W, layer.b)]

    def set_params(self, arrays: list[np.ndarray]) -> None:
        layers = self.trainable_layers()
        if len(arrays) != 2 * len(layers):
            raise ValueError("parameter count mismatch")
        for i, layer in enumerate(layers):
            layer.W = np.array(arrays[2 * i], dtype=layer.W.dtype).reshape(layer.W.shape)
            layer.b = np.array(arrays[2 * i + 1], dtype=layer.b.dtype).reshape(layer.b.shape)

    def sgd_step(self, lr: float, momentum: float) -> None:
        for layer in self.trainable_layers():
            dt = layer.W.dtype.type
            mu = dt(momentum)
            step = dt(lr)
            layer.vW = mu * layer.vW + layer.dW
            layer.vb = mu * layer.vb + layer.db
            layer.W = layer.W - step * layer.vW
            layer.b = layer.b - step * layer.vb


def build_model(cfg: TrainConfig, data: TaskData, dtype=np.float32) -> Model:
    """Layers ``fc0``, ``relu0``, ``fc1``, ... of ``data.layout``'s widths, or for
    ``cnn_classify`` (pixels, channels, classes), ``conv0``, ``relu0`` and ``fc0``;
    parameters at ``dtype``."""
    rng = np.random.default_rng([cfg.seed, 1])
    layers: list = []
    widths = data.layout
    if data.name == "cnn_classify":
        layers += [Conv3x3("conv0", widths[1], rng, dtype), ReLU("relu0")]
        widths = (36 * widths[1], *widths[2:])  # a conv output per 6x6 position and channel
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        if i:
            layers.append(ReLU(f"relu{i - 1}"))
        layers.append(Linear(f"fc{i}", n_in, n_out, rng, dtype))
    return Model(layers)


# ---------------------------------------------------------------------------
# losses (deterministic elementary functions, ordered reductions)


def _det_exp(x: np.ndarray) -> np.ndarray:
    """Deterministic elementwise exp for float64 arrays.

    Evaluates 2**(x*log2(e)) with an integer/fraction split and a fixed
    polynomial, so results depend only on IEEE arithmetic, not on the
    platform libm.  Handles +-inf and NaN explicitly.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        z = x * _LOG2E
        finite = np.isfinite(z)
        zc = np.clip(np.where(finite, z, 0.0), -1100.0, 1100.0)
        n = np.floor(zc)
        f = zc - n
        p = np.full_like(f, _EXP2_COEFS[-1])
        for c in reversed(_EXP2_COEFS[:-1]):
            p = p * f + c
        out = np.ldexp(p, n.astype(np.int32))
        out = np.where(z == -np.inf, 0.0, out)
        out = np.where(z == np.inf, np.inf, out)
        out = np.where(np.isnan(z), np.nan, out)
    return out


def _det_log(x: np.ndarray) -> np.ndarray:
    """Deterministic elementwise log for positive finite float64 input.

    atanh series on the mantissa normalized into [sqrt(1/2), sqrt(2));
    |z| <= 0.1716 so 7 odd terms land well under 1e-12 relative error.
    NaN propagates.
    """
    x = np.asarray(x, dtype=np.float64)
    m, e = np.frexp(x)
    low = m < _SQRT_HALF
    m = np.where(low, m * 2.0, m)
    e = np.where(low, e - 1, e)
    z = (m - 1.0) / (m + 1.0)
    z2 = z * z
    s = 1.0 / 13.0
    for k in (11, 9, 7, 5, 3, 1):
        s = s * z2 + 1.0 / k
    return 2.0 * z * s + e * _LN2


def mse_loss_and_grad(yhat: np.ndarray, targets: np.ndarray):
    """Mean squared error at the working dtype; ordered reduction."""
    dt = yhat.dtype.type
    diff = yhat - targets.astype(yhat.dtype)
    sq = diff * diff
    loss = _ordered_sum_flat(sq) * dt(1.0 / sq.size)
    dy = diff * dt(2.0 / sq.size)
    return loss, dy


def softmax_ce_loss_and_grad(logits: np.ndarray, labels: np.ndarray):
    """Softmax cross entropy with deterministic exp/log.

    The softmax runs in float64 internally (shift by the row max, the
    fixed-polynomial exp, ordered row sums) and the loss plus gradient
    are cast back to the logits' dtype.
    """
    dt = logits.dtype.type
    b, c = logits.shape
    m = logits.max(axis=1, keepdims=True)
    shifted = (logits - m).astype(np.float64)
    e = _det_exp(shifted)
    s = _ordered_sum_rows(e.T)
    log_s = _det_log(s)
    rows = np.arange(b)
    terms = (log_s - shifted[rows, labels]).astype(logits.dtype)
    loss = _ordered_sum_flat(terms) * dt(1.0 / b)
    with np.errstate(invalid="ignore"):
        probs = (e / s[:, None]).astype(logits.dtype)
    probs[rows, labels] = probs[rows, labels] - dt(1.0)
    dlogits = probs * dt(1.0 / b)
    return loss, dlogits


def _loss_and_grad(kind: str, out: np.ndarray, targets: np.ndarray):
    if kind == "regression":
        return mse_loss_and_grad(out, targets)
    return softmax_ce_loss_and_grad(out, targets)


def _forward_and_loss(model: Model, env, data: TaskData, batch):
    """Quantize the inputs of ``data``'s examples ``batch``, run the model on
    them and return the loss and its gradient at the model's output."""
    out = model.forward(env.quantize(data.inputs[batch], "input", Phase.FORWARD_ACTIVATION), env)
    return _loss_and_grad(data.kind, out, data.targets[batch])


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class TrainResult:
    config: TrainConfig
    losses: list[float]
    scales: list[float]
    skipped: list[bool]
    final_loss: float
    outcome: str
    summary: RunSummary
    sink: TelemetrySink
    model: Model = field(repr=False)


def _final_loss(losses: list[float]) -> float:
    tail = losses[-10:]
    if not tail:
        return float("nan")
    return float(np.mean(np.asarray(tail, dtype=np.float64)))


def train(cfg: TrainConfig, out_dir: str | os.PathLike | None = None) -> TrainResult:
    """Run one training job; optionally write its artifacts to out_dir.

    Artifacts: ``config.txt`` (the resolved configuration),
    ``loss.csv`` (step,loss,scale,skipped), ``telemetry.csv`` and
    ``summary.json``.  Identical configs produce byte-identical files.
    The directory is created first, so a path that cannot be written
    fails before the run rather than after it.
    """
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    data = build_task_data(cfg.task, cfg.seed)
    model = build_model(cfg, data)
    batch_rng = np.random.default_rng([cfg.seed, 2])
    sink = TelemetrySink(run_id=cfg.run_id())
    scaler = LossScaler(cfg) if cfg.dls else None

    n = len(data.inputs)
    per_epoch = n // cfg.batch_size

    losses: list[float] = []
    scales: list[float] = []
    skipped: list[bool] = []
    nan_streak = 0
    diverged_early = False
    perm = np.arange(n)

    # A diverging run overflows to inf and NaN anywhere in a step; the
    # loss-scaling skip and the divergence check below read those values.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps):
            pos = step % per_epoch
            if pos == 0:
                perm = batch_rng.permutation(n)
            idx = perm[pos * cfg.batch_size:(pos + 1) * cfg.batch_size]

            env = StepEnv(
                fmt=cfg.fmt,
                mode=cfg.mode,
                chunk=cfg.chunk,
                sink=sink,
                step=step,
                record=(step % cfg.telemetry_interval == 0),
            )
            loss, dout = _forward_and_loss(model, env, data, idx)
            loss_f = float(loss)
            scale_now = scaler.scale if scaler is not None else 1.0

            if scaler is not None:
                dout = dout * np.float32(scale_now)
            model.backward(dout, env)

            skip = False
            if scaler is not None:
                grads = model.grads()
                if all(np.isfinite(g).all() for g in grads):
                    inv = np.float32(1.0 / scaler.scale)
                    for layer in model.trainable_layers():
                        layer.dW = layer.dW * inv
                        layer.db = layer.db * inv
                    scaler.advance()
                else:
                    scaler.backoff()
                    skip = True
            if not skip:
                model.sgd_step(cfg.lr, cfg.momentum)

            losses.append(loss_f)
            scales.append(scale_now)
            skipped.append(skip)

            if not skip:
                if math.isfinite(loss_f):
                    nan_streak = 0
                else:
                    nan_streak += 1
                    if nan_streak >= cfg.divergence_patience:
                        diverged_early = True
                        break

    final_loss = _final_loss(losses)
    if diverged_early or not math.isfinite(final_loss):
        outcome = "diverged"
    elif final_loss <= cfg.converged_loss:
        outcome = "converged"
    elif final_loss <= cfg.degraded_loss:
        outcome = "degraded"
    else:
        outcome = "diverged"

    summary = sink.summarize(
        fmt=cfg.fmt_name,
        dls=cfg.dls,
        accum_mode=cfg.mode.value,
        final_loss=final_loss,
        outcome=outcome,
    )
    result = TrainResult(
        config=cfg,
        losses=losses,
        scales=scales,
        skipped=skipped,
        final_loss=final_loss,
        outcome=outcome,
        summary=summary,
        sink=sink,
        model=model,
    )
    if out_dir is not None:
        _write_artifacts(out_dir, result)
    return result


def _write_artifacts(out_dir: Path, result: TrainResult) -> None:
    (out_dir / "config.txt").write_text(result.config.to_text())
    lines = [",".join(LOSS_CSV_COLUMNS)]
    for i, (loss, scale, skip) in enumerate(
        zip(result.losses, result.scales, result.skipped)
    ):
        lines.append(f"{i},{loss!r},{scale!r},{int(skip)}")
    (out_dir / "loss.csv").write_text("\n".join(lines) + "\n")
    result.sink.write_csv(out_dir / "telemetry.csv")
    (out_dir / "summary.json").write_text(result.summary.to_json())


# ---------------------------------------------------------------------------
# finite-difference gradient validation


class _ExactEnv:
    """StepEnv's interface in float64, without rounding or telemetry."""

    def quantize(self, x: np.ndarray, tensor_id: str, phase: Phase, log: bool = True):
        return np.asarray(x, dtype=np.float64)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    matmul_wide = matmul


def gradient_check(
    cfg: TrainConfig,
    n_directions: int = 100,
    h: float = 1e-5,
    direction_seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference
    directional derivatives over random unit directions.

    Takes an unquantized config (``format=none``) and builds its model at
    float64, where the finite differences are numerically meaningful;
    the layers and losses run in :class:`_ExactEnv`, so ``mode`` and
    ``chunk`` play no part.  Uses the first batch at the initial weights,
    where gradient magnitudes are healthy.
    """
    if cfg.fmt is not None:
        raise ValueError("gradient_check needs format=none")
    data = build_task_data(cfg.task, cfg.seed)
    model = build_model(cfg, data, dtype=np.float64)
    env = _ExactEnv()
    batch = slice(cfg.batch_size)

    flat0 = np.concatenate([p.ravel() for p in model.params()])
    splits = np.cumsum([p.size for p in model.params()])[:-1]

    def loss_at(flat: np.ndarray) -> float:
        model.set_params(np.split(flat, splits))  # set_params restores the shapes
        return float(_forward_and_loss(model, env, data, batch)[0])

    # analytic gradient at the initial weights
    _, dout = _forward_and_loss(model, env, data, batch)
    model.backward(dout, env)
    grad_flat = np.concatenate([g.ravel() for g in model.grads()])

    rng = np.random.default_rng(direction_seed)
    worst = 0.0
    for _ in range(n_directions):
        u = rng.standard_normal(flat0.size)
        u = u / math.sqrt(float(u @ u))
        fd = (loss_at(flat0 + h * u) - loss_at(flat0 - h * u)) / (2.0 * h)
        an = float(grad_flat @ u)
        rel = abs(fd - an) / max(abs(an), 1e-12)
        worst = max(worst, rel)
    return worst
