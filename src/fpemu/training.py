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
unquantized reference by construction.  The unquantized path can also
run in float64, which exists for finite-difference gradient validation.

Every source of randomness is a seeded ``numpy.random.Generator``, and
every reduction has a fixed order, so two runs with equal configs
produce byte-identical output files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .formats import BINARY32, FpFormat
from .instructions import AccumMode, matmul, matmul_wide
from .rounding import roundfp_array
from .tasks import TASK_NAMES, TaskData, build_task_data, task_defaults
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
    steps: int = 600
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.0
    seed: int = 1234
    telemetry_interval: int = 1
    divergence_patience: int = 20
    converged_loss: float = 1e-7
    degraded_loss: float = 1e-5
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.task not in TASK_NAMES:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASK_NAMES}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")
        if self.dtype == "float64" and self.fmt is not None:
            raise ValueError("float64 runs require format=none")
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be positive")
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

    @property
    def fmt_name(self) -> str:
        return "none" if self.fmt is None else str(self.fmt)

    def run_id(self) -> str:
        fmt_slug = self.fmt_name.replace("/", "-")
        dls_slug = "dls" if self.dls else "nodls"
        return f"{self.task}_{fmt_slug}_{self.mode.value}_{dls_slug}_s{self.seed}"

    def to_text(self) -> str:
        """Canonical key=value rendering; parseable by parse_config_text."""
        lines = [
            f"task={self.task}",
            f"format={self.fmt_name}",
            f"mode={self.mode.value}",
            f"chunk={self.chunk}",
            f"dls={'on' if self.dls else 'off'}",
            f"init_scale={self.init_scale!r}",
            f"growth_interval={self.growth_interval}",
            f"growth_factor={self.growth_factor!r}",
            f"backoff_factor={self.backoff_factor!r}",
            f"min_scale={self.min_scale!r}",
            f"max_scale={self.max_scale!r}",
            f"steps={self.steps}",
            f"batch_size={self.batch_size}",
            f"lr={self.lr!r}",
            f"momentum={self.momentum!r}",
            f"seed={self.seed}",
            f"telemetry_interval={self.telemetry_interval}",
            f"divergence_patience={self.divergence_patience}",
            f"converged_loss={self.converged_loss!r}",
            f"degraded_loss={self.degraded_loss!r}",
            f"dtype={self.dtype}",
        ]
        return "\n".join(lines) + "\n"


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

_INT_KEYS = {
    "chunk", "growth_interval", "steps", "batch_size", "seed",
    "telemetry_interval", "divergence_patience",
}
_FLOAT_KEYS = {
    "init_scale", "growth_factor", "backoff_factor", "min_scale",
    "max_scale", "lr", "momentum", "converged_loss", "degraded_loss",
}
_KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | {"task", "format", "mode", "dls", "dtype"}


def resolve_config(entries: dict[str, str]) -> TrainConfig:
    """Layer file entries over per-task defaults and build a TrainConfig."""
    unknown = sorted(set(entries) - _KNOWN_KEYS)
    if unknown:
        raise ValueError(
            f"unknown config keys {unknown}; known keys: {sorted(_KNOWN_KEYS)}"
        )
    task = entries.get("task", "regression")
    if task not in TASK_NAMES:
        raise ValueError(f"unknown task {task!r}; expected one of {TASK_NAMES}")

    merged: dict[str, object] = {"task": task}
    merged.update(task_defaults(task))
    for key, raw in entries.items():
        if key == "task":
            continue
        if key == "format":
            merged["fmt"] = None if raw.lower() in ("none", "") else FpFormat.parse(raw)
        elif key == "mode":
            merged["mode"] = AccumMode.parse(raw)
        elif key == "dls":
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError(f"bad boolean {raw!r} for dls")
            merged["dls"] = _BOOL_WORDS[raw.lower()]
        elif key == "dtype":
            merged["dtype"] = raw
        elif key in _INT_KEYS:
            merged[key] = int(raw)
        elif key in _FLOAT_KEYS:
            merged[key] = float(raw)
    return TrainConfig(**merged)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# dynamic loss scaling


class LossScaler:
    """Power-of-two dynamic loss scale with grow/backoff bookkeeping.

    The scale and both factors must be powers of two so that scaling
    and unscaling are exact float operations (barring overflow and
    underflow, which the skip logic is there to catch).
    """

    def __init__(
        self,
        init_scale: float = 2.0**15,
        growth_interval: int = 2000,
        growth_factor: float = 2.0,
        backoff_factor: float = 0.5,
        min_scale: float = 1.0,
        max_scale: float = 2.0**24,
    ) -> None:
        for name, value in (
            ("init_scale", init_scale),
            ("growth_factor", growth_factor),
            ("backoff_factor", backoff_factor),
            ("min_scale", min_scale),
            ("max_scale", max_scale),
        ):
            if value <= 0 or not float(math.log2(value)).is_integer():
                raise ValueError(f"{name} must be a positive power of two, got {value}")
        if growth_factor <= 1:
            raise ValueError("growth_factor must exceed 1")
        if not 0 < backoff_factor < 1:
            raise ValueError("backoff_factor must be in (0, 1)")
        if min_scale > init_scale or init_scale > max_scale:
            raise ValueError("need min_scale <= init_scale <= max_scale")
        if growth_interval < 1:
            raise ValueError("growth_interval must be positive")
        self._scale = float(init_scale)
        self.growth_interval = growth_interval
        self.growth_factor = float(growth_factor)
        self.backoff_factor = float(backoff_factor)
        self.min_scale = float(min_scale)
        self.max_scale = float(max_scale)
        self._good_steps = 0

    @property
    def scale(self) -> float:
        return self._scale

    @property
    def good_steps(self) -> int:
        return self._good_steps

    def backoff(self) -> None:
        """Non-finite gradients seen: halve the scale, reset the streak."""
        self._scale = max(self._scale * self.backoff_factor, self.min_scale)
        self._good_steps = 0

    def advance(self) -> None:
        """A clean step: count it, grow the scale when the streak is long."""
        self._good_steps += 1
        if self._good_steps >= self.growth_interval:
            self._scale = min(self._scale * self.growth_factor, self.max_scale)
            self._good_steps = 0


# ---------------------------------------------------------------------------
# quantization environment shared by the layers


@dataclass
class StepEnv:
    """Per-step bundle of format, accumulate mode and telemetry wiring."""

    fmt: FpFormat | None
    mode: AccumMode
    chunk: int
    dtype: type
    sink: TelemetrySink | None = None
    step: int = 0
    record: bool = False

    def quantize(
        self, x: np.ndarray, tensor_id: str, phase: Phase, log: bool = True
    ) -> np.ndarray:
        if self.fmt is not None:
            out = roundfp_array(x, self.fmt)
        else:
            out = np.asarray(x, dtype=self.dtype)
        if log and self.sink is not None and self.record:
            self.sink.record(
                DenormalStats.from_array(
                    out, self.fmt or BINARY32,
                    tensor_id=tensor_id, phase=phase, step=self.step,
                )
            )
        return out

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.fmt is None and self.dtype is np.float64:
            return a @ b
        fmt = self.fmt or BINARY32
        return matmul(a, b, fmt, mode=self.mode, chunk=self.chunk)

    def matmul_wide(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.fmt is None and self.dtype is np.float64:
            return a @ b
        fmt = self.fmt or BINARY32
        return matmul_wide(a, b, fmt, mode=self.mode, chunk=self.chunk)


def _ordered_sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 with one add per row, ascending index order.

    Overflowed gradients can put inf of both signs in a column; the
    resulting NaN is intentional (the loss-scaling skip logic catches
    it), so the invalid-operand warning is suppressed.
    """
    acc = np.zeros(a.shape[1:], dtype=a.dtype)
    with np.errstate(invalid="ignore"):
        for i in range(a.shape[0]):
            acc = acc + a[i]
    return acc


def _ordered_sum_flat(a: np.ndarray):
    """Scalar sum of all elements in C order, one rounding per add."""
    acc = a.dtype.type(0.0)
    for v in a.ravel():
        acc = acc + v
    return acc


# ---------------------------------------------------------------------------
# layers


class Linear:
    """Fully connected layer; master weights at the working dtype."""

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

    def forward(self, x: np.ndarray, env: StepEnv) -> np.ndarray:
        self._x = x
        wq = env.quantize(self.W, f"{self.name}.weight", Phase.WEIGHT)
        # Bias vectors are quantized like weights but not logged: with a
        # handful of elements their denormal fraction is 0-or-1 noise.
        bq = env.quantize(self.b, f"{self.name}.bias", Phase.WEIGHT, log=False)
        self._wq = wq
        z = env.matmul(x, wq.T)
        s = z + bq[None, :]
        return env.quantize(s, f"{self.name}.act", Phase.FORWARD_ACTIVATION)

    def backward(self, dy: np.ndarray, env: StepEnv, need_dx: bool) -> np.ndarray | None:
        dyq = env.quantize(dy, f"{self.name}.dact", Phase.ACTIVATION_GRADIENT)
        self.dW = env.matmul_wide(dyq.T, self._x)
        self.db = _ordered_sum_rows(dyq)
        if need_dx:
            return env.matmul(dyq, self._wq)
        return None


class Conv3x3:
    """Valid 3x3 convolution on single-channel 8x8 inputs via im2col.

    Inputs arrive flattened to (batch, 64).  The patch matrix has one
    row per output position, so the product with the (channels, 9)
    kernel matrix reuses the exact matmul reduction kernels.  Output is
    flattened to (batch, 6*6*channels) with position-major layout.
    """

    trainable = True

    def __init__(self, name: str, channels: int, rng, dtype) -> None:
        self.name = name
        self.channels = channels
        std = 1.0 / 3.0
        self.W = (rng.standard_normal((channels, 9)) * std).astype(dtype)
        self.b = np.zeros(channels, dtype=dtype)
        self.vW = np.zeros_like(self.W)
        self.vb = np.zeros_like(self.b)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._cols: np.ndarray | None = None

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
        cols = self._im2col(x.reshape(b, 8, 8))
        self._cols = cols
        wq = env.quantize(self.W, f"{self.name}.weight", Phase.WEIGHT)
        bq = env.quantize(self.b, f"{self.name}.bias", Phase.WEIGHT, log=False)
        z = env.matmul(cols, wq.T)
        s = z + bq[None, :]
        sq = env.quantize(s, f"{self.name}.act", Phase.FORWARD_ACTIVATION)
        return sq.reshape(b, 36 * self.channels)

    def backward(self, dy: np.ndarray, env: StepEnv, need_dx: bool) -> np.ndarray | None:
        dyq = env.quantize(dy, f"{self.name}.dact", Phase.ACTIVATION_GRADIENT)
        dz = dyq.reshape(-1, self.channels)
        self.dW = env.matmul_wide(dz.T, self._cols)
        self.db = _ordered_sum_rows(dz)
        if need_dx:
            raise NotImplementedError(
                "input gradient for the conv stem is unused by the bundled tasks"
            )
        return None


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
        out = []
        for layer in self.trainable_layers():
            out.append(layer.dW)
            out.append(layer.db)
        return out

    def params(self) -> list[np.ndarray]:
        out = []
        for layer in self.trainable_layers():
            out.append(layer.W)
            out.append(layer.b)
        return out

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


def build_model(cfg: TrainConfig, data: TaskData) -> Model:
    rng = np.random.default_rng([cfg.seed, 1])
    dtype = np.float32 if cfg.dtype == "float32" else np.float64
    if data.name == "regression":
        return Model([Linear("fc0", 16, 1, rng, dtype)])
    if data.name == "mlp_classify":
        return Model([
            Linear("fc0", 8, 24, rng, dtype),
            ReLU("relu0"),
            Linear("fc1", 24, 3, rng, dtype),
        ])
    if data.name == "cnn_classify":
        return Model([
            Conv3x3("conv0", 3, rng, dtype),
            ReLU("relu0"),
            Linear("fc0", 108, 4, rng, dtype),
        ])
    raise ValueError(f"no model for task {data.name!r}")


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
    s = e[:, 0].copy()
    for j in range(1, c):
        s = s + e[:, j]
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
    scaler = LossScaler(
        init_scale=cfg.init_scale,
        growth_interval=cfg.growth_interval,
        growth_factor=cfg.growth_factor,
        backoff_factor=cfg.backoff_factor,
        min_scale=cfg.min_scale,
        max_scale=cfg.max_scale,
    ) if cfg.dls else None
    dtype = np.float32 if cfg.dtype == "float32" else np.float64

    n = len(data.inputs)
    if cfg.batch_size > n:
        raise ValueError("batch_size exceeds dataset size")
    per_epoch = n // cfg.batch_size

    losses: list[float] = []
    scales: list[float] = []
    skipped: list[bool] = []
    nan_streak = 0
    diverged_early = False
    perm = np.arange(n)

    for step in range(cfg.steps):
        pos = step % per_epoch
        if pos == 0:
            perm = batch_rng.permutation(n)
        idx = perm[pos * cfg.batch_size:(pos + 1) * cfg.batch_size]
        xb = data.inputs[idx]
        yb = data.targets[idx]

        env = StepEnv(
            fmt=cfg.fmt,
            mode=cfg.mode,
            chunk=cfg.chunk,
            dtype=dtype,
            sink=sink,
            step=step,
            record=(step % cfg.telemetry_interval == 0),
        )
        xq = env.quantize(xb, "input", Phase.FORWARD_ACTIVATION)
        out = model.forward(xq, env)
        loss, dout = _loss_and_grad(data.kind, out, yb)
        loss_f = float(loss)
        scale_now = scaler.scale if scaler is not None else 1.0

        if scaler is not None:
            dout = dout * dtype(scale_now)
        model.backward(dout, env)

        skip = False
        if scaler is not None:
            grads = model.grads()
            if all(np.isfinite(g).all() for g in grads):
                inv = dtype(1.0 / scaler.scale)
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


def gradient_check(
    cfg: TrainConfig,
    n_directions: int = 100,
    h: float = 1e-5,
    direction_seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference
    directional derivatives over random unit directions.

    Requires an unquantized float64 config so the finite differences
    are numerically meaningful; uses the first batch at the initial
    weights, where gradient magnitudes are healthy.
    """
    if cfg.fmt is not None or cfg.dtype != "float64":
        raise ValueError("gradient_check needs format=none and dtype=float64")
    data = build_task_data(cfg.task, cfg.seed)
    model = build_model(cfg, data)
    env = StepEnv(fmt=None, mode=cfg.mode, chunk=cfg.chunk, dtype=np.float64)
    xb = data.inputs[: cfg.batch_size]
    yb = data.targets[: cfg.batch_size]

    base = [p.copy() for p in model.params()]
    shapes = [p.shape for p in base]
    sizes = [p.size for p in base]
    flat0 = np.concatenate([p.ravel() for p in base])

    def unflatten(flat: np.ndarray) -> list[np.ndarray]:
        arrays = []
        pos = 0
        for shape, size in zip(shapes, sizes):
            arrays.append(flat[pos:pos + size].reshape(shape))
            pos += size
        return arrays

    def loss_at(flat: np.ndarray) -> float:
        model.set_params(unflatten(flat))
        xq = env.quantize(xb, "input", Phase.FORWARD_ACTIVATION)
        out = model.forward(xq, env)
        loss, _ = _loss_and_grad(data.kind, out, yb)
        return float(loss)

    # analytic gradient at the base point
    model.set_params(unflatten(flat0))
    xq = env.quantize(xb, "input", Phase.FORWARD_ACTIVATION)
    out = model.forward(xq, env)
    _, dout = _loss_and_grad(data.kind, out, yb)
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
    model.set_params(unflatten(flat0))
    return worst
