"""Bundled toy workloads for the training harness.

Three synthetic tasks, all generated deterministically from a seed:

* ``regression``: linear regression on Gaussian features with small-
  magnitude targets, so late-training activation gradients sweep down
  into the denormal band of the 16-bit formats.
* ``mlp_classify``: three Gaussian blobs in 8 dimensions, a small MLP.
* ``cnn_classify``: four oriented patterns on 8x8 images, a 3x3 conv
  stem plus a linear head (the conv is lowered to a matmul via im2col).

``_TASKS`` states each task once: its example count, layer widths, data
builder and defaults.  A ``TrainConfig`` field that a config leaves
unset, in the CLI or in Python, takes the task's default.  The loss
thresholds are ones a binary32 run comfortably meets, the same for
every format so runs are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["TaskData", "TASK_NAMES", "TASK_SIZES", "build_task_data", "task_defaults"]


@dataclass
class TaskData:
    name: str
    kind: str                  # "regression" or "classify"
    inputs: np.ndarray         # (n, features) float32
    targets: np.ndarray        # regression: (n, out) float32; classify: (n,) int64
    layout: tuple[int, ...]    # layer widths, conv handled by name


def _regression_data(rng: np.random.Generator, n: int, layout: tuple[int, ...]):
    d, out = layout
    x = rng.standard_normal((n, d)).astype(np.float32)
    w_true = (rng.standard_normal((d, out)) * 0.5).astype(np.float32)
    noise = (rng.standard_normal((n, out)) * 0.01).astype(np.float32)
    # Target scale 2^-6 puts converged residual gradients a few binades
    # below 2^-14, inside the 1/5/10 denormal band; the noise floor is
    # high enough that format rounding noise is a sub-percent effect on
    # the converged loss.
    y = (x @ w_true) * np.float32(2.0**-6) + noise * np.float32(2.0**-6)
    return x, y.astype(np.float32)


def _shuffled_classes(rng: np.random.Generator, per_class: list[np.ndarray]):
    """The examples of classes 0, 1, ... and their labels, in one random order."""
    x = np.concatenate(per_class, axis=0)
    y = np.repeat(np.arange(len(per_class), dtype=np.int64), [len(a) for a in per_class])
    perm = rng.permutation(len(x))
    return x[perm], y[perm]


def _blobs_data(rng: np.random.Generator, n: int, layout: tuple[int, ...]):
    d, c = layout[0], layout[-1]
    centers = rng.standard_normal((c, d)).astype(np.float32) * np.float32(2.0)
    return _shuffled_classes(rng, [
        centers[cls] + rng.standard_normal((n // c, d)).astype(np.float32) * np.float32(0.35)
        for cls in range(c)])


def _images_data(rng: np.random.Generator, n: int, layout: tuple[int, ...]):
    c = layout[-1]
    protos = np.zeros((c, 8, 8), dtype=np.float32)
    protos[0, 3:5, :] = 1.0          # horizontal bar
    protos[1, :, 3:5] = 1.0          # vertical bar
    for i in range(8):               # diagonal
        protos[2, i, i] = 1.0
        protos[2, i, min(i + 1, 7)] = 1.0
    protos[3, 2:6, 2:6] = 1.0        # centered square
    imgs = [protos[cls] + rng.standard_normal((n // c, 8, 8)).astype(np.float32) * np.float32(0.25)
            for cls in range(c)]
    return _shuffled_classes(rng, [a.reshape(n // c, -1) for a in imgs])


@dataclass(frozen=True)
class _Task:
    size: int                          # examples, known before the data is built
    layout: tuple[int, ...]
    kind: str
    build: Callable                    # (rng, size, layout) -> (inputs, targets)
    defaults: dict[str, object]        # the task's values of TrainConfig fields


_TASKS = {
    "regression": _Task(256, (16, 1), "regression", _regression_data, dict(
        steps=600, batch_size=32, lr=0.05, momentum=0.0, converged_loss=1e-7, degraded_loss=2e-6)),
    "mlp_classify": _Task(384, (8, 24, 3), "classify", _blobs_data, dict(
        steps=500, batch_size=32, lr=0.08, momentum=0.9, converged_loss=0.05, degraded_loss=0.5)),
    "cnn_classify": _Task(256, (64, 3, 4), "classify", _images_data, dict(
        steps=500, batch_size=32, lr=0.05, momentum=0.9, converged_loss=0.08, degraded_loss=0.5)),
}
TASK_NAMES = tuple(_TASKS)
TASK_SIZES = {name: task.size for name, task in _TASKS.items()}


def _task(name: str) -> _Task:
    if name not in _TASKS:
        raise ValueError(f"unknown task {name!r}; expected one of {TASK_NAMES}")
    return _TASKS[name]


def build_task_data(name: str, seed: int) -> TaskData:
    task = _task(name)
    x, y = task.build(np.random.default_rng(seed), task.size, task.layout)
    return TaskData(name, task.kind, x, y, task.layout)


def task_defaults(name: str) -> dict[str, object]:
    """The task's values of the TrainConfig fields that a config leaves unset."""
    return dict(_task(name).defaults)
