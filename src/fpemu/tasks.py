"""Bundled toy workloads for the training harness.

Three synthetic tasks, all generated deterministically from a seed:

* ``regression``: linear regression on Gaussian features with small-
  magnitude targets, so late-training activation gradients sweep down
  into the denormal band of the 16-bit formats.
* ``mlp_classify``: three Gaussian blobs in 8 dimensions, a small MLP.
* ``cnn_classify``: four oriented patterns on 8x8 images, a 3x3 conv
  stem plus a linear head (the conv is lowered to a matmul via im2col).

Each task carries default hyperparameters and loss thresholds that a
binary32 run comfortably meets; degraded/diverged classification uses
the same thresholds for every format so runs are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TaskData", "TASK_NAMES", "TASK_SIZES", "build_task_data", "task_defaults"]

TASK_NAMES = ("regression", "mlp_classify", "cnn_classify")
# Examples in each task's data set, known before the data is built so a
# config can be checked against it.
TASK_SIZES = {"regression": 256, "mlp_classify": 384, "cnn_classify": 256}


@dataclass
class TaskData:
    name: str
    kind: str                  # "regression" or "classify"
    inputs: np.ndarray         # (n, features) float32
    targets: np.ndarray        # regression: (n, out) float32; classify: (n,) int64
    layout: tuple[int, ...]    # layer widths, conv handled by name


def _regression_data(rng: np.random.Generator) -> TaskData:
    n, d = 256, 16
    x = rng.standard_normal((n, d)).astype(np.float32)
    w_true = (rng.standard_normal((d, 1)) * 0.5).astype(np.float32)
    noise = (rng.standard_normal((n, 1)) * 0.01).astype(np.float32)
    # Target scale 2^-6 puts converged residual gradients a few binades
    # below 2^-14, inside the 1/5/10 denormal band; the noise floor is
    # high enough that format rounding noise is a sub-percent effect on
    # the converged loss.
    y = (x @ w_true) * np.float32(2.0**-6) + noise * np.float32(2.0**-6)
    return TaskData("regression", "regression", x, y.astype(np.float32), (16, 1))


def _blobs_data(rng: np.random.Generator) -> TaskData:
    n_per, d, c = 128, 8, 3
    centers = rng.standard_normal((c, d)).astype(np.float32) * np.float32(2.0)
    xs, ys = [], []
    for cls in range(c):
        pts = centers[cls] + rng.standard_normal((n_per, d)).astype(np.float32) * np.float32(0.35)
        xs.append(pts.astype(np.float32))
        ys.append(np.full(n_per, cls, dtype=np.int64))
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys, axis=0)
    perm = rng.permutation(len(x))
    return TaskData("mlp_classify", "classify", x[perm], y[perm], (8, 24, 3))


def _images_data(rng: np.random.Generator) -> TaskData:
    n_per, c = 64, 4
    protos = np.zeros((c, 8, 8), dtype=np.float32)
    protos[0, 3:5, :] = 1.0          # horizontal bar
    protos[1, :, 3:5] = 1.0          # vertical bar
    for i in range(8):               # diagonal
        protos[2, i, i] = 1.0
        protos[2, i, min(i + 1, 7)] = 1.0
    protos[3, 2:6, 2:6] = 1.0        # centered square
    xs, ys = [], []
    for cls in range(c):
        noise = rng.standard_normal((n_per, 8, 8)).astype(np.float32) * np.float32(0.25)
        imgs = protos[cls][None, :, :] + noise
        xs.append(imgs.reshape(n_per, 64).astype(np.float32))
        ys.append(np.full(n_per, cls, dtype=np.int64))
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys, axis=0)
    perm = rng.permutation(len(x))
    return TaskData("cnn_classify", "classify", x[perm], y[perm], (64, 3, 4))


def build_task_data(name: str, seed: int) -> TaskData:
    rng = np.random.default_rng(seed)
    if name == "regression":
        return _regression_data(rng)
    if name == "mlp_classify":
        return _blobs_data(rng)
    if name == "cnn_classify":
        return _images_data(rng)
    raise ValueError(f"unknown task {name!r}; expected one of {TASK_NAMES}")


def task_defaults(name: str) -> dict[str, object]:
    """Per-task defaults layered under the global config defaults."""
    if name == "regression":
        return {
            "steps": 600,
            "batch_size": 32,
            "lr": 0.05,
            "momentum": 0.0,
            "converged_loss": 1e-7,
            "degraded_loss": 2e-6,
        }
    if name == "mlp_classify":
        return {
            "steps": 500,
            "batch_size": 32,
            "lr": 0.08,
            "momentum": 0.9,
            "converged_loss": 0.05,
            "degraded_loss": 0.5,
        }
    if name == "cnn_classify":
        return {
            "steps": 500,
            "batch_size": 32,
            "lr": 0.05,
            "momentum": 0.9,
            "converged_loss": 0.08,
            "degraded_loss": 0.5,
        }
    raise ValueError(f"unknown task {name!r}; expected one of {TASK_NAMES}")
