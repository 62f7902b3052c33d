"""Backpropagation verification against central finite differences."""

from __future__ import annotations

import numpy as np

from mtnorm.neural.model import (
    ClassifierConfig,
    EncoderParams,
    TrainingBatch,
    batch_loss_and_grads,
)


def gradient_check(
    params: EncoderParams,
    batch: TrainingBatch,
    config: ClassifierConfig,
    eps: float = 1e-4,
    coords_per_tensor: int = 8,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and numeric gradients.

    Samples ``coords_per_tensor`` coordinates from every parameter tensor
    (all of them for small tensors) and compares the analytic gradient to
    (L(th+eps) - L(th-eps)) / 2 eps at each.
    """
    rng = np.random.default_rng(seed)
    _, grads, _ = batch_loss_and_grads(params, batch, config)
    worst = 0.0
    for name, tensor in params.tensors().items():
        flat = tensor.reshape(-1)
        n = flat.size
        picks = np.arange(n) if n <= coords_per_tensor else rng.choice(n, coords_per_tensor, replace=False)
        for idx in picks:
            original = flat[idx]
            flat[idx] = original + eps
            up = batch_loss_and_grads(params, batch, config)[0]
            flat[idx] = original - eps
            down = batch_loss_and_grads(params, batch, config)[0]
            flat[idx] = original
            numeric = (up - down) / (2.0 * eps)
            analytic = grads[name].reshape(-1)[idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst
