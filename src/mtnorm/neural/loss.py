"""Focal loss on softmax probabilities.

The loss scales cross-entropy by (1-p)^gamma so confidently-correct
examples contribute almost nothing, which keeps the frequent easy
patterns from drowning out the rare ones. alpha=1, gamma=0 recovers
plain cross-entropy exactly.
"""

from __future__ import annotations

import numpy as np

P_EPS = 1e-7


def clamp_p(p):
    return np.clip(p, P_EPS, 1.0 - P_EPS)


def focal_loss_vec(p: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    """Vectorized y=1 branch over target-label probabilities."""
    p = clamp_p(p)
    return -alpha * (1.0 - p) ** gamma * np.log(p)


def focal_loss_grad(p: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    """d(focal y=1)/dp, zero where the clamp is active (matches forward)."""
    raw = np.asarray(p, dtype=float)
    p = clamp_p(raw)
    if gamma == 0.0:
        grad = -alpha / p
    else:
        grad = alpha * (1.0 - p) ** (gamma - 1.0) * (gamma * np.log(p) - (1.0 - p) / p)
    return np.where((raw > P_EPS) & (raw < 1.0 - P_EPS), grad, 0.0)
