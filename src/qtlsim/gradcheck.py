"""Full-model gradient self-check against central finite differences."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .hybrid import HybridModel, cross_entropy, model_backward, model_forward

FD_STEP = 1e-5  # central-difference step h
DISCREPANCY_FLOOR = 1e-3  # gradients below this compare by absolute difference


def finite_difference_grads(model: HybridModel, features, label: int) -> np.ndarray:
    """Central differences of the cross-entropy loss over every parameter."""
    base = model.theta
    row = np.asarray(features, dtype=float)[None]
    grads = np.empty_like(base)
    for i in range(base.shape[0]):
        probe = base.copy()
        probe[i] = base[i] + FD_STEP
        up = cross_entropy(model_forward(replace(model, theta=probe), row), [label])
        probe[i] = base[i] - FD_STEP
        down = cross_entropy(model_forward(replace(model, theta=probe), row), [label])
        grads[i] = (up - down) / (2.0 * FD_STEP)
    return grads


def max_discrepancy(analytic, numeric) -> float:
    """Largest per-parameter relative difference, floored for tiny gradients."""
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), DISCREPANCY_FLOOR)
    return float(np.max(np.abs(a - n) / scale))


def run_grad_check(model: HybridModel, features, label: int) -> float:
    """Max relative discrepancy between analytic and numeric gradients."""
    analytic = model_backward(model, np.asarray(features, dtype=float)[None], [label])
    numeric = finite_difference_grads(model, features, label)
    return max_discrepancy(analytic, numeric)
