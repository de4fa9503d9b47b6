"""Full-model gradient self-check against central finite differences."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .hybrid import HybridModel, cross_entropy, model_backward, model_forward


def finite_difference_grads(model: HybridModel, features, label: int,
                            h: float = 1e-5) -> np.ndarray:
    """Central differences of the cross-entropy loss over every parameter."""
    base = model.theta
    grads = np.empty_like(base)
    for i in range(base.shape[0]):
        probe = base.copy()
        probe[i] = base[i] + h
        up = cross_entropy(model_forward(replace(model, theta=probe), features), label)
        probe[i] = base[i] - h
        down = cross_entropy(model_forward(replace(model, theta=probe), features), label)
        grads[i] = (up - down) / (2.0 * h)
    return grads


def max_discrepancy(analytic, numeric, floor: float = 1e-3) -> float:
    """Largest per-parameter relative difference, floored for tiny gradients."""
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / scale))


def run_grad_check(model: HybridModel, features, label: int, h: float = 1e-5) -> float:
    """Max relative discrepancy between analytic and numeric gradients."""
    analytic = model_backward(model, features, label)
    numeric = finite_difference_grads(model, features, label, h=h)
    return max_discrepancy(analytic, numeric)
