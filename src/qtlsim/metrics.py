"""Classification metrics: accuracy, AUROC, confusion matrix."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MetricRecord:
    split: str
    epoch: int
    loss: float
    accuracy: float
    auroc: float
    confusion: np.ndarray = field(repr=False)


def accuracy(pred_labels, true_labels) -> float:
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape or pred.shape[0] < 1:
        raise ValueError(f"length mismatch: {pred.shape} vs {true.shape}")
    return float(np.mean(pred == true))


def confusion_matrix(pred_labels, true_labels, n_classes: int) -> np.ndarray:
    """Counts with true class on rows, predicted class on columns."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {true.shape}")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (true, pred), 1)
    return out


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their midrank."""
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], n] - 1
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auroc_binary(scores, labels) -> float:
    """P(random positive outranks random negative), ties counted 0.5.

    Mann-Whitney rank form, O(n log n). Raises on single-class input
    rather than returning NaN.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"scores/labels shape mismatch: {s.shape} vs {y.shape}")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = s.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC undefined: both classes must be present")
    ranks = _midranks(s)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auroc_macro_ovr(probs, labels) -> float:
    """Unweighted mean of per-class one-vs-rest AUROCs."""
    p = np.asarray(probs, dtype=float)
    y = np.asarray(labels)
    if p.ndim != 2 or p.shape[0] != y.shape[0]:
        raise ValueError(f"probs shape {p.shape} does not match {y.shape[0]} labels")
    n_classes = p.shape[1]
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    per_class = []
    for c in range(n_classes):
        members = (y == c).astype(int)
        if members.sum() == 0:
            raise ValueError(f"class {c} missing from labels")
        per_class.append(auroc_binary(p[:, c], members))
    return float(np.mean(per_class))
