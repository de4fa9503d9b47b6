"""Seeded minibatch training with AUROC-based model selection."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .data import Dataset, batches
from .hybrid import (
    AdamState,
    HybridModel,
    NonFiniteLogits,
    adam_step,
    cross_entropy,
    model_backward,
    model_forward,
)
from .metrics import (
    MetricRecord,
    accuracy,
    auroc_binary,
    auroc_macro_ovr,
    confusion_matrix,
)
from .seeding import derive_seed


class TrainingAborted(RuntimeError):
    """Training hit a non-finite loss or gradient."""


def evaluate(model: HybridModel, dataset: Dataset, split: str = "test",
             epoch: int = 0) -> MetricRecord:
    """Loss, accuracy, AUROC and confusion matrix over one split, from one
    ``model_forward`` call over all of its rows."""
    labels = dataset.labels
    if not len(labels):
        raise ValueError(f"cannot evaluate on an empty {split} split")
    probs = model_forward(model, dataset.features)
    loss = cross_entropy(probs, labels)
    preds = probs.argmax(axis=1)
    if model.head.n_classes == 2:
        auroc = auroc_binary(probs[:, 1], (labels == 1).astype(int))
    else:
        auroc = auroc_macro_ovr(probs, labels)
    return MetricRecord(
        split=split,
        epoch=epoch,
        loss=loss,
        accuracy=accuracy(preds, labels),
        auroc=auroc,
        confusion=confusion_matrix(preds, labels, model.head.n_classes),
    )


def train(model: HybridModel, train_set: Dataset, val_set: Dataset, *, epochs: int,
          batch_size: int, lr: float, weight_decay: float,
          seed: int) -> tuple[HybridModel, list[MetricRecord]]:
    """Train and return (best model by validation AUROC, metric history).

    Per epoch: seeded shuffle, minibatch steps with batch-averaged
    gradients, then train and val metrics. The model kept is that of the
    ``best_val_record`` epoch.

    Fully deterministic for a given seed; raises TrainingAborted on a
    non-finite loss, or on a non-finite forward pass, batch gradient or
    update.
    """
    if not len(train_set) or not len(val_set):
        raise ValueError("train and val splits must be non-empty")

    adam = AdamState.init(model.theta.shape[0], lr=lr, weight_decay=weight_decay)
    history: list[MetricRecord] = []
    best_model = model

    for epoch in range(1, epochs + 1):
        epoch_seed = derive_seed(seed, "shuffle", epoch)
        for step, rows in enumerate(batches(len(train_set), batch_size, epoch_seed), start=1):
            # a diverging run overflows here; the finiteness checks report it
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    grads = model_backward(model, train_set.features[rows],
                                           train_set.labels[rows])
                except NonFiniteLogits:
                    raise TrainingAborted(
                        f"non-finite forward pass at epoch {epoch}, step {step}") from None
                if not np.all(np.isfinite(grads)):
                    raise TrainingAborted(f"non-finite gradient at epoch {epoch}, step {step}")
                theta, adam = adam_step(adam, model.theta, grads)
                if not np.all(np.isfinite(theta)):
                    raise TrainingAborted(
                        f"non-finite parameters at epoch {epoch}, step {step}")
            model = replace(model, theta=theta)

        train_rec = evaluate(model, train_set, "train", epoch)
        val_rec = evaluate(model, val_set, "val", epoch)
        if not (math.isfinite(train_rec.loss) and math.isfinite(val_rec.loss)):
            raise TrainingAborted(
                f"non-finite loss at epoch {epoch} "
                f"(train {train_rec.loss!r}, val {val_rec.loss!r})"
            )
        history += [train_rec, val_rec]
        if best_val_record(history) is val_rec:
            best_model = model

    return best_model, history


def best_val_record(history) -> MetricRecord:
    """The selected validation record: highest AUROC, ties keep the earliest."""
    val = [rec for rec in history if rec.split == "val"]
    if not val:
        raise ValueError("history contains no validation records")
    return max(val, key=lambda rec: rec.auroc)  # max keeps the first of equals
