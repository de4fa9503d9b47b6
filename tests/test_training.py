"""Training loop: convergence, determinism, model selection, aborts."""
from dataclasses import replace

import math

import numpy as np
import pytest

import qtlsim.training as training_mod
from qtlsim.data import SplitSpec, balanced_group_split, synth_dataset
from qtlsim.hybrid import Head, init_model, model_backward, model_forward
from qtlsim.metrics import MetricRecord
from qtlsim.seeding import substream
from qtlsim.training import TrainingAborted, best_val_record, evaluate, train

from oracle import reference_train


def separable_splits(seed=7, n_per_class=30, dim=32, separation=8.0):
    ds = synth_dataset(n_per_class, 2, dim, separation, seed=seed)
    return balanced_group_split(ds, SplitSpec(seed=seed))


def tiny_model(seed=7, dim=32):
    return init_model(Head("dqc", "angle", 4, 1, 2, dim), substream(seed, "init"))


def test_training_learns_separable_data():
    train_set, val_set, _ = separable_splits()
    best, history = train(tiny_model(), train_set, val_set,
                          epochs=20, batch_size=8, lr=3e-3, weight_decay=0.01, seed=7)
    train_acc = [r.accuracy for r in history if r.split == "train"]
    assert max(train_acc) >= 0.95
    val_best = max(r.auroc for r in history if r.split == "val")
    assert val_best >= 0.9


def test_training_is_deterministic():
    train_set, val_set, _ = separable_splits(seed=3)
    runs = []
    for _ in range(2):
        _, history = train(tiny_model(seed=3), train_set, val_set,
                           epochs=3, batch_size=8, lr=1e-3, weight_decay=0.01, seed=3)
        runs.append([(r.split, r.epoch, r.loss, r.accuracy, r.auroc) for r in history])
    assert runs[0] == runs[1]  # bitwise-identical metric histories


def test_full_batch_gd_loss_non_increasing():
    """Sanity check of the gradient: ten plain full-batch gradient-descent
    steps, theta <- theta - 0.05 * grad, never raise the train loss."""
    train_set, _, _ = separable_splits(seed=5)
    model = tiny_model(seed=5)
    losses = []
    for _ in range(10):
        grads = model_backward(model, train_set.features, train_set.labels)
        model = replace(model, theta=model.theta - 0.05 * grads)
        losses.append(evaluate(model, train_set, "train").loss)
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-9


def test_best_model_selected_by_val_auroc():
    train_set, val_set, _ = separable_splits(seed=11)
    best, history = train(tiny_model(seed=11), train_set, val_set,
                          epochs=5, batch_size=8, lr=1e-3, weight_decay=0.01, seed=11)
    best_rec = best_val_record(history)
    assert best_rec.auroc == max(r.auroc for r in history if r.split == "val")
    # the returned model reproduces exactly the recorded best-epoch metrics
    recheck = evaluate(best, val_set, "val", best_rec.epoch)
    assert recheck.loss == best_rec.loss
    assert recheck.auroc == best_rec.auroc


def test_best_val_record_tie_keeps_earlier():
    def rec(epoch, auroc):
        return MetricRecord("val", epoch, 0.5, 0.5, auroc, np.zeros((2, 2), dtype=int))

    history = [rec(1, 0.7), rec(2, 0.9), rec(3, 0.9), rec(4, 0.8)]
    assert best_val_record(history) is history[1]
    with pytest.raises(ValueError, match="no validation records"):
        best_val_record([replace(r, split="train") for r in history])


def test_train_keeps_the_model_of_the_selected_epoch(monkeypatch):
    """With scripted val AUROCs 0.7, 0.9, 0.9, 0.8, the tie at epoch 3 and
    the drop at epoch 4 keep epoch 2's model: a four-epoch run returns,
    byte for byte, the model a two-epoch run ends with."""
    train_set, val_set, _ = separable_splits(seed=11)
    scripted = [0.7, 0.9, 0.9, 0.8]

    def scripted_evaluate(model, dataset, split="test", epoch=0):
        rec = evaluate(model, dataset, split, epoch)
        return replace(rec, auroc=scripted[epoch - 1]) if split == "val" else rec

    def run(epochs):
        return train(tiny_model(seed=11), train_set, val_set, epochs=epochs, batch_size=8,
                     lr=1e-3, weight_decay=0.01, seed=11)

    monkeypatch.setattr(training_mod, "evaluate", scripted_evaluate)
    two, _ = run(2)
    four, history = run(4)
    assert [r.auroc for r in history if r.split == "val"] == [0.7, 0.9, 0.9, 0.8]
    assert four.theta.tobytes() == two.theta.tobytes()
    scripted = [0.1, 0.2, 0.3, 0.4]  # rising: the last epoch's model, which moved on
    assert run(4)[0].theta.tobytes() != two.theta.tobytes()


@pytest.mark.parametrize("mode, embedding, n_qubits, n_classes, in_dim, separation, seed", [
    ("dqc", "angle", 2, 2, 6, 2.0, 2),  # val AUROC 0.5, 0.75, 0.75: a tie after the best
    ("dqc", "dense_angle", 2, 2, 6, 2.0, 13),  # 0.5, 0.75, 0.5: a drop after it
    ("purevqc", "amplitude", 3, 3, 8, 1.0, 8),  # 0.625, 0.667, 0.625: a drop after it
])
def test_train_matches_the_reference_training_run(mode, embedding, n_qubits, n_classes,
                                                  in_dim, separation, seed):
    """Three epochs of depth-2 heads, trained by ``train`` and by the
    row-by-row reference run (parameter-shift gradients chained by hand,
    textbook Adam, pair-count AUROC): the same val AUROCs, the same selected
    epoch and theta within 1e-9."""
    ds = synth_dataset(12, n_classes, in_dim, separation, seed=seed)
    train_set, val_set, _ = balanced_group_split(ds, SplitSpec(seed=seed))
    model = init_model(Head(mode, embedding, n_qubits, 2, n_classes, in_dim),
                       substream(seed, "init"))
    settings = dict(epochs=3, batch_size=4, lr=0.05, weight_decay=0.01, seed=seed)
    theta, best_epoch, aurocs = reference_train(model, train_set, val_set, **settings)
    best, history = train(model, train_set, val_set, **settings)
    assert [r.auroc for r in history if r.split == "val"] == pytest.approx(aurocs, abs=1e-12)
    assert best_val_record(history).epoch == best_epoch == 2
    assert np.max(np.abs(best.theta - theta)) <= 1e-9


def test_empty_split_rejected():
    train_set, val_set, _ = separable_splits()
    with pytest.raises(ValueError, match="non-empty"):
        train(tiny_model(), train_set.subset([]), val_set, epochs=1, batch_size=8, lr=1e-4,
              weight_decay=0.01, seed=0)
    with pytest.raises(ValueError, match="empty"):
        evaluate(tiny_model(), val_set.subset([]))


def test_nan_loss_aborts_with_diagnostic(monkeypatch):
    train_set, val_set, _ = separable_splits()

    def poisoned_evaluate(model, dataset, split="test", epoch=0):
        return MetricRecord(split, epoch, float("nan"), 0.0, 0.5,
                            np.zeros((2, 2), dtype=int))

    monkeypatch.setattr(training_mod, "evaluate", poisoned_evaluate)
    with pytest.raises(TrainingAborted, match="non-finite loss"):
        training_mod.train(tiny_model(), train_set, val_set,
                           epochs=1, batch_size=8, lr=1e-4, weight_decay=0.01, seed=0)


def test_batch_gradient_is_mean_of_sample_gradients():
    train_set, _, _ = separable_splits(seed=13)
    model = tiny_model(seed=13)
    rows = np.array([5, 0, 3, 1])
    averaged = model_backward(model, train_set.features[rows], train_set.labels[rows])
    singles = [model_backward(model, train_set.features[[i]], train_set.labels[[i]])
               for i in rows]
    np.testing.assert_allclose(averaged, np.mean(singles, axis=0), atol=1e-15)


def test_evaluate_perfect_and_uniform_models():
    train_set, val_set, _ = separable_splits(seed=17)
    best, _ = train(tiny_model(seed=17), train_set, val_set,
                    epochs=15, batch_size=8, lr=1e-3, weight_decay=0.01, seed=17)
    rec = evaluate(best, train_set)
    if rec.accuracy == 1.0:
        assert rec.auroc == 1.0
        assert np.trace(rec.confusion) == len(train_set)
    # fresh model with zeroed parameters predicts uniformly
    zero = replace(tiny_model(), theta=np.zeros_like(tiny_model().theta))
    balanced = evaluate(zero, train_set)
    assert abs(balanced.accuracy - 0.5) <= 0.5  # defined, no crash
    assert balanced.auroc == 0.5  # all scores identical -> tie convention


def test_evaluate_confusion_matrix_hand_case():
    from qtlsim.data import Dataset

    model = tiny_model()
    # saturate the post layer (the last 2*4 + 2 parameters) so the
    # prediction is always class 0
    theta = model.theta.copy()
    theta[-10:] = [0.0] * 8 + [5.0, 0.0]
    model = replace(model, theta=theta)
    dataset = Dataset(np.ones((4, 32)), [0, 0, 1, 1], ["g0", "g1", "g2", "g3"],
                      ("class0", "class1"))
    rec = evaluate(model, dataset)
    np.testing.assert_array_equal(rec.confusion, [[2, 0], [2, 0]])
    assert rec.accuracy == 0.5


def test_evaluate_loss_is_the_mean_per_row_cross_entropy():
    """On a 3-class head, fresh and with a saturated post-layer whose
    probabilities hit the 1e-12 clamp, the loss equals the mean of the
    per-row -ln p[label], each clamped at 1e-12, exactly; a label the head
    has no class for raises."""
    from qtlsim.data import Dataset

    ds = synth_dataset(10, 3, 32, 4.0, seed=19)
    fresh = init_model(Head("dqc", "dense_angle", 4, 1, 3, 32), substream(19, "init"))
    theta = fresh.theta.copy()
    theta[-3:] = [1000.0, 0.0, 0.0]  # post_b: class 0 takes all the mass
    for model in (fresh, replace(fresh, theta=theta)):
        probs = model_forward(model, ds.features)
        per_row = [-math.log(max(float(probs[i, ds.labels[i]]), 1e-12)) for i in range(len(ds))]
        assert evaluate(model, ds).loss == float(np.mean(per_row))
    four = Dataset(ds.features, np.where(ds.labels == 2, 3, ds.labels), ds.group_ids,
                   ds.class_names + ("extra",))
    with pytest.raises(ValueError, match="label 3 out of range for 3 classes"):
        evaluate(fresh, four)
