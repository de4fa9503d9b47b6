"""Classifier heads: forward math, analytic gradients, Adam, bookkeeping."""
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qtlsim.hybrid
import qtlsim.sim
from qtlsim.hybrid import (
    AdamState,
    Head,
    HybridModel,
    adam_step,
    count_parameters,
    cross_entropy,
    init_model,
    model_backward,
    model_forward,
    softmax,
)
from qtlsim.seeding import substream

from oracle import finite_diff, reference_forward


def small_dqc(seed=0, embedding="angle", n_qubits=4, depth=1, n_classes=2, in_dim=16):
    rng = substream(seed, "init")
    return init_model(Head("dqc", embedding, n_qubits, depth, n_classes, in_dim), rng)


def small_purevqc(seed=0, n_qubits=4, depth=1, n_classes=2, in_dim=16):
    rng = substream(seed, "init")
    return init_model(Head("purevqc", "amplitude", n_qubits, depth, n_classes, in_dim), rng)


def with_blocks(model, **blocks):
    """Copy of ``model`` with the named parameter blocks overwritten."""
    theta = model.theta.copy()
    start = 0
    for name, shape in model.head.layout:
        size = math.prod(shape)
        if name in blocks:
            theta[start : start + size] = np.ravel(blocks[name])
        start += size
    return replace(model, theta=theta)


# --- softmax / cross-entropy ---------------------------------------------

def test_softmax_uniform():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_log_two():
    np.testing.assert_allclose(softmax([math.log(2), 0.0]), [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_no_overflow():
    p = softmax([1000.0, 0.0])
    assert np.all(np.isfinite(p))
    assert abs(p[0] - 1.0) < 1e-12 and p[1] >= 0.0
    assert abs(p.sum() - 1.0) < 1e-12


def test_cross_entropy_values():
    assert cross_entropy([[1.0, 0.0]], [0]) < 1e-9
    assert abs(cross_entropy([[0.5, 0.5]], [1]) - math.log(2)) < 1e-12
    assert cross_entropy([[1.0, 0.0], [0.2, 0.8]], [1, 0]) == \
        (-math.log(1e-12) - math.log(0.2)) / 2  # clamped, then the batch mean
    for bad in (2, -1):  # n_classes, and a negative label
        with pytest.raises(ValueError, match=f"label {bad} out of range for 2 classes"):
            cross_entropy([[0.5, 0.5], [0.5, 0.5]], [0, bad])


def test_softmax_cross_entropy_gradient_is_probs_minus_onehot():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal(4)
    label = 2
    analytic = softmax(logits).copy()
    analytic[label] -= 1.0
    numeric = finite_diff(lambda z: cross_entropy(softmax(z)[None], [label]), logits)
    assert np.max(np.abs(analytic - numeric)) < 1e-7


# --- model construction / invariants -------------------------------------

def test_dqc_layer_shapes():
    m = small_dqc()
    assert m.blocks["pre_w"].shape == (4, 16) and m.blocks["pre_b"].shape == (4,)
    assert m.blocks["post_w"].shape == (2, 4) and m.blocks["post_b"].shape == (2,)
    m2 = small_dqc(embedding="dense_angle")
    assert m2.blocks["pre_w"].shape == (8, 16)  # two features per qubit
    assert [name for name, _ in m.head.layout] == ["pre_w", "pre_b", "q", "post_w", "post_b"]
    assert [name for name, _ in small_purevqc().head.layout] == ["q"]


def test_theta_length_and_finiteness_checked():
    """theta must match the layout exactly and hold only finite values."""
    head = Head("dqc", "angle", 4, 1, 2, 16)
    n = sum(math.prod(shape) for _, shape in head.layout)
    assert n == 4 * 16 + 4 + 4 + 2 * 4 + 2
    with pytest.raises(ValueError, match="parameters"):
        HybridModel(head, np.zeros(n - 1))
    with pytest.raises(ValueError, match="parameters"):  # purevqc has no dense blocks
        HybridModel(Head("purevqc", "amplitude", 4, 1, 2, 16), np.zeros(4 + 10))
    bad = np.zeros(n)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        HybridModel(head, bad)


def test_class_names_checked():
    """Empty, or one distinct, non-empty, single-line name per class."""
    m = small_dqc()
    assert m.class_names == ()
    assert replace(m, class_names=["a", "b"]).class_names == ("a", "b")
    for bad in (["a"], ["a", "a"], ["a", ""], ["a", "b\nc"]):
        with pytest.raises(ValueError, match="class_names"):
            replace(m, class_names=bad)


def test_blocks_are_read_only_views_of_theta():
    m = small_dqc(seed=2)
    assert not m.theta.flags.writeable
    for block in m.blocks.values():
        assert np.shares_memory(block, m.theta)
        with pytest.raises(ValueError):
            block[...] = 0.0


def test_purevqc_qubit_count_must_fit_features():
    with pytest.raises(ValueError, match="qubits"):
        Head("purevqc", "amplitude", 5, 1, 2, 16)


def test_purevqc_one_qubit_per_class():
    with pytest.raises(ValueError, match="per class"):
        Head("purevqc", "amplitude", 4, 1, 5, 16)


def test_dqc_requires_angle_embedding():
    with pytest.raises(ValueError, match="dqc"):
        small_dqc(embedding="amplitude")


def test_parameter_counts_dqc_8q_3c():
    """512*8+8 pre + 8*3+3 post = 4131 classical, n_qubits*depth quantum."""
    for depth in (1, 2, 4):
        m = init_model(Head("dqc", "angle", 8, depth, 3, 512), substream(0, "init"))
        classical, quantum = count_parameters(m)
        assert classical == 512 * 8 + 8 + 8 * 3 + 3 == 4131
        assert quantum == 8 * depth
        assert classical > quantum


def test_parameter_vector_round_trip():
    m = small_dqc(seed=3)
    assert m.theta.shape[0] == sum(count_parameters(m))
    rng = np.random.default_rng(4)
    fresh = rng.standard_normal(m.theta.shape[0])
    m3 = replace(m, theta=fresh)
    np.testing.assert_array_equal(m3.theta, fresh)
    np.testing.assert_array_equal(m3.blocks["pre_w"].reshape(-1), fresh[:64])
    np.testing.assert_array_equal(m3.blocks["q"], fresh[68:72])
    np.testing.assert_array_equal(m3.blocks["post_b"], fresh[-2:])
    fresh[0] = 123.0  # the model keeps its own copy
    assert m3.theta[0] != 123.0


# --- forward -------------------------------------------------------------

def test_purevqc_uniform_features_give_uniform_prediction():
    m = small_purevqc()
    m = replace(m, theta=np.zeros(m.theta.shape[0]))
    probs = model_forward(m, np.ones((1, 16)))
    np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-12)


def test_dqc_zero_parameters_hand_check():
    m = small_dqc()
    m = replace(m, theta=np.zeros(m.theta.shape[0]))
    # pre output 0 -> angles 0 -> identity embedding -> all <Z> = 1;
    # post is zero too, so logits are 0 and the prediction is uniform.
    probs = model_forward(m, np.ones((1, 16)))
    np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-12)


def test_dqc_zero_quantum_path_feeds_post_layer():
    m = with_blocks(small_dqc(), pre_w=np.zeros((4, 16)), pre_b=np.zeros(4), q=np.zeros(4),
                    post_w=[[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]],
                    post_b=[0.5, 0.0])
    probs = model_forward(m, np.ones((1, 16)))
    # all <Z> = 1, so logits = (1+2+3+4+0.5, 0) = (10.5, 0)
    np.testing.assert_allclose(probs, [softmax([10.5, 0.0])], atol=1e-12)


def test_forward_returns_distribution():
    rng = np.random.default_rng(5)
    for seed in range(3):
        for m in (small_dqc(seed=seed), small_purevqc(seed=seed),
                  small_dqc(seed=seed, embedding="dense_angle")):
            probs = model_forward(m, rng.standard_normal((3, 16)))
            assert probs.shape == (3, 2) and np.all(probs > 0)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)


def test_forward_checks_feature_width():
    with pytest.raises(ValueError, match="features"):
        model_forward(small_dqc(), np.zeros((1, 17)))
    with pytest.raises(ValueError, match="features"):
        model_forward(small_dqc(), np.zeros(16))  # one row is a (1, in_dim) batch


# --- backward ------------------------------------------------------------

def end_to_end_check(model, features, label):
    analytic = model_backward(model, features[None], [label])

    def loss(vec):
        return cross_entropy(model_forward(replace(model, theta=vec), features[None]), [label])

    numeric = finite_diff(loss, model.theta)
    bound = 1e-5 * np.maximum(np.abs(analytic), np.abs(numeric)) + 1e-7
    assert np.all(np.abs(analytic - numeric) <= bound), (
        f"worst {np.max(np.abs(analytic - numeric) - bound)}"
    )


def test_dqc_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    end_to_end_check(small_dqc(seed=7), rng.standard_normal(16), 1)


def test_dense_angle_gradients_match_finite_differences():
    """At depth 1, where every rotation is in the product prefix, and at
    depth 2, whose second layer of rotations runs through the kernel."""
    rng = np.random.default_rng(7)
    for n_qubits, depth in ((4, 1), (5, 2)):
        model = small_dqc(seed=8, embedding="dense_angle", n_qubits=n_qubits, depth=depth)
        end_to_end_check(model, rng.standard_normal(16), 0)


def test_purevqc_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    end_to_end_check(small_purevqc(seed=9, depth=2), rng.standard_normal(16), 1)


def test_randomized_small_models_gradient_sweep():
    rng = np.random.default_rng(9)
    for seed in range(4):
        n_qubits = int(rng.integers(2, 5))
        depth = int(rng.integers(1, 3))
        m = small_dqc(seed=seed, n_qubits=n_qubits, depth=depth, in_dim=8)
        end_to_end_check(m, rng.standard_normal(8), int(rng.integers(2)))


def test_saturated_prediction_has_zero_gradient():
    """When softmax underflows to an exact one-hot, every gradient vanishes."""
    m = with_blocks(small_dqc(), post_w=np.zeros((2, 4)), post_b=[1000.0, 0.0])
    probs = model_forward(m, np.ones((1, 16)))[0]
    assert probs[0] == 1.0 and probs[1] == 0.0
    grads = model_backward(m, np.ones((1, 16)), [0])
    assert np.max(np.abs(grads)) == 0.0


@given(seed=st.integers(0, 2**32 - 1), head=st.sampled_from(["angle", "dense_angle", "amplitude"]),
       batch=st.integers(1, 5))
def test_batched_pass_equals_single_rows(seed, head, batch):
    """A batch gives each row's forward, and the mean of the rows' B = 1
    backward passes, to 1e-12."""
    rng = np.random.default_rng(seed)
    n_qubits = int(rng.integers(2, 5))
    n_classes = int(rng.integers(2, n_qubits + 1))
    if head == "amplitude":
        in_dim = 2**n_qubits
        model = small_purevqc(seed, n_qubits, int(rng.integers(1, 3)), n_classes, in_dim)
    else:
        in_dim = int(rng.integers(3, 9))
        model = small_dqc(seed, head, n_qubits, int(rng.integers(1, 3)), n_classes, in_dim)
    x = rng.standard_normal((batch, in_dim))
    labels = rng.integers(n_classes, size=batch)
    probs = model_forward(model, x)
    singles = [model_forward(model, x[b : b + 1])[0] for b in range(batch)]
    assert np.max(np.abs(probs - singles)) <= 1e-12
    grads = model_backward(model, x, labels)
    singles = [model_backward(model, x[b : b + 1], labels[b : b + 1]) for b in range(batch)]
    assert np.max(np.abs(grads - np.mean(singles, axis=0))) <= 1e-12


def counting_layer_factors():
    """A patch of ``sim.layer_factors`` that counts the rotation layers bound."""
    return mock.patch.object(qtlsim.sim, "layer_factors", side_effect=qtlsim.sim.layer_factors)


def bound_layers(model) -> int:
    """The rotation layers one call runs through the kernel: every layer of
    a purevqc head, a dqc head's after its product prefix (the embedding
    and the first layer), none on one qubit, which has no CNOT."""
    head = model.head
    return head.depth - (head.mode == "dqc") if head.n_qubits >= 2 else 0


@given(seed=st.integers(0, 2**32 - 1), head=st.sampled_from(["angle", "dense_angle", "amplitude"]),
       n_qubits=st.integers(8, 9))
def test_forward_over_row_blocks_equals_single_rows(seed, head, n_qubits):
    """A batch of two row blocks, the last one ragged (65-127 rows at q8,
    33-63 at q9), binds each rotation layer once, and each row's
    probabilities equal its own one-row call to 1e-12."""
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(2, 4))
    depth = int(rng.integers(1, 3))
    if head == "amplitude":
        model = small_purevqc(seed, n_qubits, depth, n_classes, 2**n_qubits)
    else:
        model = small_dqc(seed, head, n_qubits, depth, n_classes, int(rng.integers(3, 9)))
    block = 2**14 >> n_qubits
    x = rng.standard_normal((int(rng.integers(block + 1, 2 * block)), model.head.in_dim))
    with counting_layer_factors() as spy:
        probs = model_forward(model, x)
    assert spy.call_count == bound_layers(model)
    singles = np.concatenate([model_forward(model, x[b : b + 1]) for b in range(len(x))])
    assert np.max(np.abs(probs - singles)) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), head=st.sampled_from(["angle", "dense_angle", "amplitude"]),
       n_qubits=st.integers(1, 5), depth=st.integers(1, 3), several_blocks=st.booleans())
def test_forward_equals_the_reference_model(seed, head, n_qubits, depth, several_blocks):
    """model_forward equals the row-by-row dense reference model to 1e-12
    for every head, 1-5 qubits, depth 1-3 and 2 to n classes, and binds
    each rotation layer once per call, on batches of fewer than 2**n rows
    and on batches longer than one row block of 2**14 >> n rows, checked
    on the rows at every block edge and four random ones."""
    if head == "amplitude" and n_qubits < 2:
        n_qubits = 2  # one qubit per class, at least two classes
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(2, max(2, n_qubits) + 1))
    if head == "amplitude":
        in_dim = int(rng.integers(2 ** (n_qubits - 1) + 1, 2**n_qubits + 1))
        model = small_purevqc(seed, n_qubits, depth, n_classes, in_dim)
    else:
        in_dim = int(rng.integers(2 ** (n_qubits - 1), 2**n_qubits + 5))
        model = small_dqc(seed, head, n_qubits, depth, n_classes, in_dim)
    block = 2**14 >> n_qubits
    rows = int(rng.integers(block + 1, 2 * block) if several_blocks
               else rng.integers(1, 2**n_qubits))
    x = rng.standard_normal((rows, in_dim))
    with counting_layer_factors() as spy:
        probs = model_forward(model, x)
    assert spy.call_count == bound_layers(model)
    checked = np.arange(rows)
    if several_blocks:
        checked = np.unique([0, block - 1, block, rows - 1, *rng.integers(rows, size=4)])
    assert np.max(np.abs(probs[checked] - reference_forward(model, x[checked]))) <= 1e-12


@pytest.mark.parametrize("rows, seed", [(100, 0), (300, 1)])
def test_forward_builds_the_prefix_once_per_block(rows, seed):
    """A q8 depth-4 dense_angle head over 64-row blocks with a ragged last
    one (2 and 5 blocks): each row's probabilities equal its own one-row
    call to 1e-12, ``prefix_vectors`` and ``product_state`` run once per
    block, and each of the three rotation layers after the prefix is bound
    once per call, whatever the number of blocks."""
    model = small_dqc(seed, "dense_angle", n_qubits=8, depth=4, n_classes=3, in_dim=256)
    x = np.random.default_rng(seed).standard_normal((rows, 256))
    spies = [mock.patch.object(qtlsim.hybrid, name, side_effect=getattr(qtlsim.hybrid, name))
             for name in ("prefix_vectors", "product_state")]
    with counting_layer_factors() as factors_spy, spies[0] as prefix_spy, \
            spies[1] as product_spy:
        probs = model_forward(model, x)
    assert factors_spy.call_count == bound_layers(model) == 3
    assert prefix_spy.call_count == product_spy.call_count == math.ceil(rows / 64)
    singles = np.concatenate([model_forward(model, x[b : b + 1]) for b in range(rows)])
    assert np.max(np.abs(probs - singles)) <= 1e-12


@pytest.mark.parametrize("mode, embedding, n_qubits", [
    ("dqc", "angle", 4), ("dqc", "dense_angle", 8), ("purevqc", "amplitude", 9)])
def test_backward_binds_each_layer_once_for_the_run_and_the_sweep(mode, embedding, n_qubits):
    """One model_backward call builds each rotation layer's factors once:
    the adjoint sweep un-applies the run's factors, transposed."""
    rng = substream(7, "init")
    model = init_model(Head(mode, embedding, n_qubits, 3, 2, 2**n_qubits), rng)
    x = np.random.default_rng(7).standard_normal((8, model.head.in_dim))
    with counting_layer_factors() as spy:
        model_backward(model, x, np.arange(8) % 2)
    assert spy.call_count == bound_layers(model) == (3 if mode == "purevqc" else 2)


def traced_peak(fn) -> int:
    """The peak of the memory that ``fn()`` allocates, traced."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_memory_does_not_grow_with_the_batch():
    """The peak that a q8 dense_angle forward allocates, traced at 256 and
    1024 rows, grows by less than 512 B per extra row: the row blocks hold
    the per-row temporaries, and only the (B, n_classes) logits and
    probabilities scale with B. Holding the whole batch's finiteness mask,
    pre-layer output and prefix states costs about 1.1 KB per row on this
    head."""
    model = small_dqc(5, "dense_angle", n_qubits=8, depth=1, n_classes=2, in_dim=256)
    x = np.random.default_rng(5).standard_normal((1024, 256))
    model_forward(model, x[:256])  # fill the circuit and sign-table caches
    small, large = (traced_peak(lambda rows=rows: model_forward(model, x[:rows]))
                    for rows in (256, 1024))
    assert (large - small) / 768 < 512, (small, large)


def test_evaluate_shaped_forward_stays_under_its_memory_bound():
    """2000 rows through a q8 depth-4 dense_angle head with 512 features,
    the shape of the benchmark's evaluate workload, allocate a traced peak
    below 1.4 MiB: one row block's states and the bound factors. Running
    the circuit on the 2**n basis states instead, to one dense matrix,
    takes it to 1.77 MiB."""
    model = small_dqc(6, "dense_angle", n_qubits=8, depth=4, n_classes=2, in_dim=512)
    x = np.random.default_rng(6).standard_normal((2000, 512))
    model_forward(model, x[:64])  # fill the circuit and sign-table caches
    peak = traced_peak(lambda: model_forward(model, x))
    assert peak < 1.4 * 2**20, peak


@pytest.mark.parametrize("head", ["dense_angle", "amplitude"])
@pytest.mark.parametrize("row, value", [(-1, np.nan), (0, np.inf)])
def test_non_finite_features_are_rejected_in_any_block(head, row, value):
    """A non-finite feature in the first or the last of three 64-row blocks
    fails the forward and the backward pass."""
    model = (small_purevqc(4, n_qubits=8, in_dim=256) if head == "amplitude"
             else small_dqc(4, head, n_qubits=8, in_dim=16))
    x = np.random.default_rng(4).standard_normal((150, model.head.in_dim))
    x[row, 3] = value
    with pytest.raises(ValueError, match="finite"):
        model_forward(model, x)
    with pytest.raises(ValueError, match="finite"):
        model_backward(model, x, np.zeros(150, dtype=int))


def test_purevqc_gradient_only_quantum():
    g = model_backward(small_purevqc(), np.ones((1, 16)), [0])
    assert g.shape == (4,)  # the whole purevqc theta is the quantum block


def test_backward_label_out_of_range():
    with pytest.raises(ValueError, match="label"):
        model_backward(small_dqc(), np.ones((2, 16)), [0, 2])
    with pytest.raises(ValueError, match="labels"):
        model_backward(small_dqc(), np.ones((2, 16)), [0])


# --- Adam ----------------------------------------------------------------

def test_adam_zero_grads_no_decay_is_identity():
    state = AdamState.init(3, lr=0.1, weight_decay=0.0)
    params = np.array([1.0, -2.0, 0.5])
    new_params, new_state = adam_step(state, params, np.zeros(3))
    np.testing.assert_array_equal(new_params, params)
    assert new_state.step == 1


def test_adam_first_step_moves_by_lr():
    state = AdamState.init(4, lr=1e-3, weight_decay=0.0)
    params = np.zeros(4)
    new_params, _ = adam_step(state, params, np.ones(4))
    np.testing.assert_allclose(new_params, -1e-3 * np.ones(4), atol=1e-6 * 1e-3)


def test_adam_three_step_scalar_trace():
    """Match an independently hand-rolled scalar Adam recurrence."""
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    state = AdamState.init(1, lr=lr, weight_decay=0.0)
    p = np.array([0.3])
    m = v = 0.0
    ref = 0.3
    for t in (1, 2, 3):
        g = 1.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        p, state = adam_step(state, p, np.array([g]))
        assert abs(p[0] - ref) < 1e-12


def test_adam_weight_decay_couples_into_gradient():
    state = AdamState.init(1, lr=0.1, weight_decay=0.5)
    p, _ = adam_step(state, np.array([2.0]), np.zeros(1))
    # effective gradient 0.5*2.0 = 1.0, first-step update is -lr
    assert abs(p[0] - (2.0 - 0.1)) < 1e-6


def test_adam_rejects_nonfinite_gradients():
    state = AdamState.init(1, lr=0.1, weight_decay=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(state, np.zeros(1), np.array([np.nan]))


def test_adam_shape_mismatch():
    state = AdamState.init(2, lr=0.1, weight_decay=0.0)
    with pytest.raises(ValueError, match="shape"):
        adam_step(state, np.zeros(3), np.zeros(3))
