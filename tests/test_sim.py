"""Statevector simulator: the state container, known states, gate algebra,
dense-matrix oracle."""
import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qtlsim.embeddings import StateVector
from qtlsim.sim import (
    GATE_KINDS,
    Circuit,
    GateOp,
    Permutation,
    RotationLayer,
    apply_step,
    bind_program,
    bind_steps,
    cnot,
    prefix_vectors,
    product_state,
    run_circuit_raw,
    run_steps,
    rx,
    ry,
    z_expectations,
    z_signs,
)

from oracle import (
    dense_run,
    interleaved,
    joined,
    random_batch,
    random_binding,
    random_circuit,
    random_layered_circuit,
    random_state_amps,
    shuffled_run,
    whole_layer,
    zexp_dense,
)

S2 = 1.0 / math.sqrt(2)


def one_row(amps):
    """One state as a kernel batch: a (1, 2**n) float64 batch, or a complex
    state's real halves, (2, 1, 2**n)."""
    amps = np.asarray(amps)
    return np.stack([amps.real, amps.imag])[:, None] if np.iscomplexobj(amps) else amps[None]


def run_one(n, ops, amps=None, params=()):
    """One state through the batched kernel, default |0...0>, with slot k
    bound to ``params[k]``; returns the output state, complex for a
    complex input."""
    initial = np.eye(1, 2**n) if amps is None else one_row(amps)
    out = run_circuit_raw(initial, Circuit(n, tuple(ops), len(params)), params)
    return joined(out)[0] if out.ndim == 3 else out[0]


def assert_rotations_run_as_layers(circuit):
    """Every program step is a ``RotationLayer`` or a ``Permutation``, and
    the layers hold exactly the circuit's rotations."""
    assert {type(step) for step in circuit.program} <= {RotationLayer, Permutation}
    assert Counter(layer_ops(circuit.program)) == Counter(
        op for op in circuit.ops if op.kind != "cnot")


def layer_ops(steps):
    """The ops of the rotation layers among program steps, in order."""
    return [op for step in steps if isinstance(step, RotationLayer) for op in step.ops]


def z_of(amps, qubit):
    """<Z> of one qubit of one state."""
    n = len(amps).bit_length() - 1
    return float(z_expectations(one_row(amps), z_signs(n, (qubit,)))[0, 0])


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0]))


def test_statevector_rejects_wrong_length():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))


def flip():
    """RY(pi)|0> on one qubit: |1> up to rounding."""
    return run_one(1, [ry(0, param=0)], params=[math.pi])


def bell():
    """RY(pi/2) on qubit 0 and RY(0) on qubit 1, then CNOT(0, 1), on |00>."""
    return run_one(2, [ry(0, param=0), ry(1, param=1), cnot(0, 1)], params=[math.pi / 2, 0.0])


def test_ry_pi_flips_zero():
    """RY(pi)|0> = |1>"""
    np.testing.assert_allclose(flip(), [0, 1], atol=1e-12)


def test_ry_then_negative_angle_is_identity():
    """RY(a) then RY(-a) on two slots returns |0>."""
    out = run_one(1, [ry(0, param=0), ry(0, param=1)], params=[1.3, -1.3])
    np.testing.assert_allclose(out, [1, 0], atol=1e-12)


def test_cnot_builds_bell_state():
    np.testing.assert_allclose(bell(), [S2, 0, 0, S2], atol=1e-12)


def test_ry_pi_on_qubit0_is_msb():
    # Qubit 0 is the most significant bit: RY(pi) on qubit 0 of |000> gives index 4.
    s = run_one(3, whole_layer("ry", [0, 1, 1]), params=[math.pi, 0.0])
    expected = np.zeros(8)
    expected[4] = 1.0
    np.testing.assert_allclose(s, expected, atol=1e-12)


def test_gate_wire_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Circuit(2, (ry(3, param=0),), 1)


def test_gateop_validation():
    with pytest.raises(ValueError):
        cnot(1, 1)  # control == target
    with pytest.raises(ValueError):
        Circuit(1, (ry(0, param=0),), n_params=2)  # unreferenced parameter


@pytest.mark.parametrize("kind, control, param_index", [
    ("ry", None, None),  # a rotation without a slot
    ("rx", 1, 0),  # a rotation with a control
    ("cnot", 1, 0),  # a cnot reading a slot
    ("cnot", None, None),  # a cnot without a control
    ("h", None, None),
    ("x", None, None),
    ("rz", None, 0),
], ids=["rotation_no_slot", "rotation_with_control", "cnot_with_slot", "cnot_no_control",
        "h", "x", "rz"])
def test_gates_are_slot_bound_rotations_or_cnots(kind, control, param_index):
    """The gate set is rx/ry reading one slot each, and cnot; anything
    else is refused when the gate is made."""
    assert GATE_KINDS == {"rx", "ry", "cnot"}
    assert "angle" not in {f.name for f in fields(GateOp)}
    with pytest.raises(ValueError):
        GateOp(kind, 0, control=control, param_index=param_index)


def test_empty_circuit_is_identity():
    rng = np.random.default_rng(0)
    s = random_state_amps(rng, 3)
    np.testing.assert_array_equal(run_one(3, [], amps=s), s)


def test_trainable_ry_half_pi():
    out = run_one(1, [ry(0, param=0)], params=[math.pi / 2])
    np.testing.assert_allclose(out, [S2, S2], atol=1e-12)


def test_probabilities_known_states():
    np.testing.assert_allclose(np.abs(flip()) ** 2, [0, 1], atol=1e-12)
    np.testing.assert_allclose(np.abs(bell()) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)


def test_expectation_z_basics():
    assert z_of(np.eye(1, 2)[0], 0) == 1.0
    assert abs(z_of(run_one(1, [ry(0, param=0)], params=[math.pi / 2]), 0)) < 1e-12


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
def test_expectation_z_after_ry_is_cos(theta):
    assert abs(z_of(run_one(1, [ry(0, param=0)], params=[theta]), 0) - math.cos(theta)) < 1e-12


def test_expectation_z_matches_dense_sign_sum():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        s = random_state_amps(rng, n)
        q = int(rng.integers(n))
        assert abs(z_of(s, q) - zexp_dense(s, n, q)) < 1e-12


def test_marginal_prob_one_known_states():
    """P(1) = (1 - <Z>) / 2: RY(pi)|0> reads 1, each Bell qubit half the time."""
    one = z_expectations(flip()[None], z_signs(1, (0,)))
    np.testing.assert_array_equal((1.0 - one) / 2.0, [[1.0]])
    both = z_expectations(bell()[None], z_signs(2, (0, 1)))
    np.testing.assert_allclose((1.0 - both) / 2.0, [[0.5, 0.5]], atol=1e-12)


def test_marginal_qubit_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        z_signs(2, (2,))


def test_gates_preserve_norm():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        s = random_state_amps(rng, n, real=bool(rng.integers(2)))
        out = run_one(n, whole_layer("ry", range(n)), amps=s, params=rng.uniform(-7, 7, n))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10
        if n >= 2:
            c = int(rng.integers(n - 1))
            out = run_one(n, [cnot(c, n - 1) if c != n - 1 else cnot(0, 1)], amps=s)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_involutions():
    """CNOT^2 = identity on random states, for every control/target pair."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = random_state_amps(rng, 3)
        t = int(rng.integers(3))
        for op in (cnot((t + 1) % 3, t), cnot((t + 2) % 3, t)):
            twice = run_one(3, [op, op], amps=s)
            assert np.max(np.abs(twice - s)) < 1e-12


def test_ry_composition():
    """RY(a) RY(b) == RY(a+b) on random single-qubit states."""
    rng = np.random.default_rng(6)
    for _ in range(10):
        s = random_state_amps(rng, 1)
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        composed = run_one(1, [ry(0, param=0), ry(0, param=1)], amps=s, params=[b, a])
        direct = run_one(1, [ry(0, param=0)], amps=s, params=[a + b])
        assert np.max(np.abs(composed - direct)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), batch=st.integers(1, 5),
       halves=st.booleans())
def test_batched_run_matches_dense_oracle(seed, n, batch, halves):
    """Each row of a batched run of an ry/cnot circuit, with shared angles,
    equals the dense Kronecker-product run of that row, and keeps its norm,
    for real states and for complex ones run as their real halves; the
    output is float64, halves kept apart."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n, max_gates=20, real=True)
    binding = random_binding(rng, circuit, batch, 0)
    initial = random_batch(rng, n, batch, halves)
    out = run_circuit_raw(initial, circuit, binding[0])
    assert out.shape == initial.shape and out.dtype == float
    for b in range(batch):
        expected = dense_run(circuit, joined(initial)[b], binding[b])
        assert np.max(np.abs(joined(out)[b] - expected)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(joined(out), axis=1) - 1.0)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), batch=st.integers(1, 5),
       halves=st.booleans())
def test_reverse_steps_undo_the_run(seed, n, batch, halves):
    """Un-applying every bound step in reverse order, as the adjoint sweep
    does (a layer by the transposes of its factors, a permutation by its
    inverse gather), returns the initial batch: each step is unitary. The
    batch stays float64 both ways."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n, max_gates=20, real=True)
    binding = random_binding(rng, circuit, batch, 0)
    initial = random_batch(rng, n, batch, halves)
    amps = run_circuit_raw(initial, circuit, binding[0])
    for step in reversed(bind_steps(circuit, binding[0])):
        amps = apply_step(amps, step, adjoint=True)
    assert amps.dtype == float
    assert np.max(np.abs(amps - initial)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), batch=st.integers(1, 5),
       halves=st.booleans(), ring=st.booleans())
@example(seed=0, n=1, batch=2, halves=False, ring=True)  # no second wire: nothing to fold
@example(seed=1, n=3, batch=2, halves=True, ring=True)
def test_folded_readout_matches_the_dense_oracle(seed, n, batch, halves, ring):
    """``bind_program`` folds a last permutation, and only a last one, into
    the sign table: its steps are ``bind_steps`` without it, and its signs
    are the measured qubits' ``z_signs`` with their columns permuted by its
    inverse. Reading the run of those steps with that table equals the
    dense oracle's <Z> of the whole program to 1e-12, on programs that end
    in a CNOT ring (n >= 2) and on ones that do not, real states and real
    halves alike."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n, max_gates=12, real=True)
    if ring and n >= 2:
        ring_ops = tuple(cnot(q, (q + 1) % n) for q in range(n))
        circuit = Circuit(n, circuit.ops + ring_ops, circuit.n_params)
    binding = random_binding(rng, circuit, batch, 0)
    measured = tuple(int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))])
    program = bind_program(circuit, binding[0], measured)
    steps, signs = bind_steps(circuit, binding[0]), z_signs(n, measured)
    folded = bool(steps) and isinstance(steps[-1], Permutation)
    assert folded == (circuit.ops[-1].kind == "cnot")
    if ring:
        assert folded == (n >= 2)
    assert program.start == 0 and len(program.steps) == len(steps) - folded
    assert all(getattr(a, "layer", a) is getattr(b, "layer", b)  # same program steps
               for a, b in zip(program.steps, steps))
    assert np.array_equal(program.signs, signs[:, steps[-1].inverse] if folded else signs)
    initial = random_batch(rng, n, batch, halves)
    z = z_expectations(run_steps(initial, program.steps), program.signs)
    assert z.shape == (batch, len(measured))
    for b in range(batch):
        amps = dense_run(circuit, joined(initial)[b], binding[b])
        assert np.max(np.abs(z[b] - [zexp_dense(amps, n, q) for q in measured])) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), batch=st.integers(1, 5))
def test_real_batch_matches_its_complex_cast(seed, n, batch):
    """A real batch gives the same states as its complex cast, held as real
    halves with a zero imaginary half, whose imaginary half stays exactly
    0: the halves are independent real rows."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n, max_gates=20, real=True)
    binding = random_binding(rng, circuit, batch, 0)
    initial = random_batch(rng, n, batch)
    real_out = run_circuit_raw(initial, circuit, binding[0])
    halves_out = run_circuit_raw(np.stack([initial, np.zeros_like(initial)]), circuit, binding[0])
    assert np.all(halves_out[1] == 0.0)
    assert np.max(np.abs(real_out - halves_out[0])) <= 1e-14


def test_an_rx_step_in_the_kernel_is_refused():
    """The kernel runs ry and cnot steps on float64 batches only: an rx
    layer after the prefix, or a run that starts before the prefix's rx
    layer, raises ValueError naming the layer; from the prefix on, the same
    circuit runs. A complex batch is refused."""
    angles = [0.3, -0.4]
    refused = r"RotationLayer\(ops=\(GateOp\(kind='rx'"
    for n in (2, 5):
        late = Circuit(n, (*whole_layer("ry", [0] * n), cnot(0, 1), *whole_layer("rx", [1] * n)), 2)
        state = product_state(prefix_vectors(late, angles))
        with pytest.raises(ValueError, match=refused):
            run_steps(state, bind_steps(late, angles, late.prefix_len))
        early = Circuit(n, (*whole_layer("rx", [0] * n), cnot(0, 1), *whole_layer("ry", [1] * n)),
                        2)
        with pytest.raises(ValueError, match=refused):
            run_circuit_raw(np.eye(1, 2**n), early, angles)
        state = product_state(prefix_vectors(early, angles))
        assert state.shape == (2, 1, 2**n)
        out = run_steps(state, bind_steps(early, angles, early.prefix_len))
        expected = dense_run(early, np.eye(2**n)[0], angles)
        assert np.max(np.abs(joined(out)[0] - expected)) <= 1e-12
        with pytest.raises(ValueError, match="float64"):
            run_circuit_raw(joined(state), early, angles)
    with pytest.raises(TypeError):
        z_expectations(np.eye(1, 4, dtype=complex), z_signs(2, (0,)))


def test_a_per_row_angle_in_the_kernel_is_refused():
    """Per-row angles run only in the product prefix: a (B, n_params)
    matrix, whether a kernel slot's column is per-row (a later layer's own
    or a prefix slot read again after a CNOT) or every column is constant,
    raises ValueError from ``bind_steps`` and from ``run_circuit_raw``; a
    kernel step binds a vector. The prefix's B-row state of the matrix
    keeps B rows through each ``apply_step`` of the vector, and each row
    ends on the dense oracle's run."""
    refused = "rx and per-row angles run only in the product prefix"
    rows = np.array([0.1, -0.2, 0.3])
    for n in (2, 5):
        circuit = Circuit(n, (*whole_layer("ry", [0] * n), cnot(0, 1), *whole_layer("ry", [1] * n),
                              cnot(0, 1), *whole_layer("ry", [0] * n)), 2)
        shared = np.full(3, 0.4)
        for angles in (np.stack([shared, rows], 1), np.stack([rows, shared], 1),
                       np.tile([0.4, -0.7], (3, 1))):
            with pytest.raises(ValueError, match=refused):
                bind_steps(circuit, angles, circuit.prefix_len)
            with pytest.raises(ValueError, match=refused):
                run_circuit_raw(np.eye(3, 2**n), circuit, angles)
        angles = [0.4, -0.7]
        state = product_state(prefix_vectors(circuit, np.tile(angles, (len(rows), 1))))
        for step in bind_steps(circuit, angles, circuit.prefix_len):
            assert state.shape == (len(rows), 2**n)
            state = apply_step(state, step)
        assert state.shape == (len(rows), 2**n)
        expected = dense_run(circuit, np.eye(2**n)[0], angles)
        assert np.max(np.abs(state - expected)) <= 1e-12


def test_cnot_runs_fuse_into_one_step():
    """A ring of n CNOTs is one permutation step of the compiled program,
    between the layers of the rotations around it."""
    last = whole_layer("ry", [3, 4, 5])
    ops = (ry(2, param=2), ry(0, param=0), ry(1, param=1), cnot(0, 1), cnot(1, 2), cnot(2, 0), *last)
    program = Circuit(3, ops, 6).program
    assert program == (RotationLayer(whole_layer("ry", [0, 1, 2])), program[1], RotationLayer(last))
    assert isinstance(program[1], Permutation)


def prefixed_circuit(rng, n, real=False):
    """A random circuit on n >= 2 qubits: a ``shuffled_run`` of up to 3
    whole layers (rx or ry each, or ry only when ``real``; each rotation on
    a slot of its own), then a CNOT and a random ry/cnot tail. Returns
    (circuit, prefix ops, number of prefix slots)."""
    kinds = ("ry",) if real else ("rx", "ry")
    layers = [whole_layer(kinds[rng.integers(len(kinds))], range(k * n, k * n + n))
              for k in range(int(rng.integers(0, 4)))]
    prefix, n_params = shuffled_run(rng, layers), n * len(layers)
    tail = random_circuit(rng, n, max_gates=12, real=True)
    tail_ops = [op if op.kind == "cnot" else replace(op, param_index=op.param_index + n_params)
                for op in tail.ops]
    control = int(rng.integers(n))
    ops = (*prefix, cnot(control, (control + 1) % n), *tail_ops)
    return Circuit(n, ops, n_params + tail.n_params), prefix, n_params


def sorted_ops(ops):
    """Rotation ops in slot order, to compare runs whose slots are distinct."""
    return sorted(ops, key=lambda op: op.param_index)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), batch=st.integers(1, 5))
def test_product_prefix_run_matches_the_gate_run(seed, n, batch):
    """The prefix steps are layers of the prefix's rotations. Starting from
    the product state of the rotation prefix and running the rest equals
    the dense Kronecker oracle to 1e-12, with shared and per-row prefix
    angles, and, when no prefix gate is an rx, running every step on each
    row's |0...0> with that row's angles. The product state is a float64
    batch of B rows, shared angles or not, held as real halves exactly
    when a prefix gate is an rx, and its run keeps the B rows."""
    rng = np.random.default_rng(seed)
    circuit, prefix, n_prefix_params = prefixed_circuit(rng, n)
    binding = random_binding(rng, circuit, batch)
    assert sorted_ops(layer_ops(circuit.program[: circuit.prefix_len])) == sorted_ops(prefix)
    state = product_state(prefix_vectors(circuit, binding))
    has_rx = any(op.kind == "rx" for op in prefix)
    assert state.shape == (2,) * has_rx + (batch, 2**n) and state.dtype == float
    out = run_steps(state, bind_steps(circuit, binding[0], circuit.prefix_len))
    assert out.shape == state.shape
    zero = np.eye(1, 2**n)[0]
    if not has_rx:
        gate_run = np.concatenate([run_circuit_raw(np.eye(1, 2**n), circuit, binding[b])
                                   for b in range(batch)])
        assert np.max(np.abs(out - gate_run)) <= 1e-12
    prefix_circuit = Circuit(n, prefix, n_prefix_params)
    for b, row in enumerate(binding):
        assert np.max(np.abs(joined(state)[b] - dense_run(prefix_circuit, zero, row))) <= 1e-12
        assert np.max(np.abs(joined(out)[b] - dense_run(circuit, zero, row))) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), batch=st.integers(1, 7),
       real=st.booleans())
def test_product_state_of_row_slices_matches_the_whole_batch(seed, n, batch, real):
    """Prefix vectors built once for the whole batch, then sliced by rows (a
    random slice size, the last slice ragged) and Kronecker-multiplied per
    slice, equal the rows of the whole batch's product state exactly, for
    real and complex prefixes and shared and per-row angles, and so do the
    vectors and product state built from one row's angles alone: a row's
    bits do not depend on the batch it sits in. Each row is within 1e-12
    of the dense oracle's run of the prefix."""
    rng = np.random.default_rng(seed)
    circuit, prefix, n_prefix_params = prefixed_circuit(rng, n, real)
    binding = random_binding(rng, circuit, batch)
    vectors = prefix_vectors(circuit, binding)
    expected = product_state(vectors)
    assert vectors.shape == (2, batch, n) and expected.shape[-2] == batch
    size = int(rng.integers(1, batch + 1))
    prefix_circuit = Circuit(n, prefix, n_prefix_params)
    zero = np.eye(1, 2**n)[0]
    for start in range(0, batch, size):
        rows = slice(start, min(start + size, batch))
        assert np.array_equal(product_state(vectors[:, rows]), expected[..., rows, :])
        for b, row in enumerate(binding[rows], start):
            alone = prefix_vectors(circuit, row)
            assert np.array_equal(alone, vectors[:, b:b + 1])
            assert np.array_equal(product_state(alone), expected[..., b:b + 1, :])
            dense = dense_run(prefix_circuit, zero, row)
            assert np.max(np.abs(joined(expected)[b] - dense)) <= 1e-12


# --- rotation layers ------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), batch=st.integers(1, 3),
       stack=st.sampled_from([(), (2,)]), halves=st.booleans())
@example(seed=0, n=1, batch=2, stack=(), halves=False)  # an empty high factor
@example(seed=1, n=2, batch=3, stack=(2,), halves=True)
def test_rotation_layer_matches_the_dense_kronecker_unitary(seed, n, batch, stack, halves):
    """One ry layer step, its ops given in a random qubit order, on shared
    slots, applied to a float64 (B, 2**n) batch, with or without a leading
    stack axis, or to real halves, equals the dense oracle's run of its ops
    to 1e-12, and its adjoint step undoes that run."""
    rng = np.random.default_rng(seed)
    ops = tuple(ry(int(q), param=k) for k, q in enumerate(rng.permutation(n)))
    circuit = Circuit(n, ops, len(ops))
    binding = random_binding(rng, circuit, batch, 0)
    amps = random_batch(rng, n, math.prod(stack) * batch, halves)
    amps = amps.reshape(amps.shape[:-2] + stack + (batch, 2**n))
    (step,) = bind_steps(circuit, binding[0])
    assert step.layer == RotationLayer(tuple(sorted(ops, key=lambda op: op.target)))
    out = apply_step(amps, step)
    back = apply_step(out, step, adjoint=True)
    assert out.shape == amps.shape and out.dtype == float
    for index in np.ndindex(*stack, batch):
        row = binding[index[-1]]
        state, got = (joined(a[(slice(None),) + index][:, None])[0] if halves else a[index]
                      for a in (amps, out))
        assert np.max(np.abs(got - dense_run(circuit, state, row))) <= 1e-12
    assert np.max(np.abs(back - amps)) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), batch=st.integers(1, 3),
       halves=st.booleans())
def test_programs_run_rotations_as_layers_and_match_the_dense_oracle(seed, n, batch, halves):
    """On any qubit count the program runs every rotation inside a layer,
    and the run equals the dense oracle to 1e-12, with shared slots, on real
    states and real halves."""
    rng = np.random.default_rng(seed)
    circuit = random_layered_circuit(rng, n, real=True)
    binding = random_binding(rng, circuit, batch, 0)
    assert_rotations_run_as_layers(circuit)
    initial = random_batch(rng, n, batch, halves)
    out = run_circuit_raw(initial, circuit, binding[0])
    for b in range(batch):
        expected = dense_run(circuit, joined(initial)[b], binding[b])
        assert np.max(np.abs(joined(out)[b] - expected)) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
def test_rotation_runs_group_into_layers(seed, n):
    """Between CNOTs, each layer holds one rotation on each qubit, in qubit
    order, all of one kind, and layer k of a run holds each qubit's k-th
    rotation of the run: per qubit, the layers hold exactly its rotations
    in program order, whatever order the run gives the qubits' turns."""
    rng = np.random.default_rng(seed)
    circuit = random_layered_circuit(rng, n)
    segments, layers = [[]], [[]]
    for op in circuit.ops:
        if op.kind == "cnot":
            segments.append([])
        else:
            segments[-1].append(op)
    for step in circuit.program:
        if isinstance(step, Permutation):
            layers.append([])
        else:
            assert isinstance(step, RotationLayer) and len({op.kind for op in step.ops}) == 1
            assert [op.target for op in step.ops] == list(range(n))
            layers[-1].append(step.ops)
    assert len(segments) == len(layers)
    for segment, segment_layers in zip(segments, layers):
        for q in range(n):
            assert [ops[q] for ops in segment_layers] == [op for op in segment if op.target == q]


def test_a_layer_holds_one_rotation_per_qubit_of_one_kind():
    """The k-th rotations of a run on the qubits make layer k, whatever
    order they come in: a layer lists its ops, and so its slots, in qubit
    order, all of one kind."""
    layers = (whole_layer("rx", [1, 2, 4]), whole_layer("ry", [0, 4, 3]))
    run = interleaved(layers, [2, 0, 0, 1, 2, 1])
    assert run[:3] == (rx(2, param=4), rx(0, param=1), ry(0, param=0))
    first, second = Circuit(3, run, 5).program
    assert (first.ops, second.ops) == layers
    assert first.kind == "rx" and first.slots == [1, 2, 4]
    assert second.kind == "ry" and second.slots == [0, 4, 3]


def test_a_partial_rotation_run_raises():
    """A run of rotations that makes no whole layers, one rotation of one
    kind on each qubit, raises ValueError with one message when the program
    compiles, whether the run starts the circuit or sits between CNOTs: a
    qubit left out, a qubit once more than the others, or a layer of two
    kinds."""
    for ops in ((ry(0, param=0),),
                (ry(0, param=0), ry(1, param=0), ry(1, param=0)),
                (rx(0, param=0), ry(1, param=0)),
                (rx(0, param=0), ry(0, param=0), ry(1, param=0), rx(1, param=0))):
        for circuit in (Circuit(2, ops, 1), Circuit(2, (cnot(0, 1), *ops, cnot(1, 0)), 1)):
            with pytest.raises(ValueError, match="a rotation run must make whole layers, one "
                                                 "rotation of one kind on each of the 2 qubits"):
                run_circuit_raw(np.eye(1, 4), circuit, [0.0])
