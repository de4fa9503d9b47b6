"""Statevector simulator: the state container, known states, gate algebra,
dense-matrix oracle."""
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtlsim.embeddings import StateVector
from qtlsim.sim import (
    GATE_KINDS,
    Circuit,
    GateOp,
    apply_matrix,
    apply_step,
    cnot,
    prefix_vectors,
    product_state,
    rotation_matrix,
    run_circuit_raw,
    rx,
    ry,
    rz,
    transfer_matrix,
    z_expectations,
)

from oracle import (
    dense_run,
    random_binding,
    random_circuit,
    random_state_amps,
    row_params,
    zexp_dense,
)

S2 = 1.0 / math.sqrt(2)


def run_one(n, ops, amps=None, params=()):
    """One state through the batched kernel as a (1, 2**n) batch, default
    |0...0>, with slot k bound to ``params[k]``; returns the output row."""
    initial = np.eye(1, 2**n) if amps is None else np.asarray(amps)[None]
    return run_circuit_raw(initial, Circuit(n, tuple(ops), len(params)), params)[0]


def z_of(amps, qubit):
    """<Z> of one qubit of one state."""
    return float(z_expectations(np.asarray(amps)[None], [qubit])[0, 0])


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
    """RY(pi/2) on qubit 0, then CNOT(0, 1), on |00>."""
    return run_one(2, [ry(0, param=0), cnot(0, 1)], params=[math.pi / 2])


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
    s = run_one(3, [ry(0, param=0)], params=[math.pi])
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
], ids=["rotation_no_slot", "rotation_with_control", "cnot_with_slot", "cnot_no_control",
        "h", "x"])
def test_gates_are_slot_bound_rotations_or_cnots(kind, control, param_index):
    """The gate set is rx/ry/rz reading one slot each, and cnot; anything
    else is refused when the gate is made."""
    assert GATE_KINDS == {"rx", "ry", "rz", "cnot"}
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
    one = z_expectations(flip()[None], [0])
    np.testing.assert_array_equal((1.0 - one) / 2.0, [[1.0]])
    both = z_expectations(bell()[None], [0, 1])
    np.testing.assert_allclose((1.0 - both) / 2.0, [[0.5, 0.5]], atol=1e-12)


def test_marginal_qubit_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        z_expectations(np.eye(1, 4), [2])


def test_gates_preserve_norm():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        s = random_state_amps(rng, n)
        for make in (rx, ry, rz):
            out = run_one(n, [make(int(rng.integers(n)), param=0)], amps=s,
                          params=[rng.uniform(-7, 7)])
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


def stays_real(initial, circuit) -> bool:
    """The dtype rule: a float64 batch stays float64 until an rx or rz gate."""
    return initial.dtype == float and not any(op.kind in ("rx", "rz") for op in circuit.ops)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), batch=st.integers(1, 5),
       real_circuit=st.booleans(), real_state=st.booleans())
def test_batched_run_matches_dense_oracle(seed, n, batch, real_circuit, real_state):
    """Each row of a batched run, with a mix of shared and per-row angles,
    equals the dense Kronecker-product run of that row, and keeps its norm.
    Real circuits on float64 batches (the matmul form) return float64."""
    rng = np.random.default_rng(seed)
    circuit, _ = random_circuit(rng, n, max_gates=20, real=real_circuit)
    binding = random_binding(rng, circuit, batch)
    initial = np.stack([random_state_amps(rng, n, real=real_state) for _ in range(batch)])
    out = run_circuit_raw(initial, circuit, binding)
    assert out.shape == (batch, 2**n)
    assert out.dtype == (float if stays_real(initial, circuit) else complex)
    for b in range(batch):
        expected = dense_run(circuit, initial[b], row_params(binding, b))
        assert np.max(np.abs(out[b] - expected)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), batch=st.integers(1, 5),
       real=st.booleans())
def test_reverse_steps_undo_the_run(seed, n, batch, real):
    """Un-applying every compiled step in reverse order, as the adjoint
    sweep does, returns the initial batch: each step is unitary. A real
    circuit on a float64 batch stays float64 both ways."""
    rng = np.random.default_rng(seed)
    circuit, _ = random_circuit(rng, n, max_gates=20, real=real)
    binding = random_binding(rng, circuit, batch)
    initial = np.stack([random_state_amps(rng, n, real=real) for _ in range(batch)])
    amps = run_circuit_raw(initial, circuit, binding)
    for step in reversed(circuit.program):
        amps = apply_step(amps, n, step, binding, adjoint=True)
    assert amps.dtype == initial.dtype
    assert np.max(np.abs(amps - initial)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), batch=st.integers(1, 5))
def test_real_batch_matches_its_complex_cast(seed, n, batch):
    """A real circuit gives the same states on a float64 batch (one matmul
    per gate) as on the same batch cast to complex128 (element-wise), and
    the complex run's imaginary part stays exactly 0."""
    rng = np.random.default_rng(seed)
    circuit, _ = random_circuit(rng, n, max_gates=20, real=True)
    binding = random_binding(rng, circuit, batch)
    initial = np.stack([random_state_amps(rng, n, real=True) for _ in range(batch)])
    real_out = run_circuit_raw(initial, circuit, binding)
    complex_out = run_circuit_raw(initial.astype(complex), circuit, binding)
    assert real_out.dtype == float and complex_out.dtype == complex
    assert np.all(complex_out.imag == 0.0)
    assert np.max(np.abs(real_out - complex_out.real)) <= 1e-14


@pytest.mark.parametrize("gate", [rx, rz])
def test_rotation_gates_promote_a_real_batch(gate):
    """A float64 batch meeting an rx or rz gate, on any qubit, turns
    complex128 and still matches the dense oracle row by row."""
    rng = np.random.default_rng(5)
    initial = np.stack([random_state_amps(rng, 3, real=True) for _ in range(2)])
    for target in range(3):
        circuit = Circuit(3, (ry(0, param=1), gate(target, param=0), ry(2, param=2), cnot(2, 0),
                              ry(1, param=3)), 4)
        binding = [np.array([0.7, -1.9]), 0.4, math.pi / 2, 0.9]
        out = run_circuit_raw(initial, circuit, binding)
        assert out.dtype == complex
        for b in range(2):
            expected = dense_run(circuit, initial[b], row_params(binding, b))
            assert np.max(np.abs(out[b] - expected)) < 1e-12


@pytest.mark.parametrize("kind", ["rx", "rz"])
def test_complex_gate_casts_a_real_batch_then_updates_element_wise(kind):
    """On every target, an rx or rz gate on a float64 batch equals the same
    gate on the batch cast to complex128 bit for bit, for a shared and a
    per-row angle: the cast comes first and the element-wise update follows."""
    rng = np.random.default_rng(11)
    n = 5
    amps = np.stack([random_state_amps(rng, n, real=True) for _ in range(3)])
    for angle in (0.7, np.array([0.3, -1.2, 2.9])):
        m = rotation_matrix(kind, angle)
        for target in range(n):
            out = apply_matrix(amps, n, target, m)
            assert out.dtype == complex
            assert out.tobytes() == apply_matrix(amps.astype(complex), n, target, m).tobytes()


def test_cnot_runs_fuse_into_one_step():
    """A ring of n CNOTs is one permutation step of the compiled program."""
    ops = (ry(0, param=0), cnot(0, 1), cnot(1, 2), cnot(2, 0), ry(1, param=1))
    program = Circuit(3, ops, 2).program
    assert len(program) == 3
    assert program[0] is ops[0] and program[2] is ops[4]


def prefixed_circuit(rng, n, real=False):
    """A random circuit on n >= 2 qubits: up to 10 rotations (rx/ry/rz on
    any qubit, or ry only when ``real``; repeats allowed, each on a slot of
    its own), then a CNOT and a random tail. Returns (circuit, prefix ops,
    number of prefix slots)."""
    makers = (ry,) if real else (rx, ry, rz)
    n_params = int(rng.integers(0, 11))
    prefix = [makers[rng.integers(len(makers))](int(rng.integers(n)), param=k)
              for k in range(n_params)]
    tail, _ = random_circuit(rng, n, max_gates=12, real=real)
    tail_ops = [op if op.kind == "cnot" else replace(op, param_index=op.param_index + n_params)
                for op in tail.ops]
    control = int(rng.integers(n))
    ops = (*prefix, cnot(control, (control + 1) % n), *tail_ops)
    return Circuit(n, ops, n_params + tail.n_params), tuple(prefix), n_params


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), batch=st.integers(1, 5))
def test_product_prefix_run_matches_the_gate_run(seed, n, batch):
    """Starting from the product state of the rotation prefix and running
    the rest equals running every gate on |0...0> rows, and the dense
    Kronecker oracle, to 1e-12, with shared and per-row angles. The product
    state is float64 exactly when no prefix gate is rx or rz."""
    rng = np.random.default_rng(seed)
    circuit, prefix, n_prefix_params = prefixed_circuit(rng, n)
    binding = random_binding(rng, circuit, batch)
    assert circuit.prefix_len == len(prefix)
    state = product_state(prefix_vectors(circuit, binding), slice(0, batch))
    assert state.shape == (batch, 2**n)
    assert state.dtype == (complex if any(op.kind in ("rx", "rz") for op in prefix) else float)
    out = run_circuit_raw(state, circuit, binding, circuit.prefix_len)
    zero = np.eye(1, 2**n)[0]
    gate_run = run_circuit_raw(np.repeat(zero[None], batch, axis=0), circuit, binding)
    assert np.max(np.abs(out - gate_run)) <= 1e-12
    prefix_circuit = Circuit(n, prefix, n_prefix_params)
    for b in range(batch):
        row = row_params(binding, b)
        assert np.max(np.abs(state[b] - dense_run(prefix_circuit, zero, row))) <= 1e-12
        assert np.max(np.abs(out[b] - dense_run(circuit, zero, row))) <= 1e-12


def broadcast_product_state(circuit, params, batch):
    """The prefix's product state of a batch, one broadcast Kronecker step
    per qubit: the formula whose rows ``prefix_vectors`` and
    ``product_state`` must match bit for bit."""
    qubits = [np.array([1.0, 0.0])] * circuit.n_qubits
    for op in circuit.program[: circuit.prefix_len]:
        m = rotation_matrix(op.kind, params[op.param_index])
        qubits[op.target] = (m @ qubits[op.target][..., None])[..., 0]
    amps = np.ones((batch, 1))
    for v in qubits:
        amps = (amps[:, :, None] * v[..., None, :]).reshape(batch, -1)
    return amps


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), batch=st.integers(1, 7),
       real=st.booleans())
def test_product_state_of_row_slices_matches_the_broadcast_formula(seed, n, batch, real):
    """Prefix vectors built once for the whole batch, then Kronecker-multiplied
    per row slice (a random slice size, the last slice ragged), equal the
    rows of the broadcast formula exactly, dtype included, for real and
    complex prefixes and shared and per-row angles; each row is within
    1e-12 of the dense oracle's run of the prefix."""
    rng = np.random.default_rng(seed)
    circuit, prefix, n_prefix_params = prefixed_circuit(rng, n, real)
    binding = random_binding(rng, circuit, batch)
    vectors = prefix_vectors(circuit, binding)
    expected = broadcast_product_state(circuit, binding, batch)
    size = int(rng.integers(1, batch + 1))
    prefix_circuit = Circuit(n, prefix, n_prefix_params)
    zero = np.eye(1, 2**n)[0]
    for start in range(0, batch, size):
        rows = slice(start, min(start + size, batch))
        state = product_state(vectors, rows)
        assert state.dtype == expected.dtype and np.array_equal(state, expected[rows])
        for b in range(start, rows.stop):
            dense = dense_run(prefix_circuit, zero, row_params(binding, b))
            assert np.max(np.abs(state[b - start] - dense)) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), batch=st.integers(1, 5),
       real_circuit=st.booleans(), real_state=st.booleans())
def test_transfer_matrix_equals_the_run(seed, n, batch, real_circuit, real_state):
    """With shared angles, a batch times the transfer matrix of the steps
    from any start equals the kernel's run of those steps, to 1e-12; the
    matrix is float64 exactly when those steps are real."""
    rng = np.random.default_rng(seed)
    circuit, params = random_circuit(rng, n, max_gates=20, real=real_circuit)
    start = int(rng.integers(len(circuit.program) + 1))
    initial = np.stack([random_state_amps(rng, n, real=real_state) for _ in range(batch)])
    t = transfer_matrix(circuit, params, start)
    steps = circuit.program[start:]
    real_steps = not any(getattr(op, "kind", None) in ("rx", "rz") for op in steps)
    assert t.shape == (2**n, 2**n) and t.dtype == (float if real_steps else complex)
    expected = run_circuit_raw(initial, circuit, params, start)
    assert np.max(np.abs(initial @ t - expected)) <= 1e-12


def test_transfer_matrix_refuses_per_row_angles():
    """A per-row angle in any step the matrix would fuse is refused, even
    one with 2**n rows, which would broadcast over the basis states; a
    per-row angle before ``start`` is not read."""
    ops = (ry(0, param=0), rx(1, param=1), cnot(0, 1), rz(1, param=2), ry(0, param=3))
    circuit = Circuit(2, ops, 4)
    shared = [0.3, -0.8, 1.1, 2.0]
    for slot in range(4):
        per_row = list(shared)
        per_row[slot] = np.full(4, 0.5)
        with pytest.raises(ValueError, match=f"per-row angle slot {slot}"):
            transfer_matrix(circuit, per_row, 0)
        if slot < 2:
            t = transfer_matrix(circuit, per_row, circuit.prefix_len)
            np.testing.assert_array_equal(t, transfer_matrix(circuit, shared, circuit.prefix_len))
