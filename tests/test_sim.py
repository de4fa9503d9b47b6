"""Statevector simulator: known states, gate algebra, dense-matrix oracle."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtlsim.sim import (
    Circuit,
    StateVector,
    apply_gate,
    apply_matrix,
    apply_step,
    cnot,
    expectation_z,
    h,
    marginal_prob_one,
    probabilities,
    rotation_matrix,
    run_circuit,
    run_circuit_raw,
    rx,
    ry,
    rz,
    x,
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


def test_zero_state():
    s = StateVector.zero(3)
    assert s.amplitudes.shape == (8,)
    assert s.amplitudes[0] == 1.0


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0]))


def test_statevector_rejects_wrong_length():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))


def test_ry_pi_flips_zero():
    """RY(pi)|0> = |1>"""
    s = apply_gate(StateVector.zero(1), ry(0, math.pi))
    np.testing.assert_allclose(s.amplitudes, [0, 1], atol=1e-12)


def test_h_twice_is_identity():
    s = apply_gate(apply_gate(StateVector.zero(1), h(0)), h(0))
    np.testing.assert_allclose(s.amplitudes, [1, 0], atol=1e-12)


def test_cnot_builds_bell_state():
    s = apply_gate(StateVector.zero(2), h(0))
    s = apply_gate(s, cnot(0, 1))
    np.testing.assert_allclose(s.amplitudes, [S2, 0, 0, S2], atol=1e-12)


def test_x_on_qubit0_is_msb():
    # Qubit 0 is the most significant bit: X(0) on |000> gives index 4.
    s = apply_gate(StateVector.zero(3), x(0))
    expected = np.zeros(8)
    expected[4] = 1.0
    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-12)


def test_apply_gate_value_semantics():
    s = StateVector.zero(1)
    apply_gate(s, x(0))
    np.testing.assert_array_equal(s.amplitudes, [1, 0])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.5  # read-only


def test_apply_gate_target_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        apply_gate(StateVector.zero(2), x(3))


def test_apply_gate_unbound_parameter():
    with pytest.raises(ValueError, match="unbound parameter"):
        apply_gate(StateVector.zero(1), ry(0, param=0), params=[])


def test_gateop_validation():
    with pytest.raises(ValueError):
        ry(0)  # no binding at all
    with pytest.raises(ValueError):
        ry(0, 1.0, param=0)  # both bindings
    with pytest.raises(ValueError):
        cnot(1, 1)  # control == target
    with pytest.raises(ValueError):
        Circuit(1, (h(0),), n_params=1)  # unreferenced parameter


def test_empty_circuit_is_identity():
    rng = np.random.default_rng(0)
    s = StateVector(3, random_state_amps(rng, 3))
    out = run_circuit(s, Circuit(3, ()))
    np.testing.assert_array_equal(out.amplitudes, s.amplitudes)


def test_trainable_ry_half_pi():
    c = Circuit(1, (ry(0, param=0),), n_params=1)
    out = run_circuit(StateVector.zero(1), c, params=[math.pi / 2])
    np.testing.assert_allclose(out.amplitudes, [S2, S2], atol=1e-12)


def test_run_circuit_dimension_mismatch():
    with pytest.raises(ValueError, match="qubits"):
        run_circuit(StateVector.zero(2), Circuit(3, ()))
    with pytest.raises(ValueError, match="parameters"):
        run_circuit(StateVector.zero(1), Circuit(1, (ry(0, param=0),), 1), params=[])


def test_run_circuit_matches_dense_oracle():
    """Stride-based gate application == explicit Kronecker-product matrices."""
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(1, 5))
        circuit, params = random_circuit(rng, n, trainable=bool(trial % 2))
        initial = StateVector(n, random_state_amps(rng, n))
        fast = run_circuit(initial, circuit, params).amplitudes
        slow = dense_run(circuit, initial.amplitudes, params)
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_probabilities_known_states():
    one = apply_gate(StateVector.zero(1), x(0))
    np.testing.assert_allclose(probabilities(one), [0, 1], atol=1e-12)
    bell = apply_gate(apply_gate(StateVector.zero(2), h(0)), cnot(0, 1))
    np.testing.assert_allclose(probabilities(bell), [0.5, 0, 0, 0.5], atol=1e-12)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        s = StateVector(n, random_state_amps(rng, n))
        assert abs(probabilities(s).sum() - 1.0) < 1e-10


def test_expectation_z_basics():
    assert expectation_z(StateVector.zero(1), 0) == 1.0
    s = apply_gate(StateVector.zero(1), ry(0, math.pi / 2))
    assert abs(expectation_z(s, 0)) < 1e-12


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
def test_expectation_z_after_ry_is_cos(theta):
    s = apply_gate(StateVector.zero(1), ry(0, theta))
    assert abs(expectation_z(s, 0) - math.cos(theta)) < 1e-12


def test_expectation_z_matches_dense_sign_sum():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        s = StateVector(n, random_state_amps(rng, n))
        q = int(rng.integers(n))
        assert abs(expectation_z(s, q) - zexp_dense(s.amplitudes, n, q)) < 1e-12


def test_marginal_prob_one_known_states():
    one = apply_gate(StateVector.zero(1), x(0))
    assert marginal_prob_one(one, 0) == 1.0
    bell = apply_gate(apply_gate(StateVector.zero(2), h(0)), cnot(0, 1))
    assert abs(marginal_prob_one(bell, 0) - 0.5) < 1e-12
    assert abs(marginal_prob_one(bell, 1) - 0.5) < 1e-12


def test_marginal_consistent_with_expectation():
    """1 - P(1) == (1 + <Z>)/2 on random states."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        s = StateVector(n, random_state_amps(rng, n))
        for q in range(n):
            lhs = 1.0 - marginal_prob_one(s, q)
            rhs = (1.0 + expectation_z(s, q)) / 2.0
            assert abs(lhs - rhs) < 1e-12


def test_marginal_qubit_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        marginal_prob_one(StateVector.zero(2), 2)


def test_gates_preserve_norm():
    rng = np.random.default_rng(4)
    makers = [lambda t: h(t), lambda t: x(t),
              lambda t: rx(t, rng.uniform(-7, 7)),
              lambda t: ry(t, rng.uniform(-7, 7)),
              lambda t: rz(t, rng.uniform(-7, 7))]
    for _ in range(20):
        n = int(rng.integers(1, 5))
        s = StateVector(n, random_state_amps(rng, n))
        for make in makers:
            out = apply_gate(s, make(int(rng.integers(n))))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10
        if n >= 2:
            c = int(rng.integers(n - 1))
            out = apply_gate(s, cnot(c, n - 1) if c != n - 1 else cnot(0, 1))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_involutions():
    """X^2 = H^2 = CNOT^2 = identity on random states."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = StateVector(3, random_state_amps(rng, 3))
        t = int(rng.integers(3))
        for op in (x(t), h(t), cnot((t + 1) % 3, t)):
            twice = apply_gate(apply_gate(s, op), op)
            assert np.max(np.abs(twice.amplitudes - s.amplitudes)) < 1e-12


def test_ry_composition():
    """RY(a) RY(b) == RY(a+b) on random single-qubit states."""
    rng = np.random.default_rng(6)
    for _ in range(10):
        s = StateVector(1, random_state_amps(rng, 1))
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        composed = apply_gate(apply_gate(s, ry(0, b)), ry(0, a))
        direct = apply_gate(s, ry(0, a + b))
        assert np.max(np.abs(composed.amplitudes - direct.amplitudes)) < 1e-12


def stays_real(initial, circuit) -> bool:
    """The dtype rule: a float64 batch stays float64 until an rx or rz gate."""
    return initial.dtype == float and not any(op.kind in ("rx", "rz") for op in circuit.ops)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), batch=st.integers(1, 5),
       trainable=st.booleans(), real_circuit=st.booleans(), real_state=st.booleans())
def test_batched_run_matches_dense_oracle(seed, n, batch, trainable, real_circuit, real_state):
    """Each row of a batched run, with a mix of shared and per-row angles,
    equals the dense Kronecker-product run of that row, and keeps its norm.
    Real circuits on float64 batches (the matmul form) return float64."""
    rng = np.random.default_rng(seed)
    circuit, _ = random_circuit(rng, n, max_gates=20, trainable=trainable, real=real_circuit)
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
    circuit, _ = random_circuit(rng, n, max_gates=20, trainable=True, real=real)
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
    circuit, _ = random_circuit(rng, n, max_gates=20, trainable=True, real=True)
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
        circuit = Circuit(3, (ry(0, 0.4), gate(target, param=0), h(2), cnot(2, 0), ry(1, 0.9)), 1)
        binding = [np.array([0.7, -1.9])]
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
    ops = (ry(0, 0.3), cnot(0, 1), cnot(1, 2), cnot(2, 0), ry(1, 0.2))
    program = Circuit(3, ops).program
    assert len(program) == 3
    assert program[0] is ops[0] and program[2] is ops[4]
