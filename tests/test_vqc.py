"""Variational template structure, batched readout and adjoint gradients."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtlsim.sim import FUSE_MIN_QUBITS, Circuit, RotationLayer, ry, run_circuit_raw
from qtlsim.vqc import (
    VqcTemplate,
    build_layers,
    circuit_adjoint,
    circuit_expectations,
)

from oracle import (
    circuit_param_shift,
    dense_run,
    finite_diff,
    random_binding,
    random_circuit,
    random_layered_circuit,
    random_state_amps,
    row_params,
    zexp_dense,
)


def angle_ops(n, first_slot=0) -> tuple:
    """RY angle embedding: qubit q reads slot ``first_slot + q``."""
    return tuple(ry(q, param=first_slot + q) for q in range(n))


def embedded(template: VqcTemplate) -> Circuit:
    """The template's layers after an RY angle embedding on the slots past
    the layers' own: run it with ``np.concatenate([params, features])``."""
    n, p = template.n_qubits, template.n_params
    return Circuit(n, angle_ops(n, p) + build_layers(template).ops, p + n)


def adjoint_grad(circuit, params, measured, upstream):
    """circuit_adjoint for one row, from the run of |0...0> as a one-row batch."""
    final = run_circuit_raw(np.eye(1, 2**circuit.n_qubits), circuit, params)
    return circuit_adjoint(circuit, params, measured, final, [upstream])[0]


def test_parameter_count_nine_by_four_is_36():
    c = build_layers(VqcTemplate(9, 4))
    assert c.n_params == 36


def test_parameter_count_law():
    for n, d in [(1, 1), (2, 3), (4, 1), (8, 2), (9, 4)]:
        assert build_layers(VqcTemplate(n, d)).n_params == n * d


def test_ring_entangler_order():
    """Adjacent CNOTs ascending, then the last-to-first wraparound."""
    c = build_layers(VqcTemplate(4, 1))
    cnots = [(op.control, op.target) for op in c.ops if op.kind == "cnot"]
    assert cnots == [(0, 1), (1, 2), (2, 3), (3, 0)]


def test_layers_repeat_with_fresh_parameters():
    c = build_layers(VqcTemplate(3, 2))
    rotations = [op for op in c.ops if op.kind == "ry"]
    assert [op.param_index for op in rotations] == [0, 1, 2, 3, 4, 5]
    assert len([op for op in c.ops if op.kind == "cnot"]) == 2 * 3


def test_single_qubit_template_has_no_entanglers():
    c = build_layers(VqcTemplate(1, 2))
    assert all(op.kind == "ry" for op in c.ops)


def test_rotation_axis_selects_gate():
    assert all(op.kind == "rx" for op in build_layers(VqcTemplate(2, 1, "x")).ops
               if op.kind != "cnot")
    assert all(op.kind == "rz" for op in build_layers(VqcTemplate(2, 1, "z")).ops
               if op.kind != "cnot")


def test_invalid_template():
    with pytest.raises(ValueError, match="depth"):
        VqcTemplate(4, 0)
    with pytest.raises(ValueError, match="rotation_axis"):
        VqcTemplate(4, 1, "w")


def test_forward_zero_params_identity_embedding():
    z = circuit_expectations(build_layers(VqcTemplate(4, 2)), np.zeros(8), [0, 1, 2, 3],
                             np.eye(1, 16))
    np.testing.assert_allclose(z, np.ones((1, 4)), atol=1e-12)


def test_forward_single_qubit_is_cos_theta():
    for theta in (0.0, 0.4, 1.7, -2.2):
        z = circuit_expectations(build_layers(VqcTemplate(1, 1)), [theta], [0])
        assert z.shape == (1, 1)
        assert abs(z[0, 0] - math.cos(theta)) < 1e-12


def test_forward_matches_dense_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        template = VqcTemplate(4, int(rng.integers(1, 4)))
        params = np.concatenate([rng.uniform(-np.pi, np.pi, size=template.n_params),
                                 rng.uniform(-np.pi, np.pi, 4)])
        circuit = embedded(template)
        fast = circuit_expectations(circuit, params, [0, 1, 2, 3])[0]

        amps = dense_run(circuit, np.eye(16)[0], params)
        slow = [zexp_dense(amps, 4, q) for q in range(4)]
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_forward_accepts_state_or_circuit():
    rng = np.random.default_rng(11)
    template = VqcTemplate(3, 1)
    params = rng.uniform(-1, 1, 3)
    feats = rng.uniform(-1, 1, 3)
    via_circuit = circuit_expectations(embedded(template), np.concatenate([params, feats]),
                                       [0, 1, 2])
    prepared = run_circuit_raw(np.eye(1, 8), Circuit(3, angle_ops(3), 3), feats)
    via_state = circuit_expectations(build_layers(template), params, [0, 1, 2], prepared)
    np.testing.assert_allclose(via_circuit, via_state, atol=1e-14)


def test_forward_dimension_mismatch():
    layers = build_layers(VqcTemplate(2, 1))
    zero = np.eye(1, 4)
    with pytest.raises(ValueError, match="parameters"):
        circuit_expectations(layers, np.zeros(3), [0], zero)
    with pytest.raises(ValueError, match="measured"):
        circuit_expectations(layers, np.zeros(2), [5], zero)
    with pytest.raises(ValueError, match="states"):
        circuit_expectations(layers, np.zeros(2), [0], zero[0])


def test_grad_single_qubit_ry():
    """d<Z>/dtheta = -sin(theta) for one RY."""
    layer = build_layers(VqcTemplate(1, 1))
    g = adjoint_grad(layer, [math.pi / 2], [0], [1.0])
    assert abs(g[0] + 1.0) < 1e-12
    g0 = adjoint_grad(layer, [0.0], [0], [1.0])
    assert abs(g0[0]) < 1e-12


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(12)
    for trial in range(50):
        n = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 3))
        template = VqcTemplate(n, depth)
        params = rng.uniform(-np.pi, np.pi, size=template.n_params + n)
        circuit = embedded(template)
        measured = list(range(n))
        upstream = rng.standard_normal(n)

        analytic = adjoint_grad(circuit, params, measured, upstream)

        def loss(p):
            z = circuit_expectations(circuit, p, measured)[0]
            return float(upstream @ z)

        numeric = finite_diff(loss, params)
        assert np.max(np.abs(analytic - numeric)) < 1e-6, f"trial {trial}"


def test_grad_deterministic():
    rng = np.random.default_rng(13)
    template = VqcTemplate(4, 2)
    params = np.concatenate([rng.uniform(-np.pi, np.pi, template.n_params),
                             rng.uniform(-1, 1, 4)])
    circuit = embedded(template)
    a = adjoint_grad(circuit, params, [0, 1], [0.5, -0.25])
    b = adjoint_grad(circuit, params, [0, 1], [0.5, -0.25])
    np.testing.assert_array_equal(a, b)


def test_grad_upstream_shape_checked():
    layers = build_layers(VqcTemplate(2, 1))
    final = run_circuit_raw(np.eye(1, 4), layers, np.zeros(2))
    with pytest.raises(ValueError, match="upstream"):
        circuit_adjoint(layers, np.zeros(2), [0, 1], final, [1.0])
    with pytest.raises(ValueError, match="upstream"):
        circuit_adjoint(layers, np.zeros(2), [0, 1], final, [[1.0]])


def test_shared_parameter_accumulates():
    """A slot used by two gates gets the sum of both gates' contributions."""
    circuit = Circuit(1, (ry(0, param=0), ry(0, param=0)), 1)
    theta = 0.37
    g = adjoint_grad(circuit, [theta], [0], [1.0])
    # <Z> = cos(2 theta), so d/dtheta = -2 sin(2 theta)
    assert abs(g[0] + 2.0 * math.sin(2 * theta)) < 1e-10
    z = circuit_expectations(circuit, [theta], [0])
    assert abs(z[0, 0] - math.cos(2 * theta)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), batch=st.integers(1, 5),
       real_circuit=st.booleans(), real_state=st.booleans())
def test_adjoint_matches_param_shift_and_finite_differences(seed, n, batch, real_circuit,
                                                            real_state):
    """Per row, the batched adjoint equals the dense parameter-shift oracle
    to 1e-12 and central differences of the dense forward to 1e-6, on real
    circuits over float64 batches (which stay float64) and on complex ones."""
    rng = np.random.default_rng(seed)
    circuit, _ = random_circuit(rng, n, max_gates=16, real=real_circuit)
    binding = random_binding(rng, circuit, batch)
    initial = np.stack([random_state_amps(rng, n, real=real_state) for _ in range(batch)])
    measured = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    upstream = rng.standard_normal((batch, len(measured)))

    final = run_circuit_raw(initial, circuit, binding)
    if real_circuit and real_state:
        assert final.dtype == float
    grads = circuit_adjoint(circuit, binding, measured, final, upstream)
    assert grads.shape == (batch, circuit.n_params) and grads.dtype == float
    for b in range(batch):
        params = row_params(binding, b)
        shift = circuit_param_shift(circuit, params, measured, upstream[b], initial[b])
        assert np.max(np.abs(grads[b] - shift), initial=0.0) <= 1e-12

        def loss(p):
            amps = dense_run(circuit, initial[b], p)
            return float(upstream[b] @ [zexp_dense(amps, n, q) for q in measured])

        numeric = finite_diff(loss, params)
        assert np.max(np.abs(grads[b] - numeric), initial=0.0) < 1e-6


@pytest.mark.parametrize("broken", [
    1.3 * np.array([[0, -1j], [1j, 0]]),  # a scaled Y: G stays real, the gradient scales
    np.array([[0, 1], [1, 0]]),  # X: G = -iX is imaginary and the gradient vanishes
], ids=["scaled_y", "pauli_x"])
def test_broken_ry_generator_changes_the_real_adjoint(monkeypatch, broken):
    """The sweep derives G = -i sigma from GENERATORS at call time, also on
    a float64 batch and over fused layers (from FUSE_MIN_QUBITS qubits on),
    so a wrong ry generator gives a wrong gradient."""
    import qtlsim.vqc as vqc_mod

    rng = np.random.default_rng(21)
    for n in (3, FUSE_MIN_QUBITS):
        circuit = build_layers(VqcTemplate(n, 2))
        fused = any(isinstance(step, RotationLayer) for step in circuit.program)
        assert fused == (n >= FUSE_MIN_QUBITS)
        params = rng.uniform(-np.pi, np.pi, circuit.n_params)
        initial = np.stack([random_state_amps(rng, n, real=True) for _ in range(2)])
        final = run_circuit_raw(initial, circuit, params)
        assert final.dtype == float
        upstream = rng.standard_normal((2, n))
        good = circuit_adjoint(circuit, params, range(n), final, upstream)
        with monkeypatch.context() as patch:
            patch.setitem(vqc_mod.GENERATORS, "ry", broken)
            bad = circuit_adjoint(circuit, params, range(n), final, upstream)
        assert np.max(np.abs(bad - good)) > 1e-3


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(FUSE_MIN_QUBITS, 7),
       batch=st.integers(1, 2), real=st.booleans())
def test_adjoint_over_fused_layers_matches_param_shift(seed, n, batch, real):
    """On circuits whose rotation runs become layers, with repeated qubits
    in a run, slots shared between gates, mixed rx/ry/rz (ry only when
    ``real``) and shared and per-row slots, each row's adjoint gradient
    equals the dense parameter-shift oracle to 1e-12."""
    rng = np.random.default_rng(seed)
    circuit, _ = random_layered_circuit(rng, n, real=real)
    assert any(isinstance(step, RotationLayer) for step in circuit.program)
    binding = random_binding(rng, circuit, batch)
    initial = np.stack([random_state_amps(rng, n, real=real) for _ in range(batch)])
    measured = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    upstream = rng.standard_normal((batch, len(measured)))
    final = run_circuit_raw(initial, circuit, binding)
    grads = circuit_adjoint(circuit, binding, measured, final, upstream)
    assert grads.shape == (batch, circuit.n_params) and grads.dtype == float
    for b in range(batch):
        shift = circuit_param_shift(circuit, row_params(binding, b), measured, upstream[b],
                                    initial[b])
        assert np.max(np.abs(grads[b] - shift)) <= 1e-12
