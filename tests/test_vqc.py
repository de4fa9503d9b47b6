"""Variational template structure and parameter-shift gradients."""
import math

import numpy as np
import pytest

from qtlsim.embeddings import angle_embed
from qtlsim.sim import Circuit, StateVector, run_circuit
from qtlsim.vqc import (
    VqcTemplate,
    build_layers,
    circuit_expectations,
    circuit_param_shift,
)

from oracle import dense_run, finite_diff, random_state_amps, zexp_dense


def embedded(embed: Circuit, template: VqcTemplate) -> Circuit:
    """Constant-angle embedding followed by the template's trainable layers."""
    return Circuit(template.n_qubits, embed.ops + build_layers(template).ops,
                   template.n_params)


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
               if op.param_index is not None)
    assert all(op.kind == "rz" for op in build_layers(VqcTemplate(2, 1, "z")).ops
               if op.param_index is not None)


def test_invalid_template():
    with pytest.raises(ValueError, match="depth"):
        VqcTemplate(4, 0)
    with pytest.raises(ValueError, match="rotation_axis"):
        VqcTemplate(4, 1, "w")


def test_forward_zero_params_identity_embedding():
    z = circuit_expectations(build_layers(VqcTemplate(4, 2)), np.zeros(8), [0, 1, 2, 3],
                             StateVector.zero(4))
    np.testing.assert_allclose(z, np.ones(4), atol=1e-12)


def test_forward_single_qubit_is_cos_theta():
    for theta in (0.0, 0.4, 1.7, -2.2):
        z = circuit_expectations(build_layers(VqcTemplate(1, 1)), [theta], [0])
        assert abs(z[0] - math.cos(theta)) < 1e-12


def test_forward_matches_dense_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        template = VqcTemplate(4, int(rng.integers(1, 4)))
        params = rng.uniform(-np.pi, np.pi, size=template.n_params)
        embed = angle_embed(rng.uniform(-np.pi, np.pi, 4), 4)
        circuit = embedded(embed, template)
        fast = circuit_expectations(circuit, params, [0, 1, 2, 3])

        amps = dense_run(circuit, StateVector.zero(4).amplitudes, params)
        slow = [zexp_dense(amps, 4, q) for q in range(4)]
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_forward_accepts_state_or_circuit():
    rng = np.random.default_rng(11)
    template = VqcTemplate(3, 1)
    params = rng.uniform(-1, 1, 3)
    feats = rng.uniform(-1, 1, 3)
    via_circuit = circuit_expectations(embedded(angle_embed(feats, 3), template), params,
                                       [0, 1, 2])
    prepared = run_circuit(StateVector.zero(3), angle_embed(feats, 3))
    via_state = circuit_expectations(build_layers(template), params, [0, 1, 2], prepared)
    np.testing.assert_allclose(via_circuit, via_state, atol=1e-14)


def test_forward_dimension_mismatch():
    layers = build_layers(VqcTemplate(2, 1))
    with pytest.raises(ValueError, match="parameters"):
        circuit_expectations(layers, np.zeros(3), [0], StateVector.zero(2))
    with pytest.raises(ValueError, match="measured"):
        circuit_expectations(layers, np.zeros(2), [5], StateVector.zero(2))


def test_grad_single_qubit_ry():
    """d<Z>/dtheta = -sin(theta) for one RY."""
    layer = build_layers(VqcTemplate(1, 1))
    g = circuit_param_shift(layer, [math.pi / 2], [0], [1.0], StateVector.zero(1))
    assert abs(g[0] + 1.0) < 1e-12
    g0 = circuit_param_shift(layer, [0.0], [0], [1.0], StateVector.zero(1))
    assert abs(g0[0]) < 1e-12


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(12)
    for trial in range(50):
        n = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 3))
        template = VqcTemplate(n, depth)
        params = rng.uniform(-np.pi, np.pi, size=template.n_params)
        circuit = embedded(angle_embed(rng.uniform(-np.pi, np.pi, n), n), template)
        measured = list(range(n))
        upstream = rng.standard_normal(n)

        analytic = circuit_param_shift(circuit, params, measured, upstream)

        def loss(p):
            z = circuit_expectations(circuit, p, measured)
            return float(upstream @ z)

        numeric = finite_diff(loss, params)
        assert np.max(np.abs(analytic - numeric)) < 1e-6, f"trial {trial}"


def test_grad_deterministic():
    rng = np.random.default_rng(13)
    template = VqcTemplate(4, 2)
    params = rng.uniform(-np.pi, np.pi, template.n_params)
    circuit = embedded(angle_embed(rng.uniform(-1, 1, 4), 4), template)
    a = circuit_param_shift(circuit, params, [0, 1], [0.5, -0.25])
    b = circuit_param_shift(circuit, params, [0, 1], [0.5, -0.25])
    np.testing.assert_array_equal(a, b)


def test_grad_upstream_shape_checked():
    with pytest.raises(ValueError, match="upstream"):
        circuit_param_shift(build_layers(VqcTemplate(2, 1)), np.zeros(2), [0, 1], [1.0])


def test_shared_parameter_accumulates():
    """A slot used by two gates gets the sum of both shift contributions."""
    from qtlsim.sim import ry

    circuit = Circuit(1, (ry(0, param=0), ry(0, param=0)), 1)
    theta = 0.37
    g = circuit_param_shift(circuit, [theta], [0], [1.0])
    # <Z> = cos(2 theta), so d/dtheta = -2 sin(2 theta)
    assert abs(g[0] + 2.0 * math.sin(2 * theta)) < 1e-10
    z = circuit_expectations(circuit, [theta], [0])
    assert abs(z[0] - math.cos(2 * theta)) < 1e-12
