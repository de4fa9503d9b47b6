"""Variational template structure, batched readout and adjoint gradients."""
import math
from collections import namedtuple
from functools import partial
from itertools import groupby
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qtlsim.hybrid import _dqc_circuit
from qtlsim.sim import (ROTATION_G, Circuit, Permutation, RotationLayer, bind_program, cnot,
                        prefix_vectors, product_state, rx, ry, run_circuit_raw, run_steps,
                        z_expectations, z_signs)
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
    joined,
    random_batch,
    random_binding,
    random_circuit,
    random_layered_circuit,
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
    program = bind_program(circuit, params, measured)
    final = run_steps(np.eye(1, 2**circuit.n_qubits), program.steps)
    return circuit_adjoint(program, params, final, [upstream])[0]


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


def test_invalid_template():
    with pytest.raises(ValueError, match="depth"):
        VqcTemplate(4, 0)
    with pytest.raises(ValueError, match="n_qubits"):
        VqcTemplate(0, 1)


def test_forward_zero_params_identity_embedding():
    z = circuit_expectations(build_layers(VqcTemplate(4, 2)), np.zeros(8), [0, 1, 2, 3])
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
    """The embedding as the circuit's first slots gives the same readout as
    the layers run by the kernel on the embedding's prepared state."""
    rng = np.random.default_rng(11)
    template = VqcTemplate(3, 1)
    params = rng.uniform(-1, 1, 3)
    feats = rng.uniform(-1, 1, 3)
    via_circuit = circuit_expectations(embedded(template), np.concatenate([params, feats]),
                                       [0, 1, 2])
    prepared = run_circuit_raw(np.eye(1, 8), Circuit(3, angle_ops(3), 3), feats)
    via_state = z_expectations(run_circuit_raw(prepared, build_layers(template), params),
                               z_signs(3, (0, 1, 2)))
    np.testing.assert_allclose(via_circuit, via_state, atol=1e-14)


def test_forward_dimension_mismatch():
    layers = build_layers(VqcTemplate(2, 1))
    with pytest.raises(ValueError, match="parameters"):
        circuit_expectations(layers, np.zeros(3), [0])
    with pytest.raises(ValueError, match="measured"):
        circuit_expectations(layers, np.zeros(2), [5])


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
    program = bind_program(layers, np.zeros(2), [0, 1])
    final = run_steps(np.eye(1, 4), program.steps)
    with pytest.raises(ValueError, match="upstream"):
        circuit_adjoint(program, np.zeros(2), final, [1.0])
    with pytest.raises(ValueError, match="upstream"):
        circuit_adjoint(program, np.zeros(2), final, [[1.0]])


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
       halves=st.booleans())
def test_adjoint_matches_param_shift_and_finite_differences(seed, n, batch, halves):
    """Per row, the batched adjoint of an ry/cnot circuit on shared angles,
    swept to step 0, equals the dense parameter-shift oracle to 1e-12 and
    central differences of the dense forward to 1e-6, on real states and on
    complex ones run as their real halves."""
    rng = np.random.default_rng(seed)
    circuit, _ = random_circuit(rng, n, max_gates=16, real=True)
    binding = random_binding(rng, circuit, batch, 0)
    initial = random_batch(rng, n, batch, halves)
    measured = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    upstream = rng.standard_normal((batch, len(measured)))

    program = bind_program(circuit, binding[0], measured)
    final = run_steps(initial, program.steps)
    grads = circuit_adjoint(program, binding, final, upstream)
    assert grads.shape == (batch, circuit.n_params) and grads.dtype == float
    for b, params in enumerate(binding):
        state = joined(initial)[b]
        shift = circuit_param_shift(circuit, params, measured, upstream[b], state)
        assert np.max(np.abs(grads[b] - shift), initial=0.0) <= 1e-12

        def loss(p):
            amps = dense_run(circuit, state, p)
            return float(upstream[b] @ [zexp_dense(amps, n, q) for q in measured])

        numeric = finite_diff(loss, params)
        assert np.max(np.abs(grads[b] - numeric), initial=0.0) < 1e-6


def prefix_run(circuit, binding, measured):
    """The ``bind_program`` of the steps after the product prefix, and
    their run from the ``product_state`` of the prefix vectors of a
    ``random_binding`` matrix."""
    program = bind_program(circuit, binding[0], measured, circuit.prefix_len)
    initial = product_state(prefix_vectors(circuit, binding))
    return program, run_steps(initial, program.steps)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), batch=st.integers(1, 3))
def test_adjoint_from_the_product_prefix_matches_param_shift(seed, n, batch):
    """A run that starts from the product state of its prefix (rx and ry,
    so real or complex vectors, on shared and per-row slots, slots shared
    across gates and, then shared by the rows, with later layers) is swept
    back through the steps after the prefix, then through the prefix's
    layers; every slot's gradient, prefix slots included, equals the dense
    parameter-shift oracle of the run from |0...0> to 1e-12."""
    rng = np.random.default_rng(seed)
    circuit, _ = random_layered_circuit(rng, n)
    binding = random_binding(rng, circuit, batch)
    measured = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    program, final = prefix_run(circuit, binding, measured)
    upstream = rng.standard_normal((batch, len(measured)))
    grads = circuit_adjoint(program, binding, final, upstream)
    assert grads.shape == (batch, circuit.n_params) and grads.dtype == float
    zero = np.eye(2**n)[0]
    for b in range(batch):
        shift = circuit_param_shift(circuit, binding[b], measured, upstream[b], zero)
        assert np.max(np.abs(grads[b] - shift)) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), batch=st.integers(1, 3))
def test_the_prefix_walk_matches_the_sweep_through_the_prefix(seed, n, batch):
    """On real circuits with shared angles, sweeping the whole program back
    from the run of |0...0> rows and sweeping the steps after the prefix,
    then walking the prefix's cross matrices, give equal gradients to 1e-12."""
    rng = np.random.default_rng(seed)
    circuit, _ = random_layered_circuit(rng, n, real=True)
    binding = random_binding(rng, circuit, batch, 0)
    measured = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    upstream = rng.standard_normal((batch, len(measured)))
    program = bind_program(circuit, binding[0], measured)
    final = run_steps(np.tile(np.eye(1, 2**n), (batch, 1)), program.steps)
    whole = circuit_adjoint(program, binding, final, upstream)
    program, final = prefix_run(circuit, binding, measured)
    walked = circuit_adjoint(program, binding, final, upstream)
    assert np.max(np.abs(whole - walked), initial=0.0) <= 1e-12


@st.composite
def fused_prefix_circuits(draw):
    """(circuit, prefix ops) on 1-5 qubits. The prefix is 1-8 runs, each 1-3
    rotations of one kind (rx or ry) on one qubit, so a qubit's runs may
    merge, alternate kinds or leave other qubits out. Every rotation reads a
    fresh slot or an earlier one, so a slot may repeat within a run, across
    runs and across qubits. On two or more qubits a CNOT ring and ry gates
    on some qubits follow, on fresh or earlier slots."""
    n = draw(st.integers(1, 5))
    ops, n_slots = [], 0

    def slot():
        nonlocal n_slots
        k = draw(st.integers(0, n_slots))  # n_slots: a fresh one
        n_slots = max(n_slots, k + 1)
        return k

    gates = {"rx": rx, "ry": ry}
    runs = st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(gates)), st.integers(1, 3))
    for target, kind, length in draw(st.lists(runs, min_size=1, max_size=8)):
        ops += [gates[kind](target, param=slot()) for _ in range(length)]
    prefix = tuple(ops)
    if n >= 2:
        ops += [cnot(q, (q + 1) % n) for q in range(n)]
        ops += [ry(q, param=slot()) for q in draw(st.lists(st.integers(0, n - 1), max_size=n))]
    return Circuit(n, tuple(ops), n_slots), prefix


@given(drawn=fused_prefix_circuits(), seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 3))
def test_fused_prefixes_match_the_dense_oracles(drawn, seed, batch):
    """Each qubit's runs of same-kind prefix rotations fuse: the prefix
    layers hold each qubit's prefix rotations in order, one layer per
    maximal run of one kind. The product state of their vectors, on shared
    and per-row slots, equals the dense oracle's run of the prefix ops one
    by one to 1e-12, the run on from it the dense run of the whole circuit,
    and the adjoint gradient swept back through the prefix the
    parameter-shift oracle's."""
    circuit, prefix = drawn
    n = circuit.n_qubits
    layers = circuit.program[: circuit.prefix_len]
    for q in range(n):
        ops = [op for op in prefix if op.target == q]
        assert [op for layer in layers for op in layer.ops if op.target == q] == ops
        runs = list(groupby(ops, key=attrgetter("kind")))
        assert sum(q in layer.targets for layer in layers) == len(runs)
    rng = np.random.default_rng(seed)
    binding = random_binding(rng, circuit, batch)
    measured = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    upstream = rng.standard_normal((batch, len(measured)))
    program = bind_program(circuit, binding[0], measured, circuit.prefix_len)
    state = product_state(prefix_vectors(circuit, binding))
    final = run_steps(state, program.steps)
    z = z_expectations(final, program.signs)
    grads = circuit_adjoint(program, binding, final, upstream)
    zero = np.eye(2**n)[0]
    prefix_only = namedtuple("Ops", "n_qubits ops")(n, prefix)
    for b, row in enumerate(binding):
        assert np.max(np.abs(joined(state)[b] - dense_run(prefix_only, zero, row))) <= 1e-12
        amps = dense_run(circuit, zero, row)
        assert np.max(np.abs(z[b] - [zexp_dense(amps, n, q) for q in measured])) <= 1e-12
        shift = circuit_param_shift(circuit, row, measured, upstream[b], zero)
        assert np.max(np.abs(grads[b] - shift)) <= 1e-12


def test_a_dqc_prefix_is_one_fused_layer_per_embedding_gate():
    """At any width and depth a dqc head's prefix is one RY layer on angle
    heads and an RX layer then an RY layer on dense_angle heads, each on
    every qubit. Qubit q's RY run reads its embedding slot, then its
    first-layer slot q, and on one qubit, which has no CNOT, every later
    layer's slot too."""
    for embedding, kinds in (("angle", ["ry"]), ("dense_angle", ["rx", "ry"])):
        for n in range(1, 6):
            for depth in range(1, 5):
                circuit = _dqc_circuit(embedding, n, depth)
                prefix = circuit.program[: circuit.prefix_len]
                assert [layer.kind for layer in prefix] == kinds
                assert all(layer.targets == list(range(n)) for layer in prefix)
                later = list(range(n, n * depth)) if n == 1 else []
                embed = n * depth + len(kinds) * np.arange(n) + len(kinds) - 1
                assert prefix[-1].runs == {q: [int(embed[q]), q, *later] for q in range(n)}


def dqc_adjoint(circuit, params, upstream):
    """The final states and circuit_adjoint of a dqc circuit run from its
    product prefix."""
    program, final = prefix_run(circuit, params, range(circuit.n_qubits))
    return final, circuit_adjoint(program, params, final, upstream)


@pytest.mark.parametrize("broken", [
    # a scaled generator keeps its kind, and the gradient scales
    {"ry": 1.3 * ROTATION_G["ry"], "rx": 1.3 * ROTATION_G["rx"]},
    # the other Pauli: ry reads -iX, imaginary, so its real-state term vanishes; rx reads -iY
    {"ry": np.array([[0, -1j], [-1j, 0]]), "rx": np.array([[0.0, -1.0], [1.0, 0.0]])},
], ids=["scaled_y", "pauli_x"])
def test_broken_ry_generator_changes_the_real_adjoint(monkeypatch, broken):
    """The sweep reads G = -i sigma from vqc's own binding of ROTATION_G at
    call time over the layers of a float64 batch, and so does the prefix
    walk: on depth-1 dqc heads, whose every rotation is in the product
    prefix, a wrong ry generator gives a wrong gradient too, and on
    dense_angle heads so does a wrong rx generator. Rebinding that name
    breaks the gradient alone: the forward's final states keep their bytes,
    and sim.ROTATION_G, which the forward reads, keeps its entries."""
    import qtlsim.sim as sim_mod
    import qtlsim.vqc as vqc_mod

    table = {kind: g.tobytes() for kind, g in sim_mod.ROTATION_G.items()}
    rng = np.random.default_rng(21)
    for n in (3, 5):
        circuit = build_layers(VqcTemplate(n, 2))
        assert {type(step) for step in circuit.program} == {RotationLayer, Permutation}
        params = rng.uniform(-np.pi, np.pi, circuit.n_params)
        initial = random_batch(rng, n, 2)
        upstream = rng.standard_normal((2, n))

        def template_run():
            program = bind_program(circuit, params, range(n))
            final = run_steps(initial, program.steps)
            return final, circuit_adjoint(program, params, final, upstream)

        runs = [("ry", template_run)]
        for embedding in ("angle", "dense_angle"):
            dqc = _dqc_circuit(embedding, n, 1)
            assert all(step.kind != "cnot" for step in dqc.program[: dqc.prefix_len])
            assert dqc.prefix_len == len(dqc.program) - 1  # only the CNOT ring follows
            angles = np.tile(rng.uniform(-np.pi, np.pi, dqc.n_params), (2, 1))
            angles[:, n:] = rng.uniform(-np.pi, np.pi, (2, dqc.n_params - n))  # q slots first
            run = partial(dqc_adjoint, dqc, angles, upstream)
            runs.append(("ry", run))
            if embedding == "dense_angle":
                runs.append(("rx", run))
        for kind, run in runs:
            final, good = run()
            with monkeypatch.context() as patch:
                patch.setattr(vqc_mod, "ROTATION_G", {**ROTATION_G, kind: broken[kind]})
                broken_final, bad = run()
                assert {k: g.tobytes() for k, g in sim_mod.ROTATION_G.items()} == table
            assert broken_final.tobytes() == final.tobytes()
            assert np.max(np.abs(bad - good)) > 1e-3


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
       batch=st.integers(1, 2), halves=st.booleans())
@example(seed=0, n=1, batch=2, halves=False)  # an empty high factor
@example(seed=1, n=2, batch=2, halves=True)
def test_adjoint_over_fused_layers_matches_param_shift(seed, n, batch, halves):
    """On circuits whose rotation runs become layers, with repeated qubits
    in a run and slots shared between gates, on angles shared by the rows,
    each row's adjoint gradient equals the dense parameter-shift oracle to
    1e-12, on real states and on real halves."""
    rng = np.random.default_rng(seed)
    circuit, _ = random_layered_circuit(rng, n, real=True)
    assert any(isinstance(step, RotationLayer) for step in circuit.program)
    binding = random_binding(rng, circuit, batch, 0)
    initial = random_batch(rng, n, batch, halves)
    measured = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    upstream = rng.standard_normal((batch, len(measured)))
    program = bind_program(circuit, binding[0], measured)
    final = run_steps(initial, program.steps)
    grads = circuit_adjoint(program, binding, final, upstream)
    assert grads.shape == (batch, circuit.n_params) and grads.dtype == float
    for b in range(batch):
        shift = circuit_param_shift(circuit, binding[b], measured, upstream[b],
                                    joined(initial)[b])
        assert np.max(np.abs(grads[b] - shift)) <= 1e-12


@pytest.mark.parametrize("n, depth, embedding", [
    (4, 2, None),  # a template: its program ends in the CNOT ring
    (1, 2, None),  # one qubit: no ring, nothing to fold
    (3, 1, "angle"),  # depth-1 dqc heads: only the ring follows the prefix
    (4, 1, "dense_angle"),
])
def test_folded_readout_and_adjoint_match_the_oracles(n, depth, embedding):
    """The forward's readout and the sweep both read the sign table that
    ``bind_program`` folded the last CNOT ring into, and both start from
    the run before the ring. On a template run from random states, on one
    qubit, where nothing folds, and on depth-1 dqc heads, whose programs
    keep no kernel step at all after the prefix, each row's <Z> equals the
    dense oracle's and its gradient the parameter-shift oracle's, to 1e-12."""
    rng = np.random.default_rng(n + 10 * depth)
    batch = 3
    measured = tuple(range(n))
    if embedding is None:
        circuit = build_layers(VqcTemplate(n, depth))
        binding = np.tile(rng.uniform(-np.pi, np.pi, circuit.n_params), (batch, 1))
        initial = random_batch(rng, n, batch)
        program = bind_program(circuit, binding[0], measured)
        final = run_steps(initial, program.steps)
        states = initial
    else:
        circuit = _dqc_circuit(embedding, n, depth)
        binding = random_binding(rng, circuit, batch)
        program, final = prefix_run(circuit, binding, measured)
        assert program.start == circuit.prefix_len and program.steps == ()
        states = np.tile(np.eye(1, 2**n), (batch, 1))
    assert len(program.steps) == len(circuit.program) - program.start - (n >= 2)
    upstream = rng.standard_normal((batch, n))
    z = z_expectations(final, program.signs)
    grads = circuit_adjoint(program, binding, final, upstream)
    for b, params in enumerate(binding):
        amps = dense_run(circuit, states[b], params)
        assert np.max(np.abs(z[b] - [zexp_dense(amps, n, q) for q in measured])) <= 1e-12
        shift = circuit_param_shift(circuit, params, measured, upstream[b], states[b])
        assert np.max(np.abs(grads[b] - shift)) <= 1e-12
