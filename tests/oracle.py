"""Independent brute-force oracles the fast implementations are tested against.

Everything here is deliberately naive: dense Kronecker-product unitaries,
O(n^2) pair counting, explicit finite differences, the two-point
parameter-shift rule, ``csv.reader`` with ``float()``. None of it shares
code with the library paths it checks. ``write_feature_csv`` and
``write_pgm`` are the writers the tests build their input files with.
"""
import csv
from dataclasses import replace

import numpy as np

from qtlsim.sim import rotation_matrix

_I2 = np.eye(2, dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _kron_chain(factors):
    out = np.array([[1.0]], dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def dense_gate_matrix(op, n, params=()):
    """Full 2^n x 2^n unitary of one gate, qubit 0 on the most significant bit."""
    if op.kind == "cnot":
        idle = [_I2] * n
        off = list(idle)
        off[op.control] = _P0
        on = list(idle)
        on[op.control] = _P1
        on[op.target] = _X
        return _kron_chain(off) + _kron_chain(on)
    if op.kind == "h":
        single = _H
    elif op.kind == "x":
        single = _X
    else:
        angle = op.angle if op.param_index is None else float(params[op.param_index])
        single = rotation_matrix(op.kind, angle)
    factors = [_I2] * n
    factors[op.target] = single
    return _kron_chain(factors)


def dense_circuit_matrix(circuit, params=()):
    u = np.eye(2**circuit.n_qubits, dtype=complex)
    for op in circuit.ops:
        u = dense_gate_matrix(op, circuit.n_qubits, params) @ u
    return u


def dense_run(circuit, initial_amps, params=()):
    return dense_circuit_matrix(circuit, params) @ initial_amps


def circuit_param_shift(circuit, params, measured_qubits, upstream, initial_amps,
                        shift=np.pi / 2):
    """Gradient of upstream . <Z_measured> over the trainable slots.

    Each trainable gate in turn is evaluated at its angle +-shift with
    dense matrices; the halved difference is the exact derivative for
    rx/ry/rz (Schuld et al., arXiv:1811.11184). Gates sharing a slot
    accumulate.
    """
    n = circuit.n_qubits
    unshifted = [dense_gate_matrix(gate, n, params) for gate in circuit.ops]
    grads = np.zeros(circuit.n_params)
    for j, op in enumerate(circuit.ops):
        if op.param_index is None:
            continue
        dz = np.zeros(len(measured_qubits))
        for sign in (1.0, -1.0):
            shifted = replace(op, angle=float(params[op.param_index]) + sign * shift,
                              param_index=None)
            amps = np.asarray(initial_amps, dtype=complex)
            for k, matrix in enumerate(unshifted):
                amps = (dense_gate_matrix(shifted, n) if k == j else matrix) @ amps
            dz += sign / 2.0 * np.array([zexp_dense(amps, n, q) for q in measured_qubits])
        grads[op.param_index] += float(np.dot(upstream, dz))
    return grads


def zexp_dense(amps, n, qubit):
    """<Z> by explicit per-basis-state sign accumulation."""
    total = 0.0
    for k, a in enumerate(amps):
        bit = (k >> (n - 1 - qubit)) & 1
        total += (1 - 2 * bit) * abs(a) ** 2
    return total


def auroc_pair_count(scores, labels):
    """O(n^2) Mann-Whitney pair counting, ties worth 0.5."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def finite_diff(f, x0, h=1e-5):
    """Central finite differences of a scalar function over a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    out = np.empty_like(x0)
    for i in range(x0.shape[0]):
        up = x0.copy()
        up[i] += h
        down = x0.copy()
        down[i] -= h
        out[i] = (f(up) - f(down)) / (2.0 * h)
    return out


def random_state_amps(rng, n, real=False):
    """A normalised random state: complex128, or float64 when ``real``."""
    amps = rng.standard_normal(2**n)
    if not real:
        amps = amps + 1j * rng.standard_normal(2**n)
    return amps / np.linalg.norm(amps)


def random_circuit(rng, n, max_gates=12, trainable=False, real=False):
    """Random mixed circuit, or only ry/h/x/cnot gates when ``real``;
    returns (circuit, params)."""
    from qtlsim.sim import Circuit, cnot, h, rx, ry, rz, x

    n_gates = int(rng.integers(1, max_gates + 1))
    ops = []
    param_vals = []
    kinds = ["ry", "h", "x", "cnot"] if real else ["rx", "ry", "rz", "h", "x", "cnot"]
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        target = int(rng.integers(n))
        if kind == "cnot":
            if n < 2:
                kind = "x"
            else:
                control = int(rng.integers(n - 1))
                if control >= target:
                    control += 1
                ops.append(cnot(control, target))
                continue
        if kind in ("rx", "ry", "rz"):
            angle = float(rng.uniform(-np.pi, np.pi))
            maker = {"rx": rx, "ry": ry, "rz": rz}[kind]
            if trainable:
                ops.append(maker(target, param=len(param_vals)))
                param_vals.append(angle)
            else:
                ops.append(maker(target, angle))
        elif kind == "h":
            ops.append(h(target))
        else:
            ops.append(x(target))
    circuit = Circuit(n, tuple(ops), len(param_vals))
    return circuit, np.array(param_vals)


def random_binding(rng, circuit, batch):
    """Angles for a batched run: per slot, a shared float or a (batch,) array."""
    return [float(rng.uniform(-np.pi, np.pi)) if rng.integers(2)
            else rng.uniform(-np.pi, np.pi, batch) for _ in range(circuit.n_params)]


def row_params(binding, row):
    """The flat parameter vector one row of a batched run sees."""
    return np.array([a if np.ndim(a) == 0 else a[row] for a in binding])


def read_feature_csv(path):
    """(group ids, label names, (N, d) features) of a feature table, by
    ``csv.reader`` and Python ``float()`` on every value, row by row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    features = np.array([[float(v) for v in row[2:]] for row in rows], dtype=float)
    return [row[0] for row in rows], [row[1] for row in rows], features


def write_feature_csv(path, dataset):
    """A ``Dataset`` as a feature table, floats in exact round-trip form."""
    width = dataset.features.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_id", "label"] + [f"f{i}" for i in range(width)])
        for group_id, label, row in zip(dataset.group_ids, dataset.labels, dataset.features):
            writer.writerow([group_id, dataset.class_names[label]]
                            + [repr(float(v)) for v in row])


def write_pgm(path, image):
    """A ``GrayImage`` as an ASCII (P2) PGM file."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n{image.side} {image.side}\n255\n")
        for row in image.pixels.reshape(image.side, image.side):
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
