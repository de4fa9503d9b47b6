"""Independent brute-force oracles the fast implementations are tested against.

Everything here is deliberately naive: textbook rotation matrices, dense
Kronecker-product unitaries, a row-by-row reference model and training
run, O(n^2) pair counting, explicit finite differences, the two-point
parameter-shift rule, ``csv.reader`` with ``float()``, a byte-by-byte PGM
tokenizer. None of it shares code with the library paths it checks.
``write_feature_csv`` and ``write_pgm`` are the writers the tests build
their input files with.
"""
import csv
import math
from collections import namedtuple

import numpy as np

_I2 = np.eye(2, dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def textbook_rotation(kind, angle):
    """RX or RY(angle) = exp(-i angle sigma / 2), written out entry by entry."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    raise ValueError(f"not a rotation gate: {kind!r}")


def _kron_chain(factors):
    out = np.array([[1.0]], dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def _on_qubit(single, target, n):
    """Full 2^n x 2^n unitary of a 2x2 matrix on one qubit, qubit 0 on the
    most significant bit."""
    factors = [_I2] * n
    factors[target] = single
    return _kron_chain(factors)


def dense_gate_matrix(op, n, params):
    """Full 2^n x 2^n unitary of one gate, qubit 0 on the most significant bit."""
    if op.kind == "cnot":
        idle = [_I2] * n
        off = list(idle)
        off[op.control] = _P0
        on = list(idle)
        on[op.control] = _P1
        on[op.target] = _X
        return _kron_chain(off) + _kron_chain(on)
    return _on_qubit(textbook_rotation(op.kind, float(params[op.param_index])), op.target, n)


def dense_circuit_matrix(circuit, params=()):
    u = np.eye(2**circuit.n_qubits, dtype=complex)
    for op in circuit.ops:
        u = dense_gate_matrix(op, circuit.n_qubits, params) @ u
    return u


def dense_run(circuit, initial_amps, params=()):
    """``dense_circuit_matrix(circuit, params) @ initial_amps``, one dense
    gate matrix at a time."""
    amps = np.asarray(initial_amps, dtype=complex)
    for op in circuit.ops:
        amps = dense_gate_matrix(op, circuit.n_qubits, params) @ amps
    return amps


def circuit_param_shift(circuit, params, measured_qubits, upstream, initial_amps,
                        shift=np.pi / 2):
    """Gradient of upstream . <Z_measured> over the parameter slots.

    Each rotation in turn is evaluated at its slot's angle +-shift with
    dense matrices; the halved difference is the exact derivative for
    rx/ry (Schuld et al., arXiv:1811.11184). Gates sharing a slot
    accumulate.
    """
    n = circuit.n_qubits
    unshifted = [dense_gate_matrix(gate, n, params) for gate in circuit.ops]
    grads = np.zeros(circuit.n_params)
    for j, op in enumerate(circuit.ops):
        if op.kind == "cnot":
            continue
        dz = np.zeros(len(measured_qubits))
        for sign in (1.0, -1.0):
            angle = float(params[op.param_index]) + sign * shift
            shifted = _on_qubit(textbook_rotation(op.kind, angle), op.target, n)
            amps = np.asarray(initial_amps, dtype=complex)
            for k, matrix in enumerate(unshifted):
                amps = (shifted if k == j else matrix) @ amps
            dz += sign / 2.0 * np.array([zexp_dense(amps, n, q) for q in measured_qubits])
        grads[op.param_index] += float(np.dot(upstream, dz))
    return grads


def _dense_cnot(control, target, n):
    """2^n x 2^n permutation matrix of a CNOT, built basis state by basis state."""
    u = np.zeros((2**n, 2**n))
    for k in range(2**n):
        flip = (k >> (n - 1 - control)) & 1
        u[k ^ (flip << (n - 1 - target)), k] = 1.0
    return u


def reference_forward(model, x):
    """(B, n_classes) class probabilities of a (B, in_dim) feature batch,
    row by row from the head's description with dense unitaries.

    dqc: pre-layer, tanh squash to +-pi/2, then per qubit q an RY of angle
    q (angle) or an RX of angle 2q then an RY of angle 2q + 1
    (dense_angle); purevqc: the row zero-padded to 2^n and normalised.
    Then ``depth`` layers of one RY per qubit and a ring of CNOTs (q to
    q + 1, then n - 1 to 0), <Z> of every qubit (dqc) or of the first
    n_classes (purevqc), the post-layer (dqc) and a softmax."""
    n, depth = model.head.n_qubits, model.head.depth
    blocks = model.blocks
    layers = np.eye(2**n, dtype=complex)
    for layer in range(depth):
        for q in range(n):
            angle = float(blocks["q"][layer * n + q])
            layers = _on_qubit(textbook_rotation("ry", angle), q, n) @ layers
        if n >= 2:
            for q in range(n):
                layers = _dense_cnot(q, (q + 1) % n, n) @ layers
    out = []
    for row in np.asarray(x, dtype=float):
        if model.head.mode == "purevqc":
            amps = np.zeros(2**n, dtype=complex)
            amps[: len(row)] = row / math.sqrt(sum(float(v) ** 2 for v in row))
            measured = range(model.head.n_classes)
        else:
            pre = blocks["pre_w"] @ row + blocks["pre_b"]
            angles = [math.tanh(float(v)) * math.pi / 2 for v in pre]
            amps = np.eye(2**n, dtype=complex)[0]
            for q in range(n):
                if model.head.embedding == "dense_angle":
                    gates = [("rx", angles[2 * q]), ("ry", angles[2 * q + 1])]
                else:
                    gates = [("ry", angles[q])]
                for kind, angle in gates:
                    amps = _on_qubit(textbook_rotation(kind, angle), q, n) @ amps
            measured = range(n)
        amps = layers @ amps
        z = np.array([zexp_dense(amps, n, q) for q in measured])
        logits = z if model.head.mode == "purevqc" else blocks["post_w"] @ z + blocks["post_b"]
        e = np.exp(logits - logits.max())
        out.append(e / e.sum())
    return np.array(out)


_Gate = namedtuple("_Gate", "kind target control param_index")
_Circuit = namedtuple("_Circuit", "n_qubits ops n_params")

# flat parameter order of every head, the classical blocks in dqc only
_BLOCK_ORDER = ("pre_w", "pre_b", "q", "post_w", "post_b")


def _reference_row(model, blocks, row, label):
    """(class probabilities, gradient of -ln p[label] per block) of one row.

    The head as ``reference_forward`` describes it, as one circuit of
    ``_Gate``s: the embedding angles on slots 0..E-1 (dqc), the layer
    angles after them. ``circuit_param_shift`` gives every angle's
    derivative; the chain rule then runs by hand through the post-layer,
    the tanh squash and the pre-layer."""
    n, depth = model.head.n_qubits, model.head.depth
    ops = []
    if model.head.mode == "purevqc":
        angles, pre = [], None
        initial = np.zeros(2**n, dtype=complex)
        initial[: len(row)] = row / math.sqrt(sum(float(v) ** 2 for v in row))
        measured = list(range(model.head.n_classes))
    else:
        pre = blocks["pre_w"] @ row + blocks["pre_b"]
        angles = [math.tanh(float(v)) * math.pi / 2 for v in pre]
        initial = np.eye(2**n, dtype=complex)[0]
        measured = list(range(n))
        for q in range(n):
            kinds = ("rx", "ry") if model.head.embedding == "dense_angle" else ("ry",)
            ops += [_Gate(kind, q, None, len(kinds) * q + k) for k, kind in enumerate(kinds)]
    for layer in range(depth):
        ops += [_Gate("ry", q, None, len(angles) + layer * n + q) for q in range(n)]
        if n >= 2:
            ops += [_Gate("cnot", (q + 1) % n, q, None) for q in range(n)]
    circuit = _Circuit(n, ops, len(angles) + n * depth)
    params = np.array(angles + [float(v) for v in blocks["q"]])
    amps = dense_run(circuit, initial, params)
    z = np.array([zexp_dense(amps, n, q) for q in measured])
    logits = z if pre is None else blocks["post_w"] @ z + blocks["post_b"]
    e = np.exp(logits - logits.max())
    probs = e / e.sum()
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    upstream = dlogits if pre is None else blocks["post_w"].T @ dlogits
    dparams = circuit_param_shift(circuit, params, measured, upstream, initial)
    grads = {"q": dparams[len(angles):]}
    if pre is not None:
        dpre = dparams[: len(angles)] * (math.pi / 2) * (1.0 - np.tanh(pre) ** 2)
        grads.update(pre_w=np.outer(dpre, row), pre_b=dpre,
                     post_w=np.outer(dlogits, z), post_b=dlogits)
    return probs, grads


def _reference_auroc(probs, labels):
    """Binary: ``auroc_pair_count`` of class 1's probability; more classes:
    the mean of each class's one-vs-rest ``auroc_pair_count``."""
    if probs.shape[1] == 2:
        return auroc_pair_count(probs[:, 1], (labels == 1).astype(int))
    per_class = [auroc_pair_count(probs[:, c], (labels == c).astype(int))
                 for c in range(probs.shape[1])]
    return sum(per_class) / len(per_class)


def reference_train(model, train_set, val_set, *, epochs, batch_size, lr, weight_decay, seed):
    """(flat theta of the selected epoch, selected epoch, val AUROC per epoch)
    of a training run, row by row with textbook arithmetic.

    Each epoch takes the minibatch row indices that ``qtlsim.data.batches``
    gives for the seed ``qtlsim.training.train`` derives; every number is
    computed here. The batch gradient is the mean of ``_reference_row``'s;
    Adam adds ``weight_decay * theta`` to it (coupled decay) and takes a
    bias-corrected step. After each epoch the val rows are scored by
    ``_reference_auroc``; the highest AUROC is selected, ties keep the
    earliest epoch."""
    from qtlsim.data import batches
    from qtlsim.seeding import derive_seed

    names = [name for name in _BLOCK_ORDER if name in model.blocks]
    theta = {name: np.array(model.blocks[name], dtype=float) for name in names}
    m = {name: np.zeros_like(value) for name, value in theta.items()}
    v = {name: np.zeros_like(value) for name, value in theta.items()}
    beta1, beta2, eps, step = 0.9, 0.999, 1e-8, 0
    best, best_epoch, aurocs = None, 0, []
    for epoch in range(1, epochs + 1):
        for rows in batches(len(train_set), batch_size, derive_seed(seed, "shuffle", epoch)):
            total = {name: np.zeros_like(value) for name, value in theta.items()}
            for i in rows:
                _, grads = _reference_row(model, theta, train_set.features[i],
                                          int(train_set.labels[i]))
                for name in names:
                    total[name] += grads[name]
            step += 1
            for name in names:
                g = total[name] / len(rows) + weight_decay * theta[name]
                m[name] = beta1 * m[name] + (1 - beta1) * g
                v[name] = beta2 * v[name] + (1 - beta2) * g * g
                m_hat = m[name] / (1 - beta1**step)
                v_hat = v[name] / (1 - beta2**step)
                theta[name] = theta[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
        probs = np.array([_reference_row(model, theta, x, 0)[0] for x in val_set.features])
        aurocs.append(_reference_auroc(probs, np.asarray(val_set.labels)))
        if aurocs[-1] > max(aurocs[:-1], default=-math.inf):
            best_epoch = epoch
            best = np.concatenate([theta[name].ravel() for name in names])
    return best, best_epoch, aurocs


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


def random_batch(rng, n, batch, halves=False):
    """``batch`` random normalised states as a kernel batch: float64
    (batch, 2^n) real states, or, when ``halves``, complex states a + ib
    as their real halves, a (2, batch, 2^n) stack [a; b]."""
    states = np.stack([random_state_amps(rng, n, real=not halves) for _ in range(batch)])
    return np.stack([states.real, states.imag]) if halves else states


def joined(amps):
    """The complex states of a kernel batch: real halves (2, ..., 2^n)
    joined as a + ib, a float64 batch as it is."""
    return amps[0] + 1j * amps[1] if np.ndim(amps) == 3 else np.asarray(amps, dtype=complex)


def whole_layer(kind, slots):
    """One rotation of ``kind`` on each qubit, in qubit order, qubit q on
    slot ``slots[q]``: a whole layer."""
    from qtlsim.sim import GateOp

    return tuple(GateOp(kind, q, param_index=int(slot)) for q, slot in enumerate(slots))


def interleaved(layers, turns):
    """The ops of whole layers, run in the qubit order ``turns``, which
    names each qubit once per layer: qubit q's j-th turn runs its rotation
    of layer j. Each qubit's rotations keep their layer order, so any
    ``turns`` compiles back to the same layers."""
    done, ops = {}, []
    for q in turns:
        k = done[q] = done.get(q, -1) + 1
        ops.append(layers[k][q])
    return tuple(ops)


def shuffled_run(rng, layers):
    """``interleaved`` layers in a random order of the qubits' turns."""
    n = len(layers[0]) if layers else 0
    return interleaved(layers, [int(q) for q in rng.permutation(np.repeat(np.arange(n),
                                                                          len(layers)))])


def random_circuit(rng, n, max_gates=12, real=False):
    """Random circuit of 1 to ``max_gates`` steps, each a cnot or a whole
    ry layer, each rotation on a slot of its own; unless ``real``, rx
    layers too before the first cnot, in the product prefix. Each run of
    layers between cnots is ``shuffled_run``."""
    from qtlsim.sim import Circuit, cnot

    ops, run, n_slots = [], [], 0
    in_prefix = not real
    for _ in range(int(rng.integers(1, max_gates + 1))):
        kind = rng.choice(["rx", "ry", "cnot"] if in_prefix else ["ry", "cnot"])
        if kind == "cnot" and n < 2:
            kind = "ry"  # no second wire for a control
        if kind == "cnot":
            target, control = (int(q) for q in rng.permutation(n)[:2])
            ops += [*shuffled_run(rng, run), cnot(control, target)]
            run, in_prefix = [], False
        else:
            run.append(whole_layer(kind, range(n_slots, n_slots + n)))
            n_slots += n
    return Circuit(n, tuple(ops) + shuffled_run(rng, run), n_slots)


def random_layered_circuit(rng, n, real=False):
    """Random circuit of one to three blocks, each a ``shuffled_run`` of 1
    to 3 whole layers, then one CNOT when n >= 2: ry, with rx too in the
    first block (the product prefix) unless ``real``. About one rotation in
    four reuses an earlier slot."""
    from qtlsim.sim import Circuit, cnot

    ops, n_slots = [], 0
    for block in range(int(rng.integers(1, 4))):
        kinds = ("ry",) if real or (block and n >= 2) else ("rx", "ry")
        run = []
        for _ in range(int(rng.integers(1, 4))):
            slots = []
            for _ in range(n):
                if n_slots and rng.integers(4) == 0:
                    slots.append(int(rng.integers(n_slots)))
                else:
                    slots.append(n_slots)
                    n_slots += 1
            run.append(whole_layer(kinds[rng.integers(len(kinds))], slots))
        ops += shuffled_run(rng, run)
        if n >= 2:
            control = int(rng.integers(n))
            ops.append(cnot(control, (control + 1) % n))
    return Circuit(n, tuple(ops), n_slots)


def random_binding(rng, circuit, batch, start=None):
    """A (batch, n_params) matrix of angles for a batched run, one row per
    state. The columns of the slots that the program steps from ``start``
    on read, the kernel's (default: those after the product prefix; pass 0
    for a run from |0...0>), are constant; each layer before them has, at
    random, per-row columns or constant ones."""
    start = circuit.prefix_len if start is None else start
    kernel = {op.param_index for step in circuit.program[start:] for op in getattr(step, "ops", ())}
    per_row = sorted({op.param_index for layer in circuit.program[:start] if rng.integers(2)
                      for op in layer.ops} - kernel)
    binding = np.tile(rng.uniform(-np.pi, np.pi, circuit.n_params), (batch, 1))
    binding[:, per_row] = rng.uniform(-np.pi, np.pi, (batch, len(per_row)))
    return binding


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


def pgm_tokens(data: bytes):
    """(token, end) of each whitespace-separated PGM token, scanned byte by
    byte: a '#' at the start of a token skips to the end of its line."""
    i = 0
    while i < len(data):
        c = data[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            yield data[i:j], j
            i = j
