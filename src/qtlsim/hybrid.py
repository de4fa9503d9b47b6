"""The two classifier heads and their training math.

``dqc`` sandwiches the variational circuit between two dense layers: the
pre-layer maps the frozen 512-dim backbone features down to rotation
angles, the post-layer maps all per-qubit Z expectations to class
logits. ``purevqc`` has no classical layers at all: features are
amplitude-embedded and the first n_classes qubits are read out as
logits directly.

Dense outputs are squashed to angles via tanh(.) * pi/2 before angle
embedding; unbounded outputs would alias under 2pi-periodic rotations.
The squash derivative participates in backprop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .embeddings import amplitude_rows
from .sim import (Circuit, prefix_vectors, product_state, run_circuit_raw, rx, ry,
                  transfer_matrix, z_expectations, z_signs)
from .vqc import VqcTemplate, build_layers, circuit_adjoint

# mode -> the embeddings it accepts; MODES and EMBEDDINGS orders are the
# checkpoint tag values, so only ever append to them
PAIRINGS = {"dqc": ("angle", "dense_angle"), "purevqc": ("amplitude",)}
MODES = tuple(PAIRINGS)
EMBEDDINGS = ("angle", "dense_angle", "amplitude")

ANGLE_SCALE = math.pi / 2.0


def check_model_shape(mode: str, embedding: str, n_qubits: int, n_classes: int,
                      in_dim: int):
    """Raise ValueError, prefixed by the offending config keys, for a head
    that cannot be built."""
    if mode not in MODES:
        raise ValueError(f"mode: must be one of {MODES}, got {mode!r}")
    if embedding not in EMBEDDINGS:
        raise ValueError(f"embedding: unknown embedding {embedding!r}")
    if embedding not in PAIRINGS[mode]:
        raise ValueError(
            f"mode, embedding: {mode} requires embedding = "
            f"{' or '.join(PAIRINGS[mode])}, got {embedding!r}"
        )
    if n_classes < 2:
        raise ValueError("n_classes: need at least 2 classes")
    if mode == "purevqc":
        want = max(1, math.ceil(math.log2(in_dim)))
        if n_qubits != want:
            raise ValueError(
                f"n_qubits, in_dim: amplitude embedding of {in_dim} features "
                f"uses {want} qubits, got n_qubits = {n_qubits}"
            )
        if n_classes > n_qubits:
            raise ValueError(
                f"n_classes, n_qubits: purevqc measures one qubit per class: "
                f"{n_classes} classes need at least {n_classes} qubits, got {n_qubits}"
            )


def param_layout(mode: str, embedding: str, n_qubits: int, depth: int,
                 n_classes: int, in_dim: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, shape) of each parameter block, in flat-vector order.

    The order is the checkpoint's: pre W, pre b, q, post W, post b, with
    the classical blocks present only in dqc mode.
    """
    q = ("q", (n_qubits * depth,))
    if mode != "dqc":
        return (q,)
    width = n_qubits if embedding == "angle" else 2 * n_qubits  # dense_angle: 2 per qubit
    return (("pre_w", (width, in_dim)), ("pre_b", (width,)), q,
            ("post_w", (n_classes, n_qubits)), ("post_b", (n_classes,)))


def layout_size(layout) -> int:
    return sum(math.prod(shape) for _, shape in layout)


def block_views(layout, vec: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> view of that block inside the flat vector ``vec``."""
    views, pos = {}, 0
    for name, shape in layout:
        count = math.prod(shape)
        views[name] = vec[pos : pos + count].reshape(shape)
        pos += count
    return views


class NonFiniteLogits(ValueError):
    """The forward pass overflowed: a logit is inf or nan."""


def softmax(logits) -> np.ndarray:
    """Max-subtracted softmax over the last axis; safe for arbitrarily
    large finite logits."""
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise NonFiniteLogits("logits must be finite")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs, label: int) -> float:
    """-ln p[label], with the probability clamped at 1e-12."""
    p = np.asarray(probs, dtype=float)
    if not 0 <= label < p.shape[0]:
        raise ValueError(f"label {label} out of range for {p.shape[0]} classes")
    return -math.log(max(float(p[label]), 1e-12))


@dataclass(frozen=True)
class HybridModel:
    """A head's shape plus one flat, finite, read-only parameter vector.

    ``blocks`` maps each ``param_layout`` name to a read-only view of
    ``theta``; a new model is ``replace(model, theta=...)``.
    ``class_names`` is the label mapping the model was trained on, one
    name per class, or empty when unknown.
    """

    mode: str
    template: VqcTemplate
    theta: np.ndarray
    n_classes: int
    embedding: str
    in_dim: int = 512
    class_names: tuple[str, ...] = ()
    blocks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_model_shape(self.mode, self.embedding, self.template.n_qubits,
                          self.n_classes, self.in_dim)
        layout = self.layout
        theta = np.array(self.theta, dtype=float)  # a copy, so the caller cannot mutate it
        if theta.shape != (layout_size(layout),):
            raise ValueError(f"expected {layout_size(layout)} parameters, got shape {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("parameters must be finite")
        names = tuple(self.class_names)
        if names and not (len(set(names)) == len(names) == self.n_classes
                          and all(name and "\n" not in name for name in names)):
            raise ValueError(f"class_names must be {self.n_classes} distinct non-empty "
                             f"names without line breaks, got {names!r}")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "blocks", block_views(layout, theta))

    @property
    def layout(self):
        t = self.template
        return param_layout(self.mode, self.embedding, t.n_qubits, t.depth,
                            self.n_classes, self.in_dim)


def init_model(mode: str, embedding: str, n_qubits: int, depth: int,
               n_classes: int, rng: np.random.Generator, in_dim: int = 512) -> HybridModel:
    """Fresh model: dense blocks uniform in +-1/sqrt(fan-in), small q.

    q is drawn first, then the dense blocks in layout order.
    """
    layout = param_layout(mode, embedding, n_qubits, depth, n_classes, in_dim)
    theta = np.empty(layout_size(layout))
    views = block_views(layout, theta)
    pre, post = 1.0 / math.sqrt(in_dim), 1.0 / math.sqrt(n_qubits)
    bounds = {"q": 0.1, "pre_w": pre, "pre_b": pre, "post_w": post, "post_b": post}
    for name in ["q"] + [name for name, _ in layout if name != "q"]:
        views[name][...] = rng.uniform(-bounds[name], bounds[name], size=views[name].shape)
    return HybridModel(mode, VqcTemplate(n_qubits, depth), theta, n_classes, embedding,
                       in_dim=in_dim)


@lru_cache(maxsize=None)
def _dqc_circuit(embedding: str, n_qubits: int, depth: int, axis: str) -> Circuit:
    """Embedding + layers with every rotation angle exposed as trainable.

    Slots 0..E-1 are the embedding angles in feature order (angle: RY
    per qubit; dense_angle: RX then RY per qubit), slots E.. the layer
    parameters; one adjoint sweep then yields gradients on both sides of
    the classical/quantum boundary.
    """
    if embedding == "angle":
        embed = [ry(q, param=q) for q in range(n_qubits)]
    else:
        embed = [gate(q, param=2 * q + k) for q in range(n_qubits)
                 for k, gate in enumerate((rx, ry))]
    layers = build_layers(VqcTemplate(n_qubits, depth, axis))
    shifted = [op if op.param_index is None
               else replace(op, param_index=op.param_index + len(embed))
               for op in layers.ops]
    return Circuit(n_qubits, tuple(embed + shifted), len(embed) + layers.n_params)


def _check_batch(model: HybridModel, features) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != model.in_dim:
        raise ValueError(f"expected (B, {model.in_dim}) features, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    return x


def _circuit_inputs(model: HybridModel, x: np.ndarray):
    """(circuit, params, measured qubits, initial states, first program step
    left to run, pre-layer output) of a feature batch; the pre-layer output
    is None in purevqc. ``initial(rows)`` gives the initial states of the
    row slice ``rows``: for dqc, the circuit's product prefix run on
    |0...0>, whose per-qubit vectors are built here once for all rows; for
    purevqc, the amplitude embedding. The steps from the returned start on
    read shared slots only, so any row slice runs them with ``params``."""
    t = model.template
    if model.mode == "purevqc":
        return (build_layers(t), model.blocks["q"], range(model.n_classes),
                lambda rows: amplitude_rows(x[rows]), 0, None)
    p = model.blocks
    pre_out = x @ p["pre_w"].T + p["pre_b"]
    angles = np.tanh(pre_out) * ANGLE_SCALE  # one per-row slot per embedding gate
    circuit = _dqc_circuit(model.embedding, t.n_qubits, t.depth, t.rotation_axis)
    params = [*angles.T, *p["q"]]
    vectors = prefix_vectors(circuit, params)
    return (circuit, params, range(t.n_qubits), lambda rows: product_state(vectors, rows),
            circuit.prefix_len, pre_out)


def _logits(model: HybridModel, z: np.ndarray) -> np.ndarray:
    if model.mode == "purevqc":
        return z
    return z @ model.blocks["post_w"].T + model.blocks["post_b"]


def model_forward(model: HybridModel, features) -> np.ndarray:
    """(B, n_classes) class probabilities of a (B, in_dim) feature batch.

    The pre-layer, tanh squash and (dqc) per-qubit prefix vectors are
    computed once per call for all rows; the circuit then runs on
    contiguous row slices, 2**13 amplitudes' worth of states at a time.
    When B >= 2**n and 2**n * 2**n <= B * in_dim, the program steps left
    after the initial states (dqc: after the product prefix) are built once
    per call into the transfer matrix T: their run on the 2**n basis
    states, which costs what 2**n rows through the gates cost and holds no
    more numbers than the features. Each slice's initial states then take
    one matrix product with T; complex states a + ib against a real T take
    one real product of the stacked rows [a; b], whose squared halves sum
    to the probabilities. Smaller batches run the program step by step.
    """
    x = _check_batch(model, features)
    n = model.template.n_qubits
    circuit, params, measured, initial, start, _ = _circuit_inputs(model, x)
    transfer = None
    if x.shape[0] >= 2**n and 4**n <= x.size:
        transfer = transfer_matrix(circuit, params, start)
    chunk = max(1, 2**13 >> n)  # 2**13 amplitudes per state batch
    z = []
    for i in range(0, x.shape[0], chunk):
        amps = initial(slice(i, min(i + chunk, x.shape[0])))
        if transfer is None:
            z.append(z_expectations(run_circuit_raw(amps, circuit, params, start), measured))
        elif np.iscomplexobj(amps) and not np.iscomplexobj(transfer):
            halves = np.concatenate([amps.real, amps.imag]) @ transfer
            probs = halves[: len(amps)] ** 2 + halves[len(amps) :] ** 2
            z.append(probs @ z_signs(n, tuple(measured)).T)
        else:
            z.append(z_expectations(amps @ transfer, measured))
    return softmax(_logits(model, np.concatenate(z)))


def model_backward(model: HybridModel, features, labels) -> np.ndarray:
    """Exact batch-mean gradient of the cross-entropy of
    ``model_forward(features)`` against ``labels``, laid out like
    ``model.theta``.

    One forward run of the whole batch and one adjoint reverse sweep give
    every rotation angle's gradient, embedding and variational alike; the
    classical pieces are differentiated analytically, chained through the
    tanh squash into the pre-layer.
    """
    x = _check_batch(model, features)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (x.shape[0],) or np.any((labels < 0) | (labels >= model.n_classes)):
        raise ValueError(f"expected {x.shape[0]} labels in [0, {model.n_classes}), got {labels!r}")
    circuit, params, measured, initial, start, pre_out = _circuit_inputs(model, x)
    final = run_circuit_raw(initial(slice(0, x.shape[0])), circuit, params, start)
    z = z_expectations(final, measured)
    dlogits = softmax(_logits(model, z))
    dlogits[np.arange(x.shape[0]), labels] -= 1.0
    if model.mode == "purevqc":
        return circuit_adjoint(circuit, params, measured, final, dlogits).sum(axis=0) / x.shape[0]

    grad = np.empty_like(model.theta)
    g = block_views(model.layout, grad)
    g["post_w"][...] = dlogits.T @ z
    g["post_b"][...] = dlogits.sum(axis=0)
    dfull = circuit_adjoint(circuit, params, measured, final, dlogits @ model.blocks["post_w"])
    n_embed = pre_out.shape[1]
    g["q"][...] = dfull[:, n_embed:].sum(axis=0)
    dpre_out = dfull[:, :n_embed] * ANGLE_SCALE * (1.0 - np.tanh(pre_out) ** 2)
    g["pre_w"][...] = dpre_out.T @ x
    g["pre_b"][...] = dpre_out.sum(axis=0)
    return grad / x.shape[0]


def count_parameters(model: HybridModel) -> tuple[int, int]:
    """(classical, quantum) trainable parameter counts."""
    quantum = model.blocks["q"].size
    return model.theta.size - quantum, quantum


# --- optimizer ----------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AdamState:
    """Adam moments, learning rate and weight decay (coupled L2)."""

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float
    weight_decay: float = 0.0

    @classmethod
    def init(cls, n_params: int, lr: float = 1e-4, weight_decay: float = 0.0) -> "AdamState":
        return cls(0, np.zeros(n_params), np.zeros(n_params), lr, weight_decay)


def adam_step(state: AdamState, params, grads) -> tuple[np.ndarray, AdamState]:
    """One Adam update; weight decay is added to the gradient before moments."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"moments {state.m.shape}"
        )
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradients")
    g = grads + state.weight_decay * params
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, replace(state, step=t, m=m, v=v)
