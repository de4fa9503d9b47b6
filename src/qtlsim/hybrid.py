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

from .embeddings import amplitude_embed
from .sim import Circuit, rx, ry
from .vqc import VqcTemplate, build_layers, circuit_expectations, circuit_param_shift

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


def softmax(logits) -> np.ndarray:
    """Max-subtracted softmax; safe for arbitrarily large logits."""
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


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
    """

    mode: str
    template: VqcTemplate
    theta: np.ndarray
    n_classes: int
    embedding: str
    in_dim: int = 512
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
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
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
    parameters; one parameter-shift pass then yields gradients on both
    sides of the classical/quantum boundary.
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


def _check_input(model: HybridModel, features) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.shape != (model.in_dim,):
        raise ValueError(f"expected {model.in_dim} features, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    return x


def _dqc_parts(model: HybridModel, x: np.ndarray):
    """Shared forward pieces of the dressed circuit up to the logits."""
    p = model.blocks
    pre_out = p["pre_w"] @ x + p["pre_b"]
    angles = np.tanh(pre_out) * ANGLE_SCALE
    circuit = _dqc_circuit(model.embedding, model.template.n_qubits,
                           model.template.depth, model.template.rotation_axis)
    full_params = np.concatenate([angles, p["q"]])
    measured = list(range(model.template.n_qubits))
    z = circuit_expectations(circuit, full_params, measured)
    logits = p["post_w"] @ z + p["post_b"]
    return pre_out, angles, circuit, full_params, measured, z, logits


def model_forward(model: HybridModel, features) -> np.ndarray:
    """Class probability vector for one sample."""
    x = _check_input(model, features)
    if model.mode == "dqc":
        logits = _dqc_parts(model, x)[-1]
    else:
        state = amplitude_embed(x)
        layers = build_layers(model.template)
        logits = circuit_expectations(layers, model.blocks["q"],
                                      list(range(model.n_classes)), state)
    return softmax(logits)


def model_backward(model: HybridModel, features, label: int) -> np.ndarray:
    """Exact gradient of cross_entropy(model_forward(x), label), laid out
    like ``model.theta``.

    Classical pieces are differentiated analytically; rotation angles
    (embedding and variational alike) via the parameter-shift rule,
    chained through the tanh squash into the pre-layer.
    """
    x = _check_input(model, features)
    if not 0 <= label < model.n_classes:
        raise ValueError(f"label {label} out of range for {model.n_classes} classes")
    if model.mode == "purevqc":
        state = amplitude_embed(x)
        layers = build_layers(model.template)
        measured = list(range(model.n_classes))
        logits = circuit_expectations(layers, model.blocks["q"], measured, state)
        dlogits = softmax(logits)
        dlogits[label] -= 1.0
        return circuit_param_shift(layers, model.blocks["q"], measured, dlogits, state)

    pre_out, angles, circuit, full_params, measured, z, logits = _dqc_parts(model, x)
    grad = np.empty_like(model.theta)
    g = block_views(model.layout, grad)
    dlogits = softmax(logits)
    dlogits[label] -= 1.0
    g["post_w"][...] = np.outer(dlogits, z)
    g["post_b"][...] = dlogits
    dz = model.blocks["post_w"].T @ dlogits
    dfull = circuit_param_shift(circuit, full_params, measured, dz)
    n_embed = angles.shape[0]
    g["q"][...] = dfull[n_embed:]
    dpre_out = dfull[:n_embed] * ANGLE_SCALE * (1.0 - np.tanh(pre_out) ** 2)
    g["pre_w"][...] = np.outer(dpre_out, x)
    g["pre_b"][...] = dpre_out
    return grad


def count_parameters(model: HybridModel) -> tuple[int, int]:
    """(classical, quantum) trainable parameter counts."""
    quantum = model.blocks["q"].size
    return model.theta.size - quantum, quantum


# --- optimizer ----------------------------------------------------------

@dataclass(frozen=True)
class AdamState:
    """Adam moments plus hyperparameters; weight decay is coupled L2."""

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    @classmethod
    def init(cls, n_params: int, lr: float = 1e-4, weight_decay: float = 0.0,
             beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(0, np.zeros(n_params), np.zeros(n_params), lr, beta1, beta2,
                   eps, weight_decay)


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
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params, replace(state, step=t, m=m, v=v)
