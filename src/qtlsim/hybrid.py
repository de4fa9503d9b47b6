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
from functools import cached_property, lru_cache

import numpy as np

from .embeddings import amplitude_qubits, amplitude_rows
from .sim import (BoundProgram, Circuit, bind_program, prefix_vectors, product_state, run_steps,
                  rx, z_expectations)
from .vqc import VqcTemplate, build_layers, circuit_adjoint

# mode -> the embeddings it accepts; MODES and EMBEDDINGS orders are the
# checkpoint tag values, so only ever append to them
PAIRINGS = {"dqc": ("angle", "dense_angle"), "purevqc": ("amplitude",)}
MODES = tuple(PAIRINGS)
EMBEDDINGS = ("angle", "dense_angle", "amplitude")

ANGLE_SCALE = math.pi / 2.0

# factor_bits and dqc's z_signs table each hold n * 2**n 8-byte entries:
# 8 MiB at 16 qubits, 160 MiB at 20
MAX_QUBITS = 16

# Binding a head costs time and memory linear in its depth, once per
# minibatch: at depth 256 the first bind took 0.09 s at 4 qubits, and 2.9 s,
# a 541 MiB traced peak and 278 MiB held at 16 qubits, each later bind
# 0.67 s; depth 10**6 would take about 8 minutes and 3.5 GiB
MAX_DEPTH = 256


@dataclass(frozen=True)
class Head:
    """A classifier head's shape: mode, embedding, circuit width and depth,
    class count and feature width. Construction raises ValueError, prefixed
    by the offending config keys, for a head that cannot be built."""

    mode: str
    embedding: str
    n_qubits: int
    depth: int
    n_classes: int
    in_dim: int

    def __post_init__(self):
        for key in ("n_qubits", "depth", "in_dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key}: must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode: must be one of {MODES}, got {self.mode!r}")
        if self.embedding not in EMBEDDINGS:
            raise ValueError(f"embedding: unknown embedding {self.embedding!r}")
        if self.embedding not in PAIRINGS[self.mode]:
            raise ValueError(
                f"mode, embedding: {self.mode} requires embedding = "
                f"{' or '.join(PAIRINGS[self.mode])}, got {self.embedding!r}"
            )
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(f"n_qubits: at most {MAX_QUBITS} qubits can be simulated, "
                             f"got {self.n_qubits}")
        if self.depth > MAX_DEPTH:
            raise ValueError(f"depth: at most {MAX_DEPTH} layers, got {self.depth}")
        if self.n_classes < 2:
            raise ValueError("n_classes: need at least 2 classes")
        if self.mode == "purevqc":
            want = amplitude_qubits(self.in_dim)
            if self.n_qubits != want:
                raise ValueError(
                    f"n_qubits, in_dim: amplitude embedding of {self.in_dim} features "
                    f"uses {want} qubits, got n_qubits = {self.n_qubits}"
                )
            if self.n_classes > self.n_qubits:
                raise ValueError(
                    f"n_classes, n_qubits: purevqc measures one qubit per class: "
                    f"{self.n_classes} classes need at least {self.n_classes} qubits, "
                    f"got {self.n_qubits}"
                )

    @property
    def layout(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(name, shape) of each parameter block, in flat-vector order.

        The order is the checkpoint's: pre W, pre b, q, post W, post b, with
        the classical blocks present only in dqc mode.
        """
        n = self.n_qubits
        q = ("q", (n * self.depth,))
        if self.mode != "dqc":
            return (q,)
        width = n if self.embedding == "angle" else 2 * n  # dense_angle: 2 per qubit
        return (("pre_w", (width, self.in_dim)), ("pre_b", (width,)), q,
                ("post_w", (self.n_classes, n)), ("post_b", (self.n_classes,)))

    @cached_property
    def embedding_columns(self) -> np.ndarray:
        """The angle-matrix column that each dqc pre-layer output adds to:
        qubit j's RY output to its first-layer slot j, as RY(q_j) RY(t_j) =
        RY(t_j + q_j), and a dense_angle head's RX output to its slot Q + j."""
        j = np.arange(self.n_qubits)
        if self.embedding == "dense_angle":
            j = np.stack([j + j.size * self.depth, j], 1).ravel()
        j.flags.writeable = False
        return j

    def bind(self, q) -> BoundProgram:
        """The ``bind_program`` of the head's circuit: the steps after the
        initial states read only the q slots, the circuit's first, so they
        bind to the q block ``q`` itself, once for every row of a call."""
        if self.mode == "purevqc":
            layers = build_layers(VqcTemplate(self.n_qubits, self.depth))
            return bind_program(layers, q, range(self.n_classes))
        circuit = _dqc_circuit(self.embedding, self.n_qubits, self.depth)
        return bind_program(circuit, q, range(self.n_qubits), circuit.prefix_len)


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


def cross_entropy(probs, labels) -> float:
    """Batch mean of -ln p[label] over the rows of (B, n_classes) ``probs``,
    each true-class probability clamped at 1e-12; math.log, because np.log
    differs from it by 1 ulp on some probabilities."""
    p = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    bad = labels[(labels < 0) | (labels >= p.shape[1])]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range for {p.shape[1]} classes")
    true_class = np.maximum(p[np.arange(len(labels)), labels], 1e-12)
    return float(np.mean([-math.log(v) for v in true_class.tolist()]))


@dataclass(frozen=True)
class HybridModel:
    """A head plus one flat, finite, read-only parameter vector.

    ``blocks`` maps each ``Head.layout`` name to a read-only view of
    ``theta``; a new model is ``replace(model, theta=...)``.
    ``class_names`` is the label mapping the model was trained on, one
    name per class, or empty when unknown.
    """

    head: Head
    theta: np.ndarray
    class_names: tuple[str, ...] = ()
    blocks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layout, n_classes = self.head.layout, self.head.n_classes
        theta = np.array(self.theta, dtype=float)  # a copy, so the caller cannot mutate it
        if theta.shape != (layout_size(layout),):
            raise ValueError(f"expected {layout_size(layout)} parameters, got shape {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("parameters must be finite")
        names = tuple(self.class_names)
        if names and not (len(set(names)) == len(names) == n_classes
                          and all(name and "\n" not in name for name in names)):
            raise ValueError(f"class_names must be {n_classes} distinct non-empty "
                             f"names without line breaks, got {names!r}")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "blocks", block_views(layout, theta))


def init_model(head: Head, rng: np.random.Generator) -> HybridModel:
    """Fresh model: dense blocks uniform in +-1/sqrt(fan-in), small q.

    q is drawn first, then the dense blocks in layout order.
    """
    layout = head.layout
    theta = np.empty(layout_size(layout))
    views = block_views(layout, theta)
    pre, post = 1.0 / math.sqrt(head.in_dim), 1.0 / math.sqrt(head.n_qubits)
    bounds = {"q": 0.1, "pre_w": pre, "pre_b": pre, "post_w": post, "post_b": post}
    for name in ["q"] + [name for name, _ in layout if name != "q"]:
        views[name][...] = rng.uniform(-bounds[name], bounds[name], size=views[name].shape)
    return HybridModel(head, theta)


@lru_cache(maxsize=None)
def _dqc_circuit(embedding: str, n_qubits: int, depth: int) -> Circuit:
    """The ``build_layers`` circuit, after an embedding RX per qubit on a
    dense_angle head: slots 0..Q-1 are the layer parameters, slot Q + j
    qubit j's RX angle. The embedding RY angles have no gate: each adds to
    its qubit's first-layer slot (``Head.embedding_columns``), so the prefix
    is [an RX layer] (dense_angle only), then the first layer's RY layer.
    One adjoint sweep yields gradients on both sides of the
    classical/quantum boundary.
    """
    layers = build_layers(VqcTemplate(n_qubits, depth))
    if embedding == "angle":
        return layers
    embed = [rx(q, param=layers.n_params + q) for q in range(n_qubits)]
    return Circuit(n_qubits, (*embed, *layers.ops), layers.n_params + n_qubits)


def _check_batch(model: HybridModel, features) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != model.head.in_dim:
        raise ValueError(f"expected (B, {model.head.in_dim}) features, got shape {x.shape}")
    return x


def _run_block(model: HybridModel, program: BoundProgram, x: np.ndarray):
    """(params, pre-layer output, final states, <Z> readout, logits) of
    feature rows ``x``, run from their amplitude rows or ``product_state``
    through the ``Head.bind`` program; purevqc has no pre-layer output."""
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    p = model.blocks
    if model.head.mode == "purevqc":
        params, pre_out, amps = p["q"], None, amplitude_rows(x)
    else:
        pre_out = x @ p["pre_w"].T + p["pre_b"]
        params = np.zeros((len(x), program.circuit.n_params))  # each row: q, then the RX angles
        params[:, : p["q"].size] = p["q"]
        # RY(q_j) RY(t_j) = RY(t_j + q_j), and q + t is t + q bit for bit
        params[:, model.head.embedding_columns] += np.tanh(pre_out) * ANGLE_SCALE
        amps = product_state(prefix_vectors(program.circuit, params))
    final = run_steps(amps, program.steps)
    z = z_expectations(final, program.signs)
    logits = z if model.head.mode == "purevqc" else z @ p["post_w"].T + p["post_b"]
    return params, pre_out, final, z, logits


def model_forward(model: HybridModel, features) -> np.ndarray:
    """(B, n_classes) class probabilities of a (B, in_dim) feature batch.

    The head's program is bound once per call, then the rows run through
    it in blocks of 2**14 amplitudes, so that working memory does not grow
    with B: each block takes its own finiteness check, pre-layer, squash,
    initial states, run, <Z> readout and logits into one (B, n_classes) array.
    """
    x = _check_batch(model, features)
    program = model.head.bind(model.blocks["q"])
    block = max(1, 2**14 >> model.head.n_qubits)
    logits = np.empty((x.shape[0], model.head.n_classes))
    for i in range(0, x.shape[0], block):
        logits[i : i + block] = _run_block(model, program, x[i : i + block])[-1]
    return softmax(logits)


def model_backward(model: HybridModel, features, labels) -> np.ndarray:
    """Exact batch-mean gradient of the cross-entropy of
    ``model_forward(features)`` against ``labels``, laid out like
    ``model.theta``.

    One forward run of the whole batch and one adjoint reverse sweep
    through the same bound steps (for dqc down to the product prefix, then
    through its layers' 2x2s) give every rotation angle's gradient,
    embedding and variational alike; the classical pieces are differentiated
    analytically, chained through the tanh squash into the pre-layer.
    """
    x = _check_batch(model, features)
    head = model.head
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (x.shape[0],) or np.any((labels < 0) | (labels >= head.n_classes)):
        raise ValueError(f"expected {x.shape[0]} labels in [0, {head.n_classes}), got {labels!r}")
    program = head.bind(model.blocks["q"])
    params, pre_out, final, z, logits = _run_block(model, program, x)
    dlogits = softmax(logits)
    dlogits[np.arange(x.shape[0]), labels] -= 1.0
    upstream = dlogits if head.mode == "purevqc" else dlogits @ model.blocks["post_w"]
    dfull = circuit_adjoint(program, params, final, upstream)
    grad = np.empty_like(model.theta)
    g = block_views(head.layout, grad)
    n_q = g["q"].size  # the q slots come first in both heads' circuits
    g["q"][...] = dfull[:, :n_q].sum(axis=0)
    if head.mode == "dqc":
        dpre_out = dfull[:, head.embedding_columns] * ANGLE_SCALE * (1.0 - np.tanh(pre_out) ** 2)
        g["pre_w"][...] = dpre_out.T @ x
        g["pre_b"][...] = dpre_out.sum(axis=0)
        g["post_w"][...] = dlogits.T @ z
        g["post_b"][...] = dlogits.sum(axis=0)
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
    weight_decay: float

    @classmethod
    def init(cls, n_params: int, lr: float, weight_decay: float) -> "AdamState":
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
