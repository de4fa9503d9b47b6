"""Layered variational circuits, their batched forward and adjoint gradients.

A template layer is one trainable RY per qubit followed by a ring of
CNOTs: adjacent pairs in ascending order, then a wraparound CNOT from the
last qubit back to the first. Layers repeat ``depth`` times, so the
parameter count is always n_qubits * depth.

Batches are float64, ``(B, 2**n)``, or real halves ``(2, B, 2**n)``.
Gradients come from adjoint differentiation (Jones & Gacon,
arXiv:2009.02823): one forward run plus one reverse sweep gives every
rotation's derivative, per row, a ``RotationLayer``'s from two per-row
cross matrices, and a product-state prefix's from its 2-vectors. The sweep
walks back through the forward's bound steps, so it builds no factors.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sim import (ROTATION_G, BoundLayer, Circuit, RotationLayer, apply_step, cnot,
                  factor_bits, rotate_vectors, run_circuit_raw, ry, z_expectations, z_signs)

# sigma of ry = exp(-i theta sigma / 2): the adjoint's own copy of what
# sim.ROTATION_G["ry"] holds as -i sigma, so that patching it breaks the
# gradient alone and grad-check's finite differences disagree (test_cli.py).
GENERATORS = {"ry": np.array([[0, -1j], [1j, 0]])}


@dataclass(frozen=True)
class VqcTemplate:
    n_qubits: int
    depth: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")

    @property
    def n_params(self) -> int:
        return self.n_qubits * self.depth


@lru_cache(maxsize=None)
def build_layers(template: VqcTemplate) -> Circuit:
    """Depth-repeated rotation + ring-CNOT layers as a trainable circuit.

    Cached, so the circuit's compiled program is built once per template.
    """
    n = template.n_qubits
    ops = []
    for layer in range(template.depth):
        for q in range(n):
            ops.append(ry(q, param=layer * n + q))
        if n >= 2:
            for q in range(n - 1):
                ops.append(cnot(q, q + 1))
            ops.append(cnot(n - 1, 0))
    return Circuit(n, tuple(ops), template.n_params)


def circuit_expectations(circuit: Circuit, params, measured_qubits) -> np.ndarray:
    """The (1, M) Z expectations of the measured qubits after the circuit,
    bound to ``params`` (one shared float per slot), runs on one |0...0>."""
    if len(params) != circuit.n_params:
        raise ValueError(f"expected {circuit.n_params} parameters, got {len(params)}")
    return z_expectations(run_circuit_raw(np.eye(1, 2**circuit.n_qubits), circuit, params),
                          measured_qubits)


def circuit_adjoint(circuit: Circuit, params, steps, measured_qubits, final: np.ndarray,
                    upstream, vectors: np.ndarray | None = None) -> np.ndarray:
    """Per-row gradient (B, n_params) of sum_k upstream[b, k] <Z_k>.

    ``final`` is the run of ``steps``, bound to ``params``: the whole
    program or, given the circuit's ``prefix_vectors``, the steps after the
    prefix from their ``product_state``. From lambda = (upstream @ signs) *
    psi, back through ``steps``, each ry adds Re<lambda|G phi>, G = -i sigma
    read from ``GENERATORS``, to its slot (G is real, so a complex state's
    term sums its halves'); phi and lambda are un-applied by the transposed
    factors. Slots accumulate."""
    upstream = np.asarray(upstream, dtype=float)
    rows = final.shape[-2]
    if upstream.shape != (rows, len(measured_qubits)):
        raise ValueError(f"upstream shape {upstream.shape} does not match "
                         f"{rows} rows x {len(measured_qubits)} measured qubits")
    n = circuit.n_qubits
    observable = upstream @ z_signs(n, tuple(measured_qubits))
    g = (-1j * np.asarray(GENERATORS["ry"])).real
    both = np.stack([final, observable * final]).reshape(2, -1, rows, 2**n)  # phi, lambda halves
    grads = np.zeros((rows, circuit.n_params))
    for step in reversed(steps):
        both = apply_step(both, step, adjoint=True)
        if isinstance(step, BoundLayer):  # its terms are taken at its input
            _add_layer_grads(grads, n, step.layer, both, g)
    if vectors is not None:
        _add_prefix_grads(grads, circuit, params, vectors, both[1])
    return grads


@lru_cache(maxsize=None)
def _reduce_index(k: int) -> np.ndarray:
    """(k, 2, 2, 2**(k-1)) table of flat positions i * 2**k + j in a k-qubit
    factor's (2**k, 2**k) cross matrix: entry [p, a, b] lists the (i, j)
    with bit p of i equal to a and j equal to i with bit p set to b, the
    diagonal when a == b and the bit-flip partner otherwise."""
    d = 2**k
    out = np.empty((k, 2, 2, d // 2), dtype=np.int64)
    for p, bits in enumerate(factor_bits(k)):
        for a in (0, 1):
            rows = np.flatnonzero(bits == a)
            out[p, a, a] = rows * d + rows
            out[p, a, 1 - a] = rows * d + (rows ^ (1 << (k - 1 - p)))
    return out


def _add_layer_grads(grads: np.ndarray, n_qubits: int, layer: RotationLayer,
                     both: np.ndarray, g: np.ndarray) -> None:
    """Add lambda . G phi of each rotation of ``layer`` to its slot, with
    (phi, lambda) = ``both`` at the layer's input (G commutes with it).
    Over the ``layer_factors`` split of each state, the per-row cross
    matrix of a factor, lambda^T phi summed over the other index and the
    halves, is one matmul; its diagonal and bit-flip entries give each
    qubit's 2x2 cross matrix R_q, and the term is sum_ab G[a, b] R_q[a, b]."""
    split = n_qubits // 2
    s = both.reshape(both.shape[:-1] + (2**split, 2 ** (n_qubits - split)))
    phi, lam = s[0], s[1]
    rows = grads.shape[0]
    reduced = []
    for cross in (lam @ np.swapaxes(phi, -1, -2), np.swapaxes(lam, -1, -2) @ phi):
        d = cross.shape[-1]
        index = _reduce_index(d.bit_length() - 1)
        flat = cross.reshape(-1, rows, d * d)  # halves first
        reduced.append(np.take(flat, index, axis=2).sum(axis=(0, -1)))
    reduced = np.concatenate(reduced, axis=1)  # (B, n, 2, 2), qubit 0 first
    terms = reduced[:, layer.targets].reshape(rows, len(layer.ops), 4) @ g.reshape(4)
    np.add.at(grads.T, layer.slots, terms.T)


def _add_prefix_grads(grads: np.ndarray, circuit: Circuit, params, vectors: np.ndarray,
                      lam: np.ndarray) -> None:
    """Add each prefix rotation's term to its slot, from lambda at the prefix,
    (1 or 2 real halves, B, 2**n), and the (B, n, 2) vectors v_p of the
    product state. Qubit q's environment e_q[x] sums lambda_j prod_{p != q}
    conj(v_p[j_p]) over the j with j_q = x. Back through the prefix layers,
    each rotation adds Re<e_q|G w_q>, w_q its qubit's vector, and un-applies itself."""
    n, rows, bits = circuit.n_qubits, grads.shape[0], factor_bits(circuit.n_qubits)
    index = 2 * np.arange(n)[:, None] + bits
    table = np.take(np.conj(vectors).reshape(rows, 2 * n), index, axis=1)
    loo = np.ones_like(table)  # (B, n, 2**n): conj(v_p[j_p]) multiplied over p < q ...
    np.cumprod(table[:, :-1], axis=1, out=loo[:, 1:])
    loo[:, :-1] *= np.cumprod(table[:, :0:-1], axis=1)[:, ::-1]  # ... and over p > q
    env = ((lam[:, :, None, None, :] * loo[:, :, None, :]) @ np.eye(2)[bits])[..., 0, :]
    pairs = np.array([env[0] + 1j * env[1] if len(env) == 2 else env[0], vectors])  # e, w
    gens = {"rx": ROTATION_G["rx"], "ry": -1j * np.asarray(GENERATORS["ry"])}
    for layer in reversed(circuit.program[: circuit.prefix_len]):
        e, w = pair = pairs[:, :, layer.targets]  # (2, B, k, 2)
        terms = np.sum(e.conj() * (w @ gens[layer.kind].T), axis=-1).real
        np.add.at(grads.T, layer.slots, terms.T)
        pairs[:, :, layer.targets] = rotate_vectors(layer, params, pair, -1.0)  # M^dagger
