"""Layered variational circuits, their batched forward and adjoint gradients.

A template layer is one trainable RY per qubit followed by a ring of
CNOTs: adjacent pairs in ascending order, then a wraparound CNOT from the
last qubit back to the first. Layers repeat ``depth`` times, so the
parameter count is always n_qubits * depth.

Batches are float64, ``(B, 2**n)``, or real halves ``(2, B, 2**n)``.
Gradients come from adjoint differentiation (Jones & Gacon,
arXiv:2009.02823): one forward run plus one reverse sweep gives every
rotation's derivative, per row, from each qubit's 2x2 cross matrix of
the sweep's two states; a layer spans the register, so its terms read the
whole qubit axis of cross matrices at once. The sweep reads the forward's
folded sign table and walks back through its bound steps, so it builds no
factors; at a product-state prefix it walks the cross matrices themselves
back through the prefix's 2x2s, and stops at the earliest prefix layer,
whose terms need no walk past it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# the sweep reads ROTATION_G by this module's name: rebinding it breaks the gradient alone
from .sim import (ROTATION_G, BoundLayer, BoundProgram, Circuit, RotationLayer, apply_step, cnot,
                  factor_bits, rotation_matrices, run_circuit_raw, ry, z_expectations, z_signs)


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
                          z_signs(circuit.n_qubits, tuple(measured_qubits)))


def circuit_adjoint(program: BoundProgram, params, final: np.ndarray, upstream) -> np.ndarray:
    """Per-row gradient (B, n_params) of sum_k upstream[b, k] <Z_k>.

    ``final`` is the run of ``program``: from step 0, or from
    ``program.start`` on the ``product_state`` of the ``prefix_vectors`` of
    ``params``, a vector or a (B, n_params) matrix of angles. From lambda =
    (upstream @ program.signs) * psi, back through its steps, each ry adds
    Re<lambda|G phi>, G from ``ROTATION_G``, to its slot; phi and lambda are
    un-applied by the transposed factors. ``program.circuit``'s layers before
    ``program.start`` take their terms from the same per-qubit cross
    matrices, carried back through each later layer's 2x2s. Slots accumulate."""
    upstream = np.asarray(upstream, dtype=float)
    rows = final.shape[-2]
    if upstream.shape != (rows, len(program.signs)):
        raise ValueError(f"upstream shape {upstream.shape} does not match "
                         f"{rows} rows x {len(program.signs)} measured qubits")
    circuit, observable = program.circuit, upstream @ program.signs
    both = np.stack([final, observable * final]).reshape(2, -1, *final.shape[-2:])  # phi, lambda
    grads = np.zeros((rows, circuit.n_params))
    for step in reversed(program.steps):
        both = apply_step(both, step, adjoint=True)
        if isinstance(step, BoundLayer):  # its terms are taken at its input
            _add_terms(grads, step.layer, _qubit_cross(both[1], both[0]))
    prefix = circuit.program[: program.start]
    if prefix:  # one-qubit rotations: un-applying one leaves the other qubits' R_q
        phi, lam = (h[0] + 1j * h[1] if len(h) == 2 else h[0] for h in both)
        cross = _qubit_cross(np.conj(lam)[None], phi[None])
        for layer in prefix[:0:-1]:  # no term reads the walk back through prefix[0]
            _add_terms(grads, layer, cross)
            m = rotation_matrices(layer, params)
            cross = m.swapaxes(-1, -2) @ cross @ m.conj()  # R_q of M^dagger lambda, M^dagger phi
        _add_terms(grads, prefix[0], cross)
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


def _qubit_cross(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(B, n, 2, 2) per-qubit cross matrices of (H, B, 2**n) halves:
    R_q[a, b] sums lambda_j phi_j' over the halves and the j with bit q of
    j equal to a, j' being j with bit q set to b. Over the ``layer_factors``
    split of each state, the per-row cross matrix of a factor, lambda^T phi
    summed over the other index, is one matmul; its diagonal and bit-flip
    entries give each R_q."""
    split, rows = (lam.shape[-1].bit_length() - 1) // 2, lam.shape[-2]
    lam, phi = (a.reshape(a.shape[:-1] + (2**split, -1)) for a in (lam, phi))
    reduced = []
    for cross in (lam @ np.swapaxes(phi, -1, -2), np.swapaxes(lam, -1, -2) @ phi):
        d = cross.shape[-1]
        index = _reduce_index(d.bit_length() - 1)
        flat = cross.reshape(-1, rows, d * d)  # halves first
        reduced.append(np.take(flat, index, axis=2).sum(axis=(0, -1)))
    return np.concatenate(reduced, axis=1)  # qubit 0 first


def _add_terms(grads: np.ndarray, layer: RotationLayer, cross: np.ndarray) -> None:
    """Add Re sum_ab G[a, b] R_q[a, b], Re<lambda|G phi> of the rotation on
    qubit q, to its slot in ``layer``, from the (B, n, 2, 2) ``cross``
    matrices R_q at the layer's input or output (G commutes with it)."""
    g = ROTATION_G[layer.kind]
    terms = (cross.reshape(len(grads), -1, 4) @ g.reshape(4)).real
    np.add.at(grads, (slice(None), layer.slots), terms)
