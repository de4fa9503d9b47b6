"""Layered variational circuits, their batched forward and adjoint gradients.

A template layer is one trainable rotation per qubit followed by a ring
of CNOTs: adjacent pairs in ascending order, then a wraparound CNOT from
the last qubit back to the first. Layers repeat ``depth`` times, so the
parameter count is always n_qubits * depth.

Everything here works on a batch of B states, shaped ``(B, 2**n)``.
Gradients come from adjoint differentiation (Jones & Gacon,
arXiv:2009.02823): one forward run plus one reverse sweep gives the
derivative for every rotation, per row. The sweep follows the circuit's
program: a ``GateOp`` rotation is differentiated and un-applied on its
own, a ``RotationLayer`` (circuits of ``sim.FUSE_MIN_QUBITS`` qubits or
more) is un-applied once, and all its rotations' terms come from two
per-row cross matrices of the layer's input.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sim import (Circuit, GateOp, RotationLayer, apply_factors, apply_matrix, apply_step, cnot,
                  factor_bits, layer_factors, run_circuit_raw, rx, ry, rz, z_expectations, z_signs)

ROTATION_AXES = ("x", "y", "z")  # index order is the checkpoint's axis tag
_ROTATIONS = dict(zip(ROTATION_AXES, (rx, ry, rz)))

# Pauli generator sigma of each rotation exp(-i theta sigma / 2); module
# level so the gradient self-check can be driven with a broken value.
GENERATORS = {"rx": np.array([[0, 1], [1, 0]]), "ry": np.array([[0, -1j], [1j, 0]]),
              "rz": np.diag([1, -1])}


@dataclass(frozen=True)
class VqcTemplate:
    n_qubits: int
    depth: int
    rotation_axis: str = "y"

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.rotation_axis not in _ROTATIONS:
            raise ValueError(f"rotation_axis must be one of x/y/z, got {self.rotation_axis!r}")

    @property
    def n_params(self) -> int:
        return self.n_qubits * self.depth


@lru_cache(maxsize=None)
def build_layers(template: VqcTemplate) -> Circuit:
    """Depth-repeated rotation + ring-CNOT layers as a trainable circuit.

    Cached, so the circuit's compiled program is built once per template.
    """
    n = template.n_qubits
    gate = _ROTATIONS[template.rotation_axis]
    ops = []
    for layer in range(template.depth):
        for q in range(n):
            ops.append(gate(q, param=layer * n + q))
        if n >= 2:
            for q in range(n - 1):
                ops.append(cnot(q, q + 1))
            ops.append(cnot(n - 1, 0))
    return Circuit(n, tuple(ops), template.n_params)


def circuit_expectations(circuit: Circuit, params, measured_qubits,
                         initial: np.ndarray | None = None) -> np.ndarray:
    """Run the circuit on each row of ``initial`` (default: one all-|0>
    row) and return the (B, M) Z expectations of the measured qubits.

    ``params`` holds one entry per slot: a float shared by all rows or a
    (B,) array of per-row angles.
    """
    if len(params) != circuit.n_params:
        raise ValueError(f"expected {circuit.n_params} parameters, got {len(params)}")
    if initial is None:
        initial = np.eye(1, 2**circuit.n_qubits)
    if initial.ndim != 2 or initial.shape[1] != 2**circuit.n_qubits:
        raise ValueError(f"states must be (B, {2**circuit.n_qubits}), got shape {initial.shape}")
    return z_expectations(run_circuit_raw(initial, circuit, params), measured_qubits)


def circuit_adjoint(circuit: Circuit, params, measured_qubits, final: np.ndarray,
                    upstream) -> np.ndarray:
    """Per-row gradient (B, n_params) of sum_k upstream[b, k] <Z_k>.

    ``final`` is the circuit's output batch for ``params``. The sweep
    starts from lambda = (upstream @ signs) * psi, the observable applied
    to the output. Going back step by step, each rotation
    exp(-i theta sigma / 2) adds Re<lambda|G phi> with G = -i sigma to its
    slot, and then both phi and lambda are un-applied. A ``RotationLayer``
    is un-applied first and its rotations' terms are taken at its input
    (``_add_layer_grads``). Gates sharing a slot accumulate. G is read from
    ``GENERATORS`` on every call; it is real for ry, so a float64 batch,
    whose rotations are all ry, stays float64.
    """
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (final.shape[0], len(measured_qubits)):
        raise ValueError(f"upstream shape {upstream.shape} does not match "
                         f"{final.shape[0]} rows x {len(measured_qubits)} measured qubits")
    n = circuit.n_qubits
    observable = upstream @ z_signs(n, tuple(measured_qubits))
    gens = {kind: -1j * np.asarray(sigma) for kind, sigma in GENERATORS.items()}
    gens = {kind: g if g.imag.any() else g.real for kind, g in gens.items()}  # real G for ry
    both = np.stack([final, observable * final])  # phi, lambda
    grads = np.zeros((final.shape[0], circuit.n_params))
    for step in reversed(circuit.program):
        if isinstance(step, RotationLayer):
            both = apply_factors(both, *layer_factors(n, step, params, adjoint=True))
            _add_layer_grads(grads, n, step, both, gens)
            continue
        if isinstance(step, GateOp):
            phi, lam = both
            g_phi = apply_matrix(phi, n, step.target, gens[step.kind])
            grads[:, step.param_index] += np.einsum("bi,bi->b", lam.conj(), g_phi).real
        both = apply_step(both, n, step, params, adjoint=True)
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
                     both: np.ndarray, gens: dict) -> None:
    """Add Re<lambda|G_q phi> of each rotation of ``layer`` to its slot,
    with (phi, lambda) = ``both`` taken at the layer's input; G_q commutes
    with the whole layer, so input and output give the same term.

    Each state is a (d_high, d_low) matrix over the ``layer_factors`` split,
    and the per-row cross matrix of a factor, lambda^H phi summed over the
    other factor's index, is one batched matmul. Gathering its diagonal and
    bit-flip partner entries gives each qubit's reduced 2x2 cross matrix R_q,
    and the term is sum_ab G_q[a, b] R_q[a, b]."""
    split = n_qubits // 2
    s = both.reshape(both.shape[:-1] + (2**split, 2 ** (n_qubits - split)))
    phi, lam = s[0], s[1].conj()
    reduced = []
    for cross in (lam @ np.swapaxes(phi, -1, -2), np.swapaxes(lam, -1, -2) @ phi):
        d = cross.shape[-1]
        index = _reduce_index(d.bit_length() - 1)
        reduced.append(np.take(cross.reshape(len(cross), d * d), index, axis=1).sum(axis=-1))
    reduced = np.concatenate(reduced, axis=1)  # (B, n, 2, 2), qubit 0 first
    for kind, targets, slots in layer.by_kind:
        terms = reduced[:, targets].reshape(len(reduced), len(targets), 4) @ gens[kind].reshape(4)
        np.add.at(grads.T, slots, terms.real.T)
