"""Layered variational circuits, their batched forward and adjoint gradients.

A template layer is one trainable rotation per qubit followed by a ring
of CNOTs: adjacent pairs in ascending order, then a wraparound CNOT from
the last qubit back to the first. Layers repeat ``depth`` times, so the
parameter count is always n_qubits * depth.

Everything here works on a batch of B states, shaped ``(B, 2**n)``.
Gradients come from adjoint differentiation (Jones & Gacon,
arXiv:2009.02823): one forward run plus one reverse sweep gives the
derivative for every rotation, per row.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sim import (Circuit, GateOp, apply_matrix, apply_step, cnot, run_circuit_raw, rx, ry, rz,
                  z_expectations, z_signs)

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
    slot, and then both phi and lambda are un-applied. Gates sharing a slot
    accumulate. G is real for ry, so a float64 batch, whose rotations are
    all ry, stays float64.
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
        if isinstance(step, GateOp):
            phi, lam = both
            g_phi = apply_matrix(phi, n, step.target, gens[step.kind])
            grads[:, step.param_index] += np.einsum("bi,bi->b", lam.conj(), g_phi).real
        both = apply_step(both, n, step, params, adjoint=True)
    return grads
