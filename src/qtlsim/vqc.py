"""Layered variational circuits and exact parameter-shift gradients.

A template layer is one trainable rotation per qubit followed by a ring
of CNOTs: adjacent pairs in ascending order, then a wraparound CNOT from
the last qubit back to the first. Layers repeat ``depth`` times, so the
parameter count is always n_qubits * depth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sim import (
    Circuit,
    StateVector,
    cnot,
    resolve_angle,
    run_circuit_raw,
    rx,
    ry,
    rz,
)

# Shifted-evaluation offset of the two-point gradient rule. Module-level
# so the gradient self-check can be driven with a broken value in tests.
PARAM_SHIFT = math.pi / 2

ROTATION_AXES = ("x", "y", "z")  # index order is the checkpoint's axis tag
_ROTATIONS = dict(zip(ROTATION_AXES, (rx, ry, rz)))


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


def build_layers(template: VqcTemplate) -> Circuit:
    """Depth-repeated rotation + ring-CNOT layers as a trainable circuit."""
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


def zexp_from_amps(amps: np.ndarray, n: int, measured_qubits) -> np.ndarray:
    """Per-qubit Z expectations of a raw amplitude array."""
    p = (np.abs(amps) ** 2).reshape([2] * n)
    out = np.empty(len(measured_qubits))
    for k, q in enumerate(measured_qubits):
        if not 0 <= q < n:
            raise ValueError(f"measured qubit {q} out of range for {n} qubits")
        out[k] = 1.0 - 2.0 * float(np.take(p, 1, axis=q).sum())
    return out


def circuit_expectations(circuit: Circuit, params, measured_qubits,
                         initial: StateVector | None = None) -> np.ndarray:
    """Run a circuit and return <Z> on the measured qubits, in order."""
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.n_params,):
        raise ValueError(f"expected {circuit.n_params} parameters, got shape {params.shape}")
    if initial is None:
        initial = StateVector.zero(circuit.n_qubits)
    elif initial.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"initial state has {initial.n_qubits} qubits, circuit {circuit.n_qubits}"
        )
    amps = run_circuit_raw(initial.amplitudes, circuit, params)
    return zexp_from_amps(amps, circuit.n_qubits, measured_qubits)


def circuit_param_shift(circuit: Circuit, params, measured_qubits, upstream,
                        initial: StateVector | None = None) -> np.ndarray:
    """Gradient of upstream . <Z_measured> w.r.t. the trainable parameters.

    Each trainable rotation is evaluated at +-PARAM_SHIFT; the halved
    difference is the exact derivative for rx/ry/rz generators. Two runs
    per trainable gate; gates sharing a parameter index accumulate.
    """
    params = np.asarray(params, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    if params.shape != (circuit.n_params,):
        raise ValueError(f"expected {circuit.n_params} parameters, got shape {params.shape}")
    if upstream.shape != (len(measured_qubits),):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match "
            f"{len(measured_qubits)} measured qubits"
        )
    if initial is None:
        initial = StateVector.zero(circuit.n_qubits)
    grads = np.zeros(circuit.n_params)
    n = circuit.n_qubits
    for j, op in enumerate(circuit.ops):
        if op.param_index is None:
            continue
        base = resolve_angle(op, params)
        shifted = []
        for sign in (1.0, -1.0):
            amps = run_circuit_raw(
                initial.amplitudes, circuit, params,
                angle_override={j: base + sign * PARAM_SHIFT},
            )
            shifted.append(zexp_from_amps(amps, n, measured_qubits))
        dz = (shifted[0] - shifted[1]) / 2.0
        grads[op.param_index] += float(upstream @ dz)
    return grads
