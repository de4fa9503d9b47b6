"""Exact statevector simulation of small quantum circuits.

Convention used everywhere in this package: qubit 0 is the *most
significant* bit of the basis-state index. For a 3-qubit register the
basis index 4 = 0b100 is |100>, i.e. qubit 0 in |1> and qubits 1, 2 in
|0>. All decoders and tests rely on this ordering.

Rotation gates follow the standard -i*theta/2 generator convention,
so RY(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]] and the
Z expectation after RY(theta)|0> is cos(theta).

The kernel runs a ``(B, 2**n)`` batch, one state per row: a rotation
applies one 2x2 matrix, or a (B, 2, 2) stack when its angle varies per
row, and each run of consecutive CNOTs is one fused index permutation.
Every single-qubit gate is an rx/ry/rz rotation that reads its angle from
a parameter slot. A float64 batch (real input through ry/cnot) takes one
matmul per gate, a complex128 one (after any rx or rz) an element-wise
update.

A run from |0...0> starts from a product state. The program steps before
the first fused CNOT step (``Circuit.prefix_len`` of them) are
single-qubit gates, so ``prefix_vectors`` applies them, once per batch,
to one 2-vector per qubit, or one per row and qubit after a per-row
angle. ``product_state`` Kronecker-multiplies the vectors of any row
slice into states, qubit 0 most significant, and ``run_circuit_raw(...,
start=circuit.prefix_len)`` runs the rest. ``transfer_matrix`` turns the
steps from ``start`` on, when all their angles are shared, into one
matrix T, so that a batch run through them is ``amps @ T``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

GATE_KINDS = frozenset({"rx", "ry", "rz", "cnot"})


def rotation_matrix(kind: str, angle) -> np.ndarray:
    """2x2 unitary of an rx/ry/rz gate at ``angle`` (radians), float64 for ry
    and complex128 otherwise; a (B,) array of angles gives a (B, 2, 2) stack."""
    half = np.multiply(angle, 0.5)
    c, s = np.cos(half), np.sin(half)
    if kind == "rx":
        m = [[c, -1j * s], [-1j * s, c]]
    elif kind == "ry":
        m = [[c, -s], [s, c]]
    elif kind == "rz":
        m = [[c - 1j * s, 0 * s], [0 * s, c + 1j * s]]
    else:
        raise ValueError(f"not a rotation gate: {kind!r}")
    m = np.array(m, dtype=float if kind == "ry" else complex)
    return m.T.swapaxes(-1, -2)  # (2, 2, B) -> (B, 2, 2)


@dataclass(frozen=True)
class GateOp:
    """One gate: an rx/ry/rz rotation on ``target`` whose angle is
    ``params[param_index]``, or a cnot from ``control`` to ``target``."""

    kind: str
    target: int
    control: int | None = None
    param_index: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cnot":
            if self.control is None or self.param_index is not None:
                raise ValueError("cnot requires a control qubit and reads no slot")
            if self.control == self.target:
                raise ValueError("cnot control and target must differ")
        elif self.param_index is None or self.control is not None:
            raise ValueError(f"{self.kind} requires a parameter slot and takes no control")


def rx(target: int, *, param: int) -> GateOp:
    return GateOp("rx", target, param_index=param)


def ry(target: int, *, param: int) -> GateOp:
    return GateOp("ry", target, param_index=param)


def rz(target: int, *, param: int) -> GateOp:
    return GateOp("rz", target, param_index=param)


def cnot(control: int, target: int) -> GateOp:
    return GateOp("cnot", target, control=control)


class Permutation(NamedTuple):
    """A basis permutation of the amplitudes: ``new[..., i] = old[..., gather[i]]``."""

    gather: np.ndarray
    inverse: np.ndarray


def _fuse_cnots(n_qubits: int, cnots) -> Permutation:
    """One permutation equal to the CNOTs applied in order."""
    idx = np.arange(2**n_qubits)
    gather = idx
    for op in cnots:
        control = 1 << (n_qubits - 1 - op.control)
        flip = np.where(idx & control, 1 << (n_qubits - 1 - op.target), 0)
        gather = gather[idx ^ flip]
    inverse = np.empty_like(gather)
    inverse[gather] = idx
    return Permutation(gather, inverse)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate program over n_qubits wires with n_params trainables."""

    n_qubits: int
    ops: tuple[GateOp, ...]
    n_params: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.n_params < 0:
            raise ValueError("n_params must be non-negative")
        object.__setattr__(self, "ops", tuple(self.ops))
        seen = set()
        for op in self.ops:
            for wire in (op.target, op.control):
                if wire is not None and not 0 <= wire < self.n_qubits:
                    raise ValueError(f"{op.kind} wire {wire} out of range "
                                     f"for {self.n_qubits} qubits")
            if op.param_index is not None:
                if not 0 <= op.param_index < self.n_params:
                    raise ValueError(
                        f"param index {op.param_index} out of range "
                        f"[0, {self.n_params})"
                    )
                seen.add(op.param_index)
        missing = set(range(self.n_params)) - seen
        if missing:
            raise ValueError(f"unreferenced parameter indices: {sorted(missing)}")

    @cached_property
    def program(self) -> tuple:
        """The kernel's steps: each single-qubit ``GateOp`` as is, each run
        of consecutive CNOTs fused into one ``Permutation``."""
        steps = []
        for is_cnot, ops in groupby(self.ops, key=lambda op: op.kind == "cnot"):
            steps.extend([_fuse_cnots(self.n_qubits, ops)] if is_cnot else ops)
        return tuple(steps)

    @cached_property
    def prefix_len(self) -> int:
        """Number of leading program steps before the first fused CNOT
        step: single-qubit gates, which keep a product state a product."""
        return next((i for i, step in enumerate(self.program) if isinstance(step, Permutation)),
                    len(self.program))


def apply_matrix(amps: np.ndarray, n_qubits: int, target: int, m: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix, or a (B, 2, 2) stack one per row, to the target
    qubit of every state in ``amps`` (shape ``(..., B, 2**n)``): one matmul
    for a float64 batch and a real ``m``, else an element-wise update on the
    batch as complex128 (cast once), where numpy's 2x2 matmul is slower."""
    real = amps.dtype == float and not np.iscomplexobj(m)
    amps = amps if real else amps.astype(complex, copy=False)
    if real and target == n_qubits - 1:  # s @ m^T: the left form is slow on the last qubit
        s = amps.reshape(amps.shape[:-1] + (2 ** (n_qubits - 1), 2))
        return (s @ np.swapaxes(m, -1, -2)).reshape(amps.shape)
    s = amps.reshape(amps.shape[:-1] + (2**target, 2, 2 ** (n_qubits - target - 1)))
    if real:
        if m.ndim == 3:
            m = m[:, None]  # (B, 1, 2, 2): broadcast over the 2**target axis
        return (m @ s).reshape(amps.shape)
    m = m.astype(complex, copy=False)  # one cast here, not one per product below
    if m.ndim == 3:
        m = m[:, None, None]  # (B, 1, 1, 2, 2): broadcast over the split axes
    a0, a1 = s[..., 0, :], s[..., 1, :]
    out = np.empty_like(s)
    out[..., 0, :] = m[..., 0, 0] * a0 + m[..., 0, 1] * a1
    out[..., 1, :] = m[..., 1, 0] * a0 + m[..., 1, 1] * a1
    return out.reshape(amps.shape)


def apply_step(amps: np.ndarray, n_qubits: int, step, params, adjoint: bool = False) -> np.ndarray:
    """Apply one ``Circuit.program`` step, or its inverse when ``adjoint``."""
    if isinstance(step, Permutation):
        return amps[..., step.inverse if adjoint else step.gather]
    m = rotation_matrix(step.kind, params[step.param_index])
    if adjoint:
        m = np.conj(np.swapaxes(m, -1, -2))
    return apply_matrix(amps, n_qubits, step.target, m)


def run_circuit_raw(amps: np.ndarray, circuit: Circuit, params, start: int = 0) -> np.ndarray:
    """Run the circuit's program from step ``start`` on a (B, 2**n) batch
    of states, unvalidated.

    ``params`` holds one entry per slot: a float shared by all rows or a
    (B,) array of per-row angles."""
    n = circuit.n_qubits
    for step in circuit.program[start:]:
        amps = apply_step(amps, n, step, params)
    return amps


def prefix_vectors(circuit: Circuit, params) -> list[np.ndarray]:
    """Per qubit, the 2-vector that the first ``circuit.prefix_len``
    program steps make from |0>, applied in op order: shape (2,), or a
    (B, 2) stack once a per-row angle reaches it. float64 when every
    prefix matrix on that qubit is real, complex128 otherwise."""
    vectors = [np.array([1.0, 0.0])] * circuit.n_qubits
    for op in circuit.program[: circuit.prefix_len]:
        m = rotation_matrix(op.kind, params[op.param_index])
        vectors[op.target] = (m @ vectors[op.target][..., None])[..., 0]
    return vectors


def product_state(vectors, rows: slice) -> np.ndarray:
    """The (rows.stop - rows.start, 2**n) Kronecker products of the
    ``prefix_vectors`` of those rows, qubit 0 most significant: the states
    that the prefix makes from |0...0>. Continue with ``run_circuit_raw(...,
    start=circuit.prefix_len)``. float64 when every vector is real,
    complex128 otherwise."""
    amps = np.ones((rows.stop - rows.start, 1))
    for v in vectors:  # left to right: qubit 0 ends up the most significant bit
        v = v[rows] if v.ndim == 2 else v
        out = np.empty(amps.shape + (2,), np.result_type(amps, v))
        for bit in (0, 1):  # two long multiplies, not one broadcast over a length-2 axis
            np.multiply(amps, v[..., bit, None], out=out[:, :, bit])
        amps = out.reshape(len(amps), -1)
    return amps


def transfer_matrix(circuit: Circuit, params, start: int = 0) -> np.ndarray:
    """(2**n, 2**n) matrix T of the program steps from ``start`` on: for any
    (B, 2**n) batch, ``run_circuit_raw(amps, circuit, params, start)`` equals
    ``amps @ T``. It is their run on ``np.eye(2**n)``, so float64 when those
    steps are real.

    Raises ValueError when one of those steps reads a per-row angle: T is
    shared by every row."""
    for op in circuit.program[start:]:
        if isinstance(op, GateOp) and np.ndim(params[op.param_index]) != 0:
            raise ValueError(f"{op.kind} on qubit {op.target} reads per-row angle slot "
                             f"{op.param_index}; a transfer matrix needs shared angles")
    return run_circuit_raw(np.eye(2**circuit.n_qubits), circuit, params, start)


@lru_cache(maxsize=None)
def z_signs(n_qubits: int, measured_qubits: tuple[int, ...]) -> np.ndarray:
    """(M, 2**n) table: row k is the Z eigenvalue (+-1) of qubit
    ``measured_qubits[k]`` on each basis state."""
    if not all(0 <= q < n_qubits for q in measured_qubits):
        raise ValueError(f"measured qubits {measured_qubits} out of range for {n_qubits} qubits")
    bits = (np.arange(2**n_qubits) >> (n_qubits - 1 - np.array(measured_qubits))[:, None]) & 1
    signs = 1.0 - 2.0 * bits
    signs.flags.writeable = False
    return signs


def z_expectations(amps: np.ndarray, measured_qubits) -> np.ndarray:
    """(B, M) Z expectations of the measured qubits: |psi|^2 @ signs^T."""
    n = amps.shape[-1].bit_length() - 1
    probs = amps * amps if amps.dtype == float else amps.real**2 + amps.imag**2
    return probs @ z_signs(n, tuple(measured_qubits)).T
