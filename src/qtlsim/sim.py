"""Exact statevector simulation of small quantum circuits.

Convention used everywhere in this package: qubit 0 is the *most
significant* bit of the basis-state index. For a 3-qubit register the
basis index 4 = 0b100 is |100>, i.e. qubit 0 in |1> and qubits 1, 2 in
|0>. All decoders and tests rely on this ordering.

Rotation gates follow the standard -i*theta/2 generator convention,
so RY(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]] and the
Z expectation after RY(theta)|0> is cos(theta).

The kernel runs a float64 ``(B, 2**n)`` batch, one state per row, through
the circuit's program of real steps: runs of CNOTs fused into one index
permutation, one contiguous gather, and runs of rotations as
``RotationLayer`` steps. On each qubit, consecutive rotations of one kind
fuse into one whose angle is the sum of their slots, as RY(b) RY(a) =
RY(a + b), and the k-th fused rotation on each qubit goes into layer k,
split by kind. A kernel layer is ry on slots shared by all rows, two
(d, d) Kronecker factors of one matmul each: the gather-and-apply fusion
of Smelyanskiy et al., arXiv:1601.07195.

A call's angles are one float array: a (n_params,) vector shared by all
rows, or a (B, n_params) matrix, one row per state. A run of B rows from
|0...0> starts from a product state: the rotation layers before the first
CNOT, rx or ry, make each row's 2-vector per qubit, as (2, B, n)
(``prefix_vectors``), complex if one is an rx. A dqc head's embedding RY
and first variational RY fuse, so its prefix is one RY layer (angle) or
an RX layer then an RY layer (dense_angle), and a layer on every qubit
updates the vectors whole. ``product_state`` multiplies
them out into a float64 batch, or into the real halves [a; b] of complex
states a + ib, a (2, B, 2**n) stack run as 2B rows. ``bind_program`` binds
the rest to a vector once (an rx or a matrix there raises) and folds a last
permutation into the Z sign table of the readout. Every batch and the
adjoint sweep read the same factors; the sweep un-applies their transposes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

GATE_KINDS = frozenset({"rx", "ry", "cnot"})


# G = -i sigma of each rotation kind: exp(-i t sigma / 2) = cos(t/2) I + sin(t/2) G.
ROTATION_G = {"rx": np.array([[0, -1j], [-1j, 0]]), "ry": np.array([[0.0, -1.0], [1.0, 0.0]])}


@dataclass(frozen=True)
class GateOp:
    """One gate: an rx or ry rotation on ``target`` whose angle is
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


def cnot(control: int, target: int) -> GateOp:
    return GateOp("cnot", target, control=control)


@dataclass(frozen=True)
class RotationLayer:
    """Rotations of one kind, as one step that applies the Kronecker product
    of their 2x2 matrices, one per target qubit. The ops on a qubit are one
    run of consecutive rotations of that kind, fused: as RY(b) RY(a) =
    RY(a + b), the qubit's angle is the sum of the run's slots, added in
    program order."""

    ops: tuple[GateOp, ...]

    def __post_init__(self):
        if not self.ops or len({op.kind for op in self.ops}) > 1 or self.kind == "cnot":
            raise ValueError(f"a layer holds rotations of one kind: {self.ops}")

    @property
    def kind(self) -> str:
        return self.ops[0].kind

    @cached_property
    def runs(self) -> dict[int, list[int]]:
        """Each target qubit, ascending, with the slots of its run in program order."""
        runs = {}
        for op in sorted(self.ops, key=lambda op: op.target):  # stable: program order kept
            runs.setdefault(op.target, []).append(op.param_index)
        return runs

    @cached_property
    def targets(self) -> list[int]:
        return list(self.runs)

    @cached_property
    def by_position(self) -> tuple[tuple[slice | np.ndarray, np.ndarray], ...]:
        """(runs, slots) of each position j in a run, from j = 0: the runs
        that have a j-th op, as indices into ``targets`` (``slice(None)``
        when every run has one), and the slots of their j-th ops."""
        out, runs = [], list(self.runs.values())
        for j in range(max(map(len, runs))):
            which = [i for i, slots in enumerate(runs) if len(slots) > j]
            out.append((slice(None) if len(which) == len(runs) else np.array(which),
                        np.array([runs[i][j] for i in which])))
        return tuple(out)

    def columns(self, n_qubits: int) -> slice | list[int]:
        """The targets as an index into an n-qubit axis: ``slice(None)`` for a
        layer on every qubit, which numpy reads as a view and writes whole."""
        return slice(None) if len(self.runs) == n_qubits else self.targets


def _rotation_layers(ops) -> list[RotationLayer]:
    """A run of rotations as layers. On each qubit, consecutive rotations of
    one kind form one fused run; the k-th run on each qubit goes into layer
    k, split by kind. Rotations on distinct qubits commute, so running the
    layers in order equals running the ops in order."""
    layers, latest = [], {}  # qubit -> (k, kind) of its latest run
    for op in ops:
        k, kind = latest.get(op.target, (-1, None))
        if kind != op.kind:
            k += 1
            latest[op.target] = (k, op.kind)
        if k == len(layers):
            layers.append([])
        layers[k].append(op)
    return [RotationLayer(tuple(op for op in layer if op.kind == kind))
            for layer in layers for kind in dict.fromkeys(op.kind for op in layer)]


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
        """The kernel's steps: each run of consecutive CNOTs fused into one
        ``Permutation``, each run of rotations as fused ``RotationLayer``
        steps (``_rotation_layers``)."""
        steps = []
        for is_cnot, ops in groupby(self.ops, key=lambda op: op.kind == "cnot"):
            if is_cnot:
                steps.append(_fuse_cnots(self.n_qubits, ops))
            else:
                steps.extend(_rotation_layers(ops))
        return tuple(steps)

    @cached_property
    def prefix_len(self) -> int:
        """Number of leading program steps before the first fused CNOT
        step: the rotation layers that keep a product state a product."""
        return next((i for i, step in enumerate(self.program) if isinstance(step, Permutation)),
                    len(self.program))


@lru_cache(maxsize=None)
def factor_bits(k: int) -> np.ndarray:
    """(k, 2**k) table: row p holds bit p of every index of a k-qubit
    factor, qubit 0 most significant."""
    return (np.arange(2**k) >> (k - 1 - np.arange(k))[:, None]) & 1


@lru_cache(maxsize=None)
def _kron_index(k: int) -> np.ndarray:
    """(k, 2**k, 2**k) table: entry [p, i, j] is the flat position, in a
    (k, 2, 2) stack, of matrix p's entry (bit p of i, bit p of j)."""
    bits = factor_bits(k)
    return 4 * np.arange(k)[:, None, None] + 2 * bits[:, :, None] + bits[:, None, :]


def _kron(mats: np.ndarray) -> np.ndarray:
    """Kronecker product of a (k, 2, 2) stack, first matrix most
    significant: entry (i, j) is the product over p of
    ``mats[p, bit p of i, bit p of j]``, one gather and one product."""
    return mats.reshape(-1)[_kron_index(len(mats))].prod(axis=0)


def layer_angles(layer: RotationLayer, params) -> np.ndarray:
    """The layer's angles in ``targets`` order, each the sum of its run's
    slots in program order: (k,) of a (n_params,) vector shared by all rows,
    (B, k) of a (B, n_params) matrix of one row per state."""
    params = np.asarray(params, dtype=float)
    (_, first), *later = layer.by_position
    angles = params[..., first]
    for runs, slots in later:
        angles[..., runs] += params[..., slots]
    return angles


def rotation_matrices(layer: RotationLayer, params) -> np.ndarray:
    """The 2x2 of each op, cos(t/2) I + sin(t/2) G at its angle t: (k, 2, 2)
    of a vector, (B, k, 2, 2) of a matrix."""
    half = 0.5 * layer_angles(layer, params)[..., None, None]
    return np.cos(half) * np.eye(2) + np.sin(half) * ROTATION_G[layer.kind]


def layer_factors(n_qubits: int, layer: RotationLayer, params) -> tuple[np.ndarray, np.ndarray]:
    """(high, low_t): the ry layer's Kronecker product high (x) low of its
    ``rotation_matrices``, as the (d, d) factor on qubits [0, n // 2) and
    the transpose of the factor on [n // 2, n); low_t is the product of
    the transposed 2x2s. Any other kind, or a matrix of angles, raises."""
    rotations = rotation_matrices(layer, params)
    if layer.kind != "ry" or rotations.ndim != 3:
        raise ValueError(f"{layer} is not a kernel step: rx and per-row angles "
                         "run only in the product prefix")
    mats = np.tile(np.eye(2), (n_qubits, 1, 1))
    mats[layer.targets] = rotations
    split = n_qubits // 2
    return _kron(mats[:split]), _kron(mats[split:].swapaxes(1, 2))


class BoundLayer(NamedTuple):
    """An ry ``RotationLayer`` with its ``layer_factors`` at one call's params."""

    layer: RotationLayer
    high: np.ndarray
    low_t: np.ndarray


def bind_steps(circuit: Circuit, params, start: int = 0) -> tuple:
    """The circuit's program steps from ``start`` on, bound to ``params``
    once: each layer as a ``BoundLayer``, each ``Permutation`` as it is.
    ``params`` is a vector shared by all rows: per-row angles run only in
    the product prefix."""
    return tuple(step if isinstance(step, Permutation)
                 else BoundLayer(step, *layer_factors(circuit.n_qubits, step, params))
                 for step in circuit.program[start:])


BoundProgram = NamedTuple("BoundProgram", [("circuit", Circuit), ("start", int), ("steps", tuple),
                                           ("signs", np.ndarray)])


def bind_program(circuit: Circuit, params, measured_qubits, start: int = 0) -> BoundProgram:
    """The circuit with its ``bind_steps`` from ``start`` on and the (M, 2**n)
    Z sign table that reads their run. A last ``Permutation`` folds into the
    table, as |old[..., gather]|^2 @ signs^T = |old|^2 @ signs[:, inverse]^T,
    and the steps stop before it."""
    steps = bind_steps(circuit, params, start)
    signs = z_signs(circuit.n_qubits, tuple(measured_qubits))
    if steps and isinstance(steps[-1], Permutation):
        steps, signs = steps[:-1], signs[:, steps[-1].inverse]
    return BoundProgram(circuit, start, steps, signs)


def apply_step(amps: np.ndarray, step, adjoint: bool = False) -> np.ndarray:
    """Apply one bound step to each state of ``amps``, (..., B, 2**n), or
    its inverse when ``adjoint``. A layer takes a state, as a matrix S, to
    high @ S @ low_t; its inverse reads contiguous copies of the transposed
    factors."""
    if isinstance(step, Permutation):
        return np.take(amps, step.inverse if adjoint else step.gather, axis=-1)
    high, low_t = step.high, step.low_t
    if adjoint:
        high, low_t = (np.ascontiguousarray(f.T) for f in (high, low_t))
    s = amps.reshape(amps.shape[:-1] + (len(high), len(low_t)))
    return (high @ (s @ low_t)).reshape(amps.shape)


def run_steps(amps: np.ndarray, steps) -> np.ndarray:
    """Run bound steps on a float64 (B, 2**n) batch, or (2, B, 2**n) real halves."""
    for step in steps:
        amps = apply_step(amps, step)
    return amps


def run_circuit_raw(amps: np.ndarray, circuit: Circuit, params) -> np.ndarray:
    """Run the circuit's whole program on a float64 (B, 2**n) batch, or
    (2, B, 2**n) real halves, unvalidated; ``params`` holds one shared
    float per slot."""
    if amps.dtype != float:
        raise ValueError(f"the kernel runs float64 batches, got {amps.dtype}")
    return run_steps(amps, bind_steps(circuit, params))


def prefix_vectors(circuit: Circuit, params) -> np.ndarray:
    """(2, B, n) per-qubit 2-vectors [v0; v1] of the prefix for each row of a
    (B, n_params) matrix, a vector as one row; complex128 if a layer is an
    rx. A layer takes each target's v to cos(t/2) v + sin(t/2) G v at its
    fused angle t; G is off-diagonal, so each component is one long
    multiply-add with the other, over the whole qubit axis when the layer
    covers every qubit."""
    prefix = circuit.program[: circuit.prefix_len]
    dtype = complex if any(layer.kind == "rx" for layer in prefix) else float
    vectors = np.zeros((2, len(np.atleast_2d(params)), circuit.n_qubits), dtype)
    vectors[0] = 1.0
    for layer in prefix:
        half, g = 0.5 * layer_angles(layer, params), ROTATION_G[layer.kind]
        cols = layer.columns(circuit.n_qubits)
        (c, s), (v0, v1) = (np.cos(half), np.sin(half)), vectors[..., cols]
        vectors[..., cols] = [c * v0 + s * v1 * g[0, 1], c * v1 + s * v0 * g[1, 0]]
    return vectors


def _kron_rows(vectors: np.ndarray) -> np.ndarray:
    """(b, 2**k) Kronecker products of (2, b, k) vectors."""
    amps = np.ones((vectors.shape[1], 1), vectors.dtype)
    for q in range(vectors.shape[2]):
        out = np.empty(amps.shape + (2,), vectors.dtype)
        for bit in (0, 1):  # two long multiplies, not one broadcast over a length-2 axis
            np.multiply(amps, vectors[bit, :, q, None], out=out[:, :, bit])
        amps = out.reshape(len(out), -1)
    return amps


def product_state(vectors: np.ndarray) -> np.ndarray:
    """The b states of a (2, b, n) ``prefix_vectors`` stack: (b, 2**n), or,
    for complex vectors, the real halves (2, b, 2**n)
    [hr lr - hi li; hi lr + hr li] of the product of the states h of
    qubits [0, n // 2) and l of the rest, by one real matmul."""
    split, b = vectors.shape[2] // 2, vectors.shape[1]
    if not np.iscomplexobj(vectors):
        return _kron_rows(vectors)
    high, low = _kron_rows(vectors[..., :split]), _kron_rows(vectors[..., split:])
    h = high.view(float).reshape(b, -1, 2)  # [hr, hi] pairs
    left = np.array([h * [1.0, -1.0], h[..., ::-1]])  # rows [hr, -hi] and [hi, hr]
    return (left @ np.stack([low.real, low.imag], axis=1)).reshape(2, b, -1)


@lru_cache(maxsize=None)
def z_signs(n_qubits: int, measured_qubits: tuple[int, ...]) -> np.ndarray:
    """(M, 2**n) table: row k is the Z eigenvalue (+-1) of qubit
    ``measured_qubits[k]`` on each basis state."""
    if not all(0 <= q < n_qubits for q in measured_qubits):
        raise ValueError(f"measured qubits {measured_qubits} out of range for {n_qubits} qubits")
    signs = 1.0 - 2.0 * factor_bits(n_qubits)[list(measured_qubits)]
    signs.flags.writeable = False
    return signs


def z_expectations(amps: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """(B, M) Z expectations |psi|^2 @ signs^T of a ``z_signs`` table, or
    a ``BoundProgram``'s folded one, where |psi|^2 = a^2 + b^2 for
    (2, B, 2**n) real halves [a; b]."""
    probs = np.square(amps, dtype=float)  # a complex batch raises: it cannot cast
    if probs.ndim == 3:
        probs = probs[0] + probs[1]
    return probs @ signs.T
