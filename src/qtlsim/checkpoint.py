"""Versioned binary model container.

Layout: magic ``QTLSIM1``, mode/embedding/axis tag bytes, four u32
dimensions (n_qubits, depth, n_classes, in_dim), then the model's flat
parameter vector as little-endian float64, in ``param_layout`` order
(pre W, pre b, qparams, post W, post b; classical blocks absent in
purevqc mode). A new incompatible layout gets a new magic.
"""
from __future__ import annotations

import struct

import numpy as np

from .hybrid import EMBEDDINGS, MODES, HybridModel, layout_size, param_layout
from .vqc import ROTATION_AXES, VqcTemplate

MAGIC = b"QTLSIM1"
_HEADER = struct.Struct("<7s3B4I")


class CheckpointFormatError(Exception):
    """Unreadable or version-incompatible checkpoint."""


def save_checkpoint(path, model: HybridModel):
    header = _HEADER.pack(
        MAGIC,
        MODES.index(model.mode),
        EMBEDDINGS.index(model.embedding),
        ROTATION_AXES.index(model.template.rotation_axis),
        model.template.n_qubits,
        model.template.depth,
        model.n_classes,
        model.in_dim,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(model.theta.astype("<f8").tobytes())


def load_checkpoint(path) -> HybridModel:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read {path}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise CheckpointFormatError(f"{path}: truncated header")
    magic, mode_tag, embed_tag, axis_tag, n_qubits, depth, n_classes, in_dim = \
        _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointFormatError(
            f"{path}: magic {magic!r} does not match {MAGIC!r}; "
            f"incompatible checkpoint version"
        )
    try:
        mode = MODES[mode_tag]
        embedding = EMBEDDINGS[embed_tag]
        axis = ROTATION_AXES[axis_tag]
    except IndexError:
        raise CheckpointFormatError(f"{path}: unknown mode/embedding/axis tag") from None

    count = layout_size(param_layout(mode, embedding, n_qubits, depth, n_classes, in_dim))
    end = _HEADER.size + 8 * count
    if end > len(data):
        raise CheckpointFormatError(f"{path}: truncated parameter data")
    if end != len(data):
        raise CheckpointFormatError(f"{path}: {len(data) - end} trailing bytes")
    theta = np.frombuffer(data, dtype="<f8", count=count, offset=_HEADER.size)
    try:
        template = VqcTemplate(n_qubits, depth, axis)
        return HybridModel(mode, template, theta, n_classes, embedding, in_dim=in_dim)
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: inconsistent model: {exc}") from exc
