"""Versioned binary model container.

Layout: magic ``QTLSIM2``; the ``Head`` fields in their order, mode and
embedding as tag bytes, then an axis tag byte, then n_qubits, depth,
n_classes and in_dim as u32; a u32 byte count and that many bytes of
UTF-8 class names joined by newlines (none if 0); then the model's flat
parameter vector as little-endian float64, in ``Head.layout`` order (pre
W, pre b, qparams, post W, post b; classical blocks absent in purevqc
mode). Layers are RY, axis tag 1; x and z (0 and 2) do not load. ``QTLSIM1``, the same without the class names, still
loads. A new incompatible layout gets a new magic.
"""
from __future__ import annotations

import struct

import numpy as np

from .hybrid import EMBEDDINGS, MODES, Head, HybridModel, layout_size

MAGIC = b"QTLSIM2"
MAGIC_V1 = b"QTLSIM1"  # no class names
_HEADER = struct.Struct("<7s3B4I")
_NAMES_SIZE = struct.Struct("<I")
_RY_AXIS = 1  # the axis tag: x, y, z were 0, 1, 2


class CheckpointFormatError(Exception):
    """Unreadable or version-incompatible checkpoint."""


def save_checkpoint(path, model: HybridModel):
    head = model.head
    header = _HEADER.pack(MAGIC, MODES.index(head.mode), EMBEDDINGS.index(head.embedding),
                          _RY_AXIS, head.n_qubits, head.depth, head.n_classes, head.in_dim)
    names = "\n".join(model.class_names).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header + _NAMES_SIZE.pack(len(names)) + names)
        fh.write(model.theta.astype("<f8").tobytes())


def load_checkpoint(path) -> HybridModel:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read {path}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise CheckpointFormatError(f"{path}: truncated header")
    magic, mode_tag, embed_tag, axis_tag, *dims = _HEADER.unpack_from(data)
    if magic not in (MAGIC, MAGIC_V1):
        raise CheckpointFormatError(
            f"{path}: magic {magic!r} does not match {MAGIC!r}; "
            f"incompatible checkpoint version"
        )
    if axis_tag != _RY_AXIS:
        raise CheckpointFormatError(f"{path}: axis tag {axis_tag}: layers are RY ({_RY_AXIS})")
    try:  # checked before any size is read from the dimensions
        head = Head(MODES[mode_tag], EMBEDDINGS[embed_tag], *dims)
    except IndexError:
        raise CheckpointFormatError(f"{path}: unknown mode/embedding tag") from None
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: inconsistent model: {exc}") from exc

    start, names = _HEADER.size, b""
    if magic == MAGIC:
        if start + _NAMES_SIZE.size > len(data):
            raise CheckpointFormatError(f"{path}: truncated class names")
        (size,) = _NAMES_SIZE.unpack_from(data, start)
        start += _NAMES_SIZE.size + size
        if start > len(data):
            raise CheckpointFormatError(f"{path}: truncated class names")
        names = data[start - size : start]

    count = layout_size(head.layout)
    end = start + 8 * count
    if end > len(data):
        raise CheckpointFormatError(f"{path}: truncated parameter data")
    if end != len(data):
        raise CheckpointFormatError(f"{path}: {len(data) - end} trailing bytes")
    theta = np.frombuffer(data, dtype="<f8", count=count, offset=start)
    try:
        class_names = tuple(names.decode("utf-8").split("\n")) if names else ()
        return HybridModel(head, theta, class_names)
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: inconsistent model: {exc}") from exc
