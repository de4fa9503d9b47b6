"""Seeded benchmark inputs: feature CSVs and config files, numpy only.

This module deliberately shares no code with ``qtlsim.data``: the inputs
must stay byte-identical for a given seed while the program under test
changes.
"""
from __future__ import annotations

import hashlib

import numpy as np

# Standard deviation of the per-group offset around its class centre. It
# makes the rows of one group correlated, like slices of one patient.
GROUP_SPREAD = 0.5


def class_centres(seed: int, dim: int, n_classes: int, separation: float) -> np.ndarray:
    """(n_classes, dim) centres at ``separation`` along orthonormal directions."""
    rng = np.random.default_rng([seed, 0])
    basis, _ = np.linalg.qr(rng.standard_normal((dim, n_classes)))
    return separation * basis.T


def cluster_rows(seed: int, stream: int, centres: np.ndarray, n_rows: int,
                 group_size: int, group_prefix: str):
    """Gaussian rows in groups of ``group_size``, classes balanced by group.

    Returns (labels, group_ids, features) with groups in shuffled order.
    """
    n_classes, dim = centres.shape
    n_groups = n_rows // group_size
    if n_groups < n_classes or n_rows % group_size:
        raise ValueError(f"{n_rows} rows do not divide into groups of {group_size}")
    rng = np.random.default_rng([seed, stream])
    group_class = np.arange(n_groups) % n_classes
    order = rng.permutation(n_groups)
    labels = np.repeat(group_class[order], group_size)
    group_ids = [f"{group_prefix}{g:05d}" for g in order for _ in range(group_size)]
    offsets = np.repeat(GROUP_SPREAD * rng.standard_normal((n_groups, dim)), group_size, axis=0)
    features = centres[labels] + offsets + rng.standard_normal((n_rows, dim))
    return labels, group_ids, features


def write_csv(path, labels, group_ids, features, class_names):
    """``group_id,label,f0..fN`` table with floats in exact round-trip form."""
    width = features.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["group_id", "label"] + [f"f{i}" for i in range(width)]) + "\n")
        for label, group, row in zip(labels, group_ids, features.tolist()):
            fh.write(f"{group},{class_names[label]}," + ",".join(map(repr, row)) + "\n")


def write_config(path, values: dict):
    """Flat ``key = value`` config in the program's documented format."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
