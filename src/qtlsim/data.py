"""Dataset ingestion, synthetic generators, and group-aware splitting.

Samples carry a group identifier (the patient in the original data);
splitting treats groups as atomic so correlated samples never straddle
the train/validation/test boundary.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .seeding import substream


class DataError(Exception):
    """Malformed or unusable input data."""


class SplitError(DataError):
    """The requested split cannot be built from the group structure."""


@dataclass(frozen=True)
class Sample:
    label: int
    group_id: str
    features: np.ndarray

    def __post_init__(self):
        if self.label < 0:
            raise ValueError(f"label must be non-negative, got {self.label}")
        f = np.asarray(self.features, dtype=float)
        if f.ndim != 1 or not np.all(np.isfinite(f)):
            raise ValueError("features must be a finite 1-D vector")
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "features", f)


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        for s in self.samples:
            if s.label >= len(self.class_names):
                raise ValueError(
                    f"label {s.label} out of range for {len(self.class_names)} classes"
                )

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def subset(self, indices) -> "Dataset":
        return replace(self, samples=tuple(self.samples[i] for i in indices))


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    seed: int = 0
    balance: bool = True

    def __post_init__(self):
        if len(self.ratios) != 3 or any(r <= 0 for r in self.ratios):
            raise ValueError(f"ratios must be three positive numbers, got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got {sum(self.ratios)!r}")


def load_feature_csv(path, class_names=None) -> Dataset:
    """Parse a `group_id,label,f0,...,fN` feature table.

    Class names map to indices in first-appearance order unless an
    explicit ``class_names`` list pins the mapping, in which case an
    unknown label is an error.
    """
    names = list(class_names) if class_names is not None else []
    strict = class_names is not None
    samples = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "group_id" or header[1] != "label":
            raise DataError(f"{path}: header must start with group_id,label,f0,...")
        width = len(header) - 2
        if [c.strip() for c in header[2:]] != [f"f{i}" for i in range(width)]:
            raise DataError(f"{path}: feature columns must be named f0..f{width - 1}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width + 2:
                raise DataError(
                    f"{path}: line {lineno}: expected {width + 2} fields, got {len(row)}"
                )
            group_id, label_name = row[0], row[1]
            if label_name not in names:
                if strict:
                    raise DataError(f"{path}: line {lineno}: unknown label {label_name!r}")
                names.append(label_name)
            try:
                values = np.array([float(v) for v in row[2:]], dtype=float)
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
            if not np.all(np.isfinite(values)):
                raise DataError(f"{path}: line {lineno}: non-finite feature value")
            samples.append(Sample(names.index(label_name), group_id, features=values))
    if not samples:
        raise DataError(f"{path}: no data rows")
    return Dataset(tuple(samples), tuple(names))


def write_feature_csv(path, dataset: Dataset):
    """Inverse of load_feature_csv; floats written in exact round-trip form."""
    width = dataset.samples[0].features.shape[0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_id", "label"] + [f"f{i}" for i in range(width)])
        for s in dataset.samples:
            writer.writerow(
                [s.group_id, dataset.class_names[s.label]]
                + [repr(float(v)) for v in s.features]
            )


def synth_dataset(n_per_class: int, n_classes: int, dim: int, separation: float,
                  seed: int, group_size: int = 1) -> Dataset:
    """Gaussian class clusters, centers along random orthogonal directions.

    Each center sits at distance ``separation`` from the origin along its
    own orthonormal direction; unit-variance isotropic noise. Groups are
    one-per-sample unless ``group_size`` assigns consecutive samples of a
    class to a shared group id.
    """
    if n_per_class < 1 or n_classes < 2 or dim < n_classes or group_size < 1:
        raise ValueError("invalid synthetic dataset shape")
    rng = substream(seed, "synth")
    basis, _ = np.linalg.qr(rng.standard_normal((dim, n_classes)))
    samples = []
    for c in range(n_classes):
        center = separation * basis[:, c]
        points = center + rng.standard_normal((n_per_class, dim))
        for k in range(n_per_class):
            group = f"g{c}_{k // group_size}"
            samples.append(Sample(c, group, features=points[k]))
    names = tuple(f"class{c}" for c in range(n_classes))
    return Dataset(tuple(samples), names)


def _group_table(dataset: Dataset) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {}
    for i, s in enumerate(dataset.samples):
        groups.setdefault(s.group_id, []).append(i)
    return groups


def balanced_group_split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Greedy group-atomic split targeting balanced per-class counts.

    Per class, targets are ratio * (smallest class size) per subset.
    Groups are sorted largest first (seeded jitter breaks size ties) and
    each goes to the subset with the largest remaining deficit for the
    group's majority class. With balance on, each subset is then trimmed
    (seeded) to exactly equal per-class counts.
    """
    n_classes = dataset.n_classes
    labels = dataset.labels()
    class_totals = np.bincount(labels, minlength=n_classes)
    if np.any(class_totals == 0):
        missing = dataset.class_names[int(np.argmin(class_totals))]
        raise SplitError(f"class {missing!r} has no samples")
    min_count = int(class_totals.min())
    targets = np.outer(spec.ratios, np.full(n_classes, min_count))  # (3, C)

    rng = substream(spec.seed, "split")
    groups = _group_table(dataset)
    order = sorted(
        groups.items(),
        key=lambda kv: (-len(kv[1]), rng.random()),
    )

    assigned = np.zeros((3, n_classes))
    members: list[list[int]] = [[], [], []]
    for _, indices in order:
        counts = np.bincount(labels[indices], minlength=n_classes)
        major = int(np.argmax(counts))  # ties resolve to the lowest class
        deficit = targets[:, major] - assigned[:, major]
        best = deficit.max()
        candidates = np.flatnonzero(deficit >= best - 1e-12)
        choice = int(candidates[0]) if len(candidates) == 1 else int(rng.choice(candidates))
        assigned[choice] += counts
        members[choice].extend(indices)

    parts = []
    subset_names = ("train", "val", "test")
    for s, indices in enumerate(members):
        if not indices:
            raise SplitError(
                f"{subset_names[s]} subset is empty; group structure cannot "
                f"satisfy ratios {spec.ratios}"
            )
        indices = sorted(indices)
        if spec.balance:
            counts = np.bincount(labels[indices], minlength=n_classes)
            if np.any(counts == 0):
                missing = dataset.class_names[int(np.argmin(counts))]
                raise SplitError(
                    f"class {missing!r} missing from {subset_names[s]} subset; "
                    f"cannot balance"
                )
            keep_per_class = int(counts.min())
            trim_rng = substream(spec.seed, "trim", s)
            kept = []
            for c in range(n_classes):
                of_class = [i for i in indices if labels[i] == c]
                if len(of_class) > keep_per_class:
                    sel = trim_rng.choice(len(of_class), size=keep_per_class, replace=False)
                    of_class = [of_class[j] for j in sorted(sel)]
                kept.extend(of_class)
            indices = sorted(kept)
        parts.append(dataset.subset(indices))
    return tuple(parts)


def batches(samples, batch_size: int, epoch_seed: int) -> list[list[Sample]]:
    """Seeded shuffle chopped into contiguous chunks; the remainder is kept."""
    samples = list(samples)
    if not samples:
        raise DataError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(epoch_seed).permutation(len(samples))
    shuffled = [samples[i] for i in order]
    return [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]
