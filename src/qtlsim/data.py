"""Dataset ingestion, synthetic generators, and group-aware splitting.

A ``Dataset`` is columnar: a read-only ``(N, d)`` float64 feature matrix,
``(N,)`` int64 labels and one group id per row (the patient in the
original data). Subsets and minibatches are row-index arrays into those
columns. Splitting treats groups as atomic so correlated rows never
straddle the train/validation/test boundary.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .seeding import substream


class DataError(Exception):
    """Malformed or unusable input data."""


class SplitError(DataError):
    """The requested split cannot be built from the group structure."""


@dataclass(frozen=True)
class Dataset:
    """N rows by column: ``features`` a read-only (N, d) float64 matrix of
    finite values, ``labels`` (N,) int64 indices into ``class_names``, and
    one group id per row. A writeable ``features`` array is copied once; a
    read-only one, such as a loader's fresh matrix, is taken over as is."""

    features: np.ndarray
    labels: np.ndarray
    group_ids: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        features = features.copy() if features.flags.writeable else features
        labels = np.array(self.labels, dtype=np.int64)
        features.flags.writeable = labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "group_ids", tuple(self.group_ids))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        n = len(self.group_ids)
        if features.ndim != 2 or features.shape[0] != n or labels.shape != (n,):
            raise ValueError(f"need an (N, d) feature matrix, N labels and N group ids, got "
                             f"{features.shape}, {labels.shape} and {n}")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        if n and not 0 <= labels.min() <= labels.max() < self.n_classes:
            raise ValueError(f"labels out of range for {self.n_classes} classes")

    def __len__(self) -> int:
        return len(self.group_ids)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, rows) -> "Dataset":
        """The rows at index array ``rows``, in that order, in a new matrix."""
        rows = np.asarray(rows, dtype=np.intp)
        features = self.features[rows]
        features.flags.writeable = False
        return Dataset(features, self.labels[rows],
                       [self.group_ids[i] for i in rows], self.class_names)


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    seed: int = 0
    balance: bool = True

    def __post_init__(self):
        if len(self.ratios) != 3 or not all(r > 0 for r in self.ratios):
            raise ValueError(f"ratios must be three positive numbers, got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got {sum(self.ratios)!r}")


# comments=None: with numpy's default "#", the token 3#x would read as 3
_LOADTXT = dict(delimiter=",", dtype=float, ndmin=2, comments=None)


def load_feature_csv(path, class_names=None) -> Dataset:
    """Parse a ``group_id,label,f0,...,f{d-1}`` feature table.

    Class names map to indices in first-appearance order unless an
    explicit ``class_names`` list pins the mapping, in which case an
    unknown label is an error.

    Read line by line; each line is split once at its first two commas and
    the feature text of all lines goes through one ``np.loadtxt`` call. So
    a feature is what numpy's float parser takes: decimal and exponent
    forms, surrounding whitespace, ``inf``/``nan`` (then rejected as
    non-finite), but not ``1_000`` or non-ASCII digits, which ``float()``
    takes, nor ``3#x`` (comments are off). A line holding a double quote is
    split by ``csv.reader``, so a quoted group id with a comma loads; a
    record may not span lines. Blank lines are skipped. Each ``DataError``
    of UTF-8 text names its line: the first malformed one in file order,
    else the first with an unknown label, else the first non-finite one.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    try:  # the header read, the bulk parse and its re-read all decode
        with fh:
            header = fh.readline()
            if not header:
                raise DataError(f"{path}: empty file")
            header = next(csv.reader([header]))
            if len(header) < 3 or header[0] != "group_id" or header[1] != "label":
                raise DataError(f"{path}: header must start with group_id,label,f0,...")
            width = len(header) - 2
            if [c.strip() for c in header[2:]] != [f"f{i}" for i in range(width)]:
                raise DataError(f"{path}: feature columns must be named f0..f{width - 1}")
            heads = []  # (line number, group id, label) of each data row
            try:
                features = np.loadtxt(_feature_text(path, fh, width, heads), **_LOADTXT)
            except (ValueError, DataError):
                features = None
        if features is None or len(features) != len(heads):  # loadtxt skips an empty line
            _raise_first_bad_line(path, width)
    except UnicodeDecodeError:  # decoded in chunks: the error's position is no line
        raise DataError(f"{path}: not UTF-8 text") from None
    linenos, group_ids, label_names = zip(*heads)

    names = list(dict.fromkeys(label_names) if class_names is None else class_names)
    if unknown := set(label_names).difference(names):
        k = next(k for k, name in enumerate(label_names) if name in unknown)
        raise DataError(f"{path}: line {linenos[k]}: unknown label {label_names[k]!r}")
    labels = [names.index(name) for name in label_names]
    features.flags.writeable = False
    try:
        return Dataset(features, labels, group_ids, names)
    except ValueError:  # shapes and labels hold by now, so a value is not finite
        line = linenos[(~np.isfinite(features).all(axis=1)).argmax()]
        raise DataError(f"{path}: line {line}: non-finite feature value") from None


def _feature_text(path, lines, width, heads):
    """The feature text of each non-blank data line, its field count checked;
    appends the line's (line number, group id, label) to ``heads``."""
    for lineno, line in enumerate(lines, start=2):
        if line == "\n":
            continue
        fields = line.split(",", 2)
        if '"' in line or len(fields) < 3:
            row = next(csv.reader([line]))
            fields = row[:2] + [",".join(row[2:])] if len(row) > 2 else row
        n_fields = len(fields) + fields[2].count(",") if len(fields) == 3 else len(fields)
        if n_fields != width + 2:
            raise DataError(f"{path}: line {lineno}: expected {width + 2} fields, got {n_fields}")
        heads.append((lineno, fields[0], fields[1]))
        yield fields[2]
    if not heads:
        raise DataError(f"{path}: no data rows")


def _raise_first_bad_line(path, width):
    """After a failed bulk parse, re-read the file and raise the ``DataError``
    of its first line that is malformed or does not parse on its own."""
    heads = []
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for text in _feature_text(path, fh, width, heads):
            if not _parses(text, width):
                k, token = next(((k, t) for k, t in enumerate(text.split(","))
                                 if not _parses(t, 1)), (0, text))
                raise DataError(f"{path}: line {heads[-1][0]}: f{k} is not a number: "
                                f"{token.strip()!r}")
    raise DataError(f"{path}: feature values do not parse")


def _parses(text: str, n: int) -> bool:
    """Whether ``text`` alone is ``n`` numbers to the bulk parse."""
    try:
        return bool(text.strip()) and np.loadtxt([text], **_LOADTXT).size == n
    except ValueError:
        return False


def synth_dataset(n_per_class: int, n_classes: int, dim: int, separation: float,
                  seed: int, group_size: int = 1, class_names=None) -> Dataset:
    """Gaussian class clusters, centers along random orthogonal directions.

    Each center sits at distance ``separation`` from the origin along its
    own orthonormal direction; unit-variance isotropic noise. Rows are
    ordered by class. Groups are one-per-sample unless ``group_size``
    assigns consecutive samples of a class to a shared group id. Class c
    is named ``class_names[c]``, by default ``class{c}``.
    """
    if n_per_class < 1 or n_classes < 2 or dim < n_classes or group_size < 1:
        raise ValueError("invalid synthetic dataset shape")
    rng = substream(seed, "synth")
    basis, _ = np.linalg.qr(rng.standard_normal((dim, n_classes)))
    features = np.empty((n_classes, n_per_class, dim))
    for c in range(n_classes):
        features[c] = separation * basis[:, c] + rng.standard_normal((n_per_class, dim))
    group_ids = [f"g{c}_{k // group_size}" for c in range(n_classes) for k in range(n_per_class)]
    return Dataset(features.reshape(-1, dim), np.repeat(np.arange(n_classes), n_per_class),
                   group_ids, class_names or [f"class{c}" for c in range(n_classes)])


def balanced_group_split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Greedy group-atomic split targeting balanced per-class counts.

    Per class, targets are ratio * (smallest class size) per subset.
    Groups are sorted largest first (seeded jitter breaks size ties) and
    each goes to the subset with the largest remaining deficit for the
    group's majority class. With balance on, each subset is then trimmed
    (seeded) to exactly equal per-class counts.
    """
    n_classes, labels = dataset.n_classes, dataset.labels
    class_totals = np.bincount(labels, minlength=n_classes)
    if np.any(class_totals == 0):
        missing = dataset.class_names[int(np.argmin(class_totals))]
        raise SplitError(f"class {missing!r} has no samples")
    targets = np.outer(spec.ratios, np.full(n_classes, int(class_totals.min())))  # (3, C)

    groups: dict[str, list[int]] = {}
    for i, group_id in enumerate(dataset.group_ids):
        groups.setdefault(group_id, []).append(i)
    rng = substream(spec.seed, "split")
    order = sorted(groups.values(), key=lambda rows: (-len(rows), rng.random()))

    assigned = np.zeros((3, n_classes))
    members: list[list[int]] = [[], [], []]
    for indices in order:
        counts = np.bincount(labels[indices], minlength=n_classes)
        major = int(np.argmax(counts))  # ties resolve to the lowest class
        deficit = targets[:, major] - assigned[:, major]
        candidates = np.flatnonzero(deficit >= deficit.max() - 1e-12)
        choice = int(candidates[0]) if len(candidates) == 1 else int(rng.choice(candidates))
        assigned[choice] += counts
        members[choice].extend(indices)

    parts = []
    subset_names = ("train", "val", "test")
    for s, indices in enumerate(members):
        if not indices:
            raise SplitError(f"{subset_names[s]} subset is empty; group structure "
                             f"cannot satisfy ratios {spec.ratios}")
        indices = sorted(indices)
        if spec.balance:
            counts = np.bincount(labels[indices], minlength=n_classes)
            if np.any(counts == 0):
                missing = dataset.class_names[int(np.argmin(counts))]
                raise SplitError(f"class {missing!r} missing from {subset_names[s]} "
                                 f"subset; cannot balance")
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


def batches(n_rows: int, batch_size: int, epoch_seed: int) -> list[np.ndarray]:
    """Row-index arrays of one epoch: a seeded shuffle of ``range(n_rows)``
    chopped into contiguous chunks of ``batch_size``; the remainder is kept
    as a last, shorter batch."""
    if n_rows < 1:
        raise DataError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(epoch_seed).permutation(n_rows)
    return [order[i : i + batch_size] for i in range(0, n_rows, batch_size)]
