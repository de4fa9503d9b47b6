"""Flat `key = value` run configuration.

The format is deliberately minimal: one assignment per line, ``#``
comments, no nesting. A run manifest is itself a valid config, so any
completed run can be reproduced by pointing train at its manifest.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

from .data import SplitSpec
from .hybrid import Head, layout_size

# The most float64 values one array that a config implies may hold: 2**25,
# 256 MiB. A run holds a few copies of its data (the draw, the dataset, its
# splits), so a config at the cap stays near 1 GiB. The default synthetic
# data holds 102400 values, the benchmark's largest parameter vector 8258
# and its largest minibatch sweep 8192.
MAX_ARRAY_VALUES = 2**25


class ConfigError(Exception):
    """Unparseable or inconsistent configuration."""


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "dqc"
    embedding: str = "angle"
    n_qubits: int = 4
    depth: int = 1
    n_classes: int = 2
    epochs: int = 25
    batch_size: int = 8
    lr: float = 1e-4
    weight_decay: float = 0.01
    seed: int = 0
    data: str = "synth"
    train_ratio: float = 0.7
    val_ratio: float = 0.15
    test_ratio: float = 0.15
    balance: bool = True
    in_dim: int = 512
    synth_per_class: int = 100
    synth_separation: float = 6.0
    synth_group_size: int = 1
    class_names: str = ""

    @property
    def ratios(self) -> tuple[float, float, float]:
        return (self.train_ratio, self.val_ratio, self.test_ratio)

    @property
    def head(self) -> Head:
        """The classifier head of the head keys; raises ValueError naming
        the keys of one that cannot be built."""
        return Head(**{f.name: getattr(self, f.name) for f in fields(Head)})

    @property
    def class_name_list(self) -> list[str] | None:
        if not self.class_names:
            return None
        return self.class_names.split(",")


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}

# field type -> (parse, format) of its text form: numpy scalars format as the
# plain values the parser reads back, a float in its shortest exact round-trip form
ValueText = namedtuple("ValueText", "parse format")
VALUE_TEXT = {
    "bool": ValueText({"true": True, "false": False}.__getitem__,
                      lambda value: "true" if value else "false"),
    "int": ValueText(int, lambda value: str(int(value))),
    "float": ValueText(float, lambda value: repr(float(value))),
    "str": ValueText(str, str),
}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        return VALUE_TEXT[kind].parse(raw)
    except (KeyError, ValueError):  # KeyError: a bool neither true nor false
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from None


def parse_config_text(text: str, source: str = "<config>", **overrides) -> TrainConfig:
    """The config of ``text``, with each non-None override replacing its key's
    value before the one ``validate_config``."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected `key = value`")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}: line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {key!r}")
        values[key] = _convert(key, raw)
    values.update((key, value) for key, value in overrides.items() if value is not None)
    return validate_config(TrainConfig(**values))


def load_config(path, **overrides) -> TrainConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, str(path), **overrides)


def validate_config(config: TrainConfig) -> TrainConfig:
    """``config``, if every rule holds; else a ConfigError naming the keys."""
    for key in ("epochs", "batch_size", "synth_per_class", "synth_group_size"):
        if getattr(config, key) < 1:
            raise ConfigError(f"{key}: must be positive")
    try:
        head = config.head  # builds the head, which checks its keys
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    halves = 2 if config.embedding == "dense_angle" else 1  # a complex state's real halves
    sizes = {"n_qubits, depth, n_classes, in_dim": ("parameters", layout_size(head.layout)),
             # the adjoint sweep stacks a minibatch's states (phi, lambda)
             "batch_size, n_qubits": ("minibatch state values",
                                      2 * halves * config.batch_size * 2**config.n_qubits)}
    if config.data == "synth":
        sizes["synth_per_class, n_classes, in_dim"] = (
            "synthetic feature values", config.synth_per_class * config.n_classes * config.in_dim)
    for keys, (what, values) in sizes.items():
        if values > MAX_ARRAY_VALUES:
            raise ConfigError(f"{keys}: {values} {what} in one array, over the cap of "
                              f"{MAX_ARRAY_VALUES}")
    if config.data == "synth" and config.in_dim < config.n_classes:
        # each synthetic class centre lies on its own orthogonal axis
        raise ConfigError(f"in_dim, n_classes: synthetic data needs in_dim >= n_classes, "
                          f"got {config.in_dim} < {config.n_classes}")
    if config.lr <= 0:
        raise ConfigError("lr: must be positive")
    if config.weight_decay < 0:
        raise ConfigError("weight_decay: must be non-negative")
    try:
        SplitSpec(ratios=config.ratios)
    except ValueError as exc:
        raise ConfigError(f"train_ratio, val_ratio, test_ratio: {exc}") from None
    names = config.class_name_list or []
    if names and (len(names) != config.n_classes or len(set(names)) != len(names)
                  or any(not name or name != name.strip() for name in names)):
        raise ConfigError(f"class_names: need {config.n_classes} distinct, non-empty, "
                          f"comma-separated names without surrounding spaces, got "
                          f"{config.class_names!r}")
    for f in fields(config):
        value = getattr(config, f.name)
        # a manifest writes each value back as one comment-stripped, whitespace-trimmed line
        if f.type == "str" and ("#" in value or value != value.strip()
                                or len(value.splitlines()) > 1):
            raise ConfigError(f"{f.name}: must be one line without '#' or surrounding "
                              f"spaces, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ConfigError(f"{f.name}: must be finite, got {value!r}")
    return config


def config_to_text(config: TrainConfig) -> str:
    lines = [f"{f.name} = {VALUE_TEXT[f.type].format(getattr(config, f.name))}"
             for f in fields(config)]
    return "\n".join(lines) + "\n"

