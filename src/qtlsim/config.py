"""Flat `key = value` run configuration.

The format is deliberately minimal: one assignment per line, ``#``
comments, no nesting. A run manifest is itself a valid config, so any
completed run can be reproduced by pointing train at its manifest.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .hybrid import check_model_shape


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
    def class_name_list(self) -> list[str] | None:
        if not self.class_names:
            return None
        return self.class_names.split(",")


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        if raw not in ("true", "false"):
            raise ConfigError(f"{key}: expected true or false, got {raw!r}")
        return raw == "true"
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from None
    return raw


def parse_config_text(text: str, source: str = "<config>") -> TrainConfig:
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
    config = TrainConfig(**values)
    validate_config(config)
    return config


def load_config(path) -> TrainConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def validate_config(config: TrainConfig):
    for key in ("n_qubits", "depth", "n_classes", "epochs", "batch_size",
                "in_dim", "synth_per_class", "synth_group_size"):
        if getattr(config, key) < 1:
            raise ConfigError(f"{key}: must be positive")
    try:
        check_model_shape(config.mode, config.embedding, config.n_qubits,
                          config.n_classes, config.in_dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if config.lr <= 0:
        raise ConfigError("lr: must be positive")
    if config.weight_decay < 0:
        raise ConfigError("weight_decay: must be non-negative")
    if min(config.ratios) <= 0:
        raise ConfigError("train_ratio, val_ratio, test_ratio: must be positive")
    if abs(sum(config.ratios) - 1.0) > 1e-9:
        raise ConfigError(
            f"train_ratio, val_ratio, test_ratio: must sum to 1, got {sum(config.ratios)!r}"
        )
    names = config.class_name_list or []
    # a manifest writes these back as one comment-stripped, whitespace-trimmed line
    if names and (len(names) != config.n_classes or len(set(names)) != len(names)
                  or any(name != name.strip() or name.splitlines() != [name]
                         or "#" in name for name in names)):
        raise ConfigError(
            f"class_names: need {config.n_classes} distinct, non-empty, comma-separated "
            f"names without surrounding spaces, line breaks or '#', got "
            f"{config.class_names!r}"
        )


def _format_value(kind: str, value) -> str:
    """Text form by the field's declared type, so numpy scalars write as
    the plain values the parser reads back."""
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))  # shortest exact round-trip form
    if kind == "int":
        return str(int(value))
    return str(value)


def config_to_text(config: TrainConfig) -> str:
    lines = [f"{f.name} = {_format_value(f.type, getattr(config, f.name))}"
             for f in fields(config)]
    return "\n".join(lines) + "\n"


def with_overrides(config: TrainConfig, **overrides) -> TrainConfig:
    updated = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    validate_config(updated)
    return updated
