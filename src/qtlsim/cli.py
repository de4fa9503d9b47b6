"""Experiment runner: train / evaluate / encode-demo / grad-check.

Exit codes: 0 success, 1 failed grad check, 2 config error, 3 data
error, 4 numerical abort, 5 checkpoint version mismatch.
"""
from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .config import (MAX_ARRAY_VALUES, VALUE_TEXT, ConfigError, TrainConfig, config_to_text,
                     load_config, validate_config)
from .data import DataError, Dataset, SplitSpec, balanced_group_split, load_feature_csv, synth_dataset
from .embeddings import (COLOR_BITS, amplitude_embed, amplitude_qubits, frqi_decode, frqi_encode,
                         neqr_decode, neqr_encode, pixel_angles, read_pgm)
from .gradcheck import run_grad_check
from .hybrid import Head, HybridModel, count_parameters, init_model
from .metrics import MetricRecord
from .seeding import substream
from .training import TrainingAborted, best_val_record, evaluate, train

GRAD_CHECK_THRESHOLD = 1e-4

EXIT_GRAD_CHECK = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_VERSION = 5


_fmt = VALUE_TEXT["float"].format

METRICS_HEADER = "split,epoch,loss,accuracy,auroc"


def _metric_row(rec: MetricRecord) -> str:
    return ",".join([rec.split, str(rec.epoch), _fmt(rec.loss),
                     _fmt(rec.accuracy), _fmt(rec.auroc)])


def write_metrics_csv(path, history):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for rec in history:
            fh.write(_metric_row(rec) + "\n")


def _load_dataset(config: TrainConfig) -> Dataset:
    if config.data == "synth":
        return synth_dataset(config.synth_per_class, config.n_classes, config.in_dim,
                             config.synth_separation, config.seed, config.synth_group_size,
                             config.class_name_list)
    return load_feature_csv(config.data, class_names=config.class_name_list)


def _split(config: TrainConfig, dataset: Dataset):
    if dataset.n_classes != config.n_classes:
        raise DataError(f"data has {dataset.n_classes} classes, "
                        f"config expects {config.n_classes}")
    if dataset.features.shape[1] != config.in_dim:
        raise DataError(f"all samples must carry {config.in_dim}-dim feature vectors")
    spec = SplitSpec(ratios=config.ratios, seed=config.seed, balance=config.balance)
    return balanced_group_split(dataset, spec)


def _initial_model(config: TrainConfig) -> HybridModel:
    """The model a run of ``config`` starts from, which grad-check checks."""
    return init_model(config.head, substream(config.seed, "init"))


def write_manifest(path, config: TrainConfig, splits, history, checkpoint):
    """The config, then ``# key = value`` notes: split sizes, the selected
    epoch's metrics and the digests of ``checkpoint`` and the data file."""
    train_set, val_set, test_set = splits
    best = best_val_record(history)
    notes = dict(n_train=len(train_set), n_val=len(val_set), n_test=len(test_set),
                 best_epoch=best.epoch, best_val_loss=_fmt(best.loss),
                 best_val_accuracy=_fmt(best.accuracy), best_val_auroc=_fmt(best.auroc),
                 **_digests(checkpoint, config.data))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# qtlsim {__version__} run manifest; rerunnable via "
                 f"`qtlsim train --config <this file>`\n")
        fh.write(config_to_text(config))
        fh.writelines(f"# {key} = {value}\n" for key, value in notes.items())


def manifest_notes(path) -> dict[str, str]:
    """The ``# key = value`` notes that ``write_manifest`` writes after the config."""
    with open(path, encoding="utf-8") as fh:
        return dict(re.findall(r"^# (\w+) = (.*)$", fh.read(), re.MULTILINE))


def _digests(checkpoint, data) -> dict[str, str]:
    """The SHA-256 notes of a run: its checkpoint and, from a file, its data."""
    files = dict(checkpoint_sha256=checkpoint)
    if data != "synth":
        files["data_sha256"] = data
    return {key: _sha256(path) for key, path in files.items()}


def _sha256(path) -> str:
    import hashlib  # here: at module level it would map OpenSSL into every evaluate

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_train(args) -> int:
    if not args.out:
        raise ConfigError("--out: the output directory is an empty path")
    ancestor = os.path.abspath(args.out)  # its nearest existing ancestor must be a directory
    while not os.path.isdir(ancestor):
        if os.path.exists(ancestor):
            raise ConfigError(f"--out {args.out}: {ancestor} exists and is not a directory")
        ancestor = os.path.dirname(ancestor)
    config = load_config(args.config, seed=args.seed, data=args.data)
    # only the splits' own row copies live on through training
    splits = _split(config, _load_dataset(config))
    train_set, val_set, _ = splits
    # pinned now, so names the manifest cannot reproduce fail before training
    config = validate_config(replace(config, class_names=",".join(train_set.class_names)))

    model = replace(_initial_model(config), class_names=train_set.class_names)
    best, history = train(
        model, train_set, val_set,
        epochs=config.epochs, batch_size=config.batch_size, lr=config.lr,
        weight_decay=config.weight_decay, seed=config.seed,
    )

    checkpoint = os.path.join(args.out, "checkpoint.bin")
    try:
        os.makedirs(args.out, exist_ok=True)
        write_metrics_csv(os.path.join(args.out, "metrics.csv"), history)
        save_checkpoint(checkpoint, best)
        write_manifest(os.path.join(args.out, "manifest.txt"), config, splits, history, checkpoint)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: cannot write the artifacts: {exc}") from exc

    classical, quantum = count_parameters(best)
    best_rec = best_val_record(history)
    print(f"trained {config.mode} for {config.epochs} epochs; "
          f"{classical} classical + {quantum} quantum parameters")
    print(f"best epoch {best_rec.epoch}: val loss {best_rec.loss:.6f}, "
          f"accuracy {best_rec.accuracy:.4f}, auroc {best_rec.auroc:.4f}")
    print(f"artifacts in {args.out}: metrics.csv, checkpoint.bin, manifest.txt")
    return 0


def cmd_evaluate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    manifest_path = args.manifest
    if manifest_path is None:
        sibling = os.path.join(os.path.dirname(args.checkpoint) or ".", "manifest.txt")
        manifest_path = sibling if os.path.exists(sibling) else None
    config = load_config(manifest_path, data=args.data) if manifest_path is not None else None
    if config is not None:  # refuse another head's manifest; names count if the checkpoint has them
        head = {f.name: getattr(model.head, f.name) for f in fields(Head)}
        head["class_names"] = ",".join(model.class_names) or config.class_names
        differ = [f"{key} = {getattr(config, key)} against the checkpoint's {value}"
                  for key, value in head.items() if getattr(config, key) != value]
        if differ:
            raise ConfigError(f"{manifest_path}: another head's manifest: {'; '.join(differ)}")
    if args.split != "all" and config is None:
        raise ConfigError(f"--split {args.split} needs the run manifest to rebuild "
                          f"the split; pass --manifest")

    if config is not None:
        dataset = _load_dataset(config)
    elif args.data is not None:
        # the checkpoint's names pin the label mapping; a QTLSIM1 file has none
        dataset = load_feature_csv(args.data, class_names=model.class_names or None)
    else:
        raise DataError("no data source: pass --data or --manifest")

    subset, best_epoch = dataset, 0
    if args.split != "all":  # a split needs the manifest, checked above
        subset = dict(zip(("train", "val", "test"), _split(config, dataset)))[args.split]
        notes = manifest_notes(manifest_path)
        if "checkpoint_sha256" in notes:  # a manifest older than its digests has none
            found = _digests(args.checkpoint, config.data)
            differ = [key for key in ("checkpoint_sha256", "data_sha256")
                      if notes.get(key) != found.get(key)]
            if differ:
                raise ConfigError(f"{manifest_path}: another run's manifest: the files "
                                  f"evaluated do not match its {' and '.join(differ)}")
        try:
            best_epoch = int(notes.get("best_epoch", 0))
        except ValueError:
            raise ConfigError(f"{manifest_path}: bad note best_epoch = "
                              f"{notes['best_epoch']}") from None
    rec = evaluate(model, subset, split=args.split, epoch=best_epoch)
    print(METRICS_HEADER)
    print(_metric_row(rec))
    print("confusion matrix (rows = true class):")
    for row in rec.confusion:
        print(" ".join(str(int(v)) for v in row))
    return 0


def _read_feature_file(path) -> np.ndarray:
    """Comma- or whitespace-separated numbers, each parsed by numpy's float
    parser, as ``load_feature_csv`` parses its features; as there, an empty
    field between commas is an error."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for number, line in enumerate(lines, 1):
        empty = [k for k, field in enumerate(line.split(","), 1) if not field.strip()]
        if "," in line and empty:
            raise DataError(f"{path}: line {number}: comma field {empty[0]} is empty")
    tokens = " ".join(lines).replace(",", " ").split()
    if not tokens:
        raise DataError(f"{path}: no numeric values")
    try:
        return np.loadtxt(tokens, dtype=float, comments=None, ndmin=1)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def cmd_encode_demo(args) -> int:
    is_pgm = args.input.lower().endswith(".pgm")
    if args.scheme in ("frqi", "neqr") and not is_pgm:
        raise DataError(f"{args.scheme} demo needs a .pgm image, got {args.input}")
    try:
        if args.scheme == "amplitude":
            values = read_pgm(args.input).pixels.astype(float) if is_pgm \
                else _read_feature_file(args.input)
            n_qubits = amplitude_qubits(values.shape[0])
        else:
            image = read_pgm(args.input)
            n_qubits = 2 * image.n + (1 if args.scheme == "frqi" else COLOR_BITS)
        if 2**n_qubits > MAX_ARRAY_VALUES:
            raise DataError(f"{args.input}: a {args.scheme} state of {n_qubits} qubits holds "
                            f"2**{n_qubits} amplitudes, over the cap of {MAX_ARRAY_VALUES}")
        if args.scheme == "frqi":
            state = frqi_encode(image)
            err = float(np.max(np.abs(frqi_decode(state, image.n) - pixel_angles(image))))
        elif args.scheme == "neqr":
            state = neqr_encode(image)
            decoded = neqr_decode(state, image.n)
            err = float(np.max(np.abs(decoded.pixels - image.pixels)))
        else:
            state = amplitude_embed(values)
            padded = np.zeros(state.amplitudes.shape[0])
            padded[: values.shape[0]] = values / np.linalg.norm(values)
            err = float(np.max(np.abs(state.amplitudes - padded)))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    print(f"scheme: {args.scheme}")
    print(f"qubits: {state.n_qubits}")
    print(f"state size: {state.amplitudes.shape[0]}")
    print(f"round-trip error: {_fmt(err)}")
    return 0


def cmd_grad_check(args) -> int:
    config = load_config(args.config, seed=args.seed)
    model = _initial_model(config)
    rng = substream(config.seed, "gradcheck")
    features = rng.standard_normal(config.in_dim)
    label = int(rng.integers(config.n_classes))
    discrepancy = run_grad_check(model, features, label)
    print(f"max relative gradient discrepancy: {_fmt(discrepancy)}")
    if not (math.isfinite(discrepancy) and discrepancy < GRAD_CHECK_THRESHOLD):
        print(f"FAIL: discrepancy exceeds {GRAD_CHECK_THRESHOLD:g}", file=sys.stderr)
        return EXIT_GRAD_CHECK
    print(f"PASS: below {GRAD_CHECK_THRESHOLD:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtlsim",
        description="Hybrid quantum-classical classifier experiments on a "
                    "statevector simulator",
    )
    parser.add_argument("--version", action="version", version=f"qtlsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", help="override the config's data source")
    p.add_argument("--out", default="run_out", help="output directory")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a data split")
    p.add_argument("checkpoint")
    p.add_argument("--manifest", help="run manifest (default: next to checkpoint)")
    p.add_argument("--data", help="override the manifest's data source")
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="all")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("encode-demo", help="encode an image or feature file and "
                                           "report the round-trip error")
    p.add_argument("input", help=".pgm image, or a text file of numbers for amplitude")
    p.add_argument("--scheme", choices=("frqi", "neqr", "amplitude"), required=True)
    p.set_defaults(func=cmd_encode_demo)

    p = sub.add_parser("grad-check", help="compare model gradients to finite differences")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingAborted as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CheckpointFormatError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_VERSION
    except ValueError as exc:
        # dimension/shape mismatches surfacing from the library, e.g. a
        # checkpoint evaluated against data of the wrong width
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
