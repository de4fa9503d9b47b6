"""Experiment runner: train / evaluate / encode-demo / grad-check.

Exit codes: 0 success, 1 failed grad check, 2 config error, 3 data
error, 4 numerical abort, 5 checkpoint version mismatch.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .config import ConfigError, TrainConfig, config_to_text, load_config, with_overrides
from .data import DataError, Dataset, SplitSpec, balanced_group_split, load_feature_csv, synth_dataset
from .embeddings import amplitude_embed, frqi_decode, frqi_encode, neqr_decode, neqr_encode, pixel_angles, read_pgm
from .gradcheck import run_grad_check
from .hybrid import count_parameters, init_model
from .metrics import MetricRecord
from .seeding import substream
from .training import TrainingAborted, best_val_epoch, evaluate, train

GRAD_CHECK_THRESHOLD = 1e-4

EXIT_GRAD_CHECK = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_VERSION = 5


def _fmt(x: float) -> str:
    return repr(float(x))  # shortest exact round-trip form


def _metric_row(rec: MetricRecord) -> str:
    return ",".join([rec.split, str(rec.epoch), _fmt(rec.loss),
                     _fmt(rec.accuracy), _fmt(rec.auroc)])


def write_metrics_csv(path, history):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("split,epoch,loss,accuracy,auroc\n")
        for rec in history:
            fh.write(_metric_row(rec) + "\n")


def _load_dataset(config: TrainConfig) -> Dataset:
    if config.data == "synth":
        return synth_dataset(
            config.synth_per_class, config.n_classes, config.in_dim,
            config.synth_separation, config.seed,
            group_size=config.synth_group_size,
        )
    return load_feature_csv(config.data, class_names=config.class_name_list)


def _split(config: TrainConfig, dataset: Dataset):
    if dataset.n_classes != config.n_classes:
        raise DataError(
            f"data has {dataset.n_classes} classes, config expects {config.n_classes}"
        )
    if any(s.features.shape[0] != config.in_dim for s in dataset.samples):
        raise DataError(f"all samples must carry {config.in_dim}-dim feature vectors")
    spec = SplitSpec(ratios=config.ratios, seed=config.seed, balance=config.balance)
    return balanced_group_split(dataset, spec)


def write_manifest(path, config: TrainConfig, splits, history):
    train_set, val_set, test_set = splits
    best_epoch = best_val_epoch(history)
    best = next(r for r in history if r.split == "val" and r.epoch == best_epoch)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# qtlsim {__version__} run manifest; rerunnable via "
                 f"`qtlsim train --config <this file>`\n")
        fh.write(config_to_text(config))
        fh.write(f"# n_train = {len(train_set)}\n")
        fh.write(f"# n_val = {len(val_set)}\n")
        fh.write(f"# n_test = {len(test_set)}\n")
        fh.write(f"# best_epoch = {best_epoch}\n")
        fh.write(f"# best_val_loss = {_fmt(best.loss)}\n")
        fh.write(f"# best_val_accuracy = {_fmt(best.accuracy)}\n")
        fh.write(f"# best_val_auroc = {_fmt(best.auroc)}\n")


def cmd_train(args) -> int:
    config = load_config(args.config)
    config = with_overrides(config, seed=args.seed, data=args.data)
    dataset = _load_dataset(config)
    splits = _split(config, dataset)
    # pinned now, so names the manifest cannot reproduce fail before training
    config = with_overrides(config, class_names=",".join(dataset.class_names))
    train_set, val_set, _ = splits

    model = init_model(config.mode, config.embedding, config.n_qubits, config.depth,
                       config.n_classes, substream(config.seed, "init"),
                       in_dim=config.in_dim)
    best, history = train(
        model, train_set, val_set,
        epochs=config.epochs, batch_size=config.batch_size, lr=config.lr,
        weight_decay=config.weight_decay, seed=config.seed,
    )

    os.makedirs(args.out, exist_ok=True)
    write_metrics_csv(os.path.join(args.out, "metrics.csv"), history)
    save_checkpoint(os.path.join(args.out, "checkpoint.bin"), best)
    write_manifest(os.path.join(args.out, "manifest.txt"), config, splits, history)

    classical, quantum = count_parameters(best)
    best_epoch = best_val_epoch(history)
    best_rec = next(r for r in history if r.split == "val" and r.epoch == best_epoch)
    print(f"trained {config.mode} for {config.epochs} epochs; "
          f"{classical} classical + {quantum} quantum parameters")
    print(f"best epoch {best_epoch}: val loss {best_rec.loss:.6f}, "
          f"accuracy {best_rec.accuracy:.4f}, auroc {best_rec.auroc:.4f}")
    print(f"artifacts in {args.out}: metrics.csv, checkpoint.bin, manifest.txt")
    return 0


def cmd_evaluate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    manifest_path = args.manifest
    if manifest_path is None:
        sibling = os.path.join(os.path.dirname(args.checkpoint) or ".", "manifest.txt")
        manifest_path = sibling if os.path.exists(sibling) else None
    config = None
    if manifest_path is not None:
        config = load_config(manifest_path)
    if args.split != "all" and config is None:
        raise ConfigError(
            f"--split {args.split} needs the run manifest to rebuild the split; "
            f"pass --manifest"
        )

    if config is not None:
        config = with_overrides(config, data=args.data)
        dataset = _load_dataset(config)
    elif args.data is not None:
        dataset = load_feature_csv(args.data)
    else:
        raise DataError("no data source: pass --data or --manifest")

    best_epoch = 0
    if args.split == "all":
        subset = list(dataset.samples)
    else:
        splits = dict(zip(("train", "val", "test"), _split(config, dataset)))
        subset = list(splits[args.split])
        if manifest_path is not None:
            best_epoch = _manifest_best_epoch(manifest_path)
    rec = evaluate(model, subset, split=args.split, epoch=best_epoch)
    print("split,epoch,loss,accuracy,auroc")
    print(_metric_row(rec))
    print("confusion matrix (rows = true class):")
    for row in rec.confusion:
        print(" ".join(str(int(v)) for v in row))
    return 0


def _manifest_best_epoch(path) -> int:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# best_epoch ="):
                return int(line.split("=", 1)[1])
    return 0


def _read_feature_file(path) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not values:
        raise DataError(f"{path}: no numeric values")
    return np.array(values)


def cmd_encode_demo(args) -> int:
    is_pgm = args.input.lower().endswith(".pgm")
    if args.scheme in ("frqi", "neqr") and not is_pgm:
        raise DataError(f"{args.scheme} demo needs a .pgm image, got {args.input}")
    try:
        if args.scheme == "frqi":
            image = read_pgm(args.input)
            state = frqi_encode(image)
            err = float(np.max(np.abs(frqi_decode(state, image.n) - pixel_angles(image))))
        elif args.scheme == "neqr":
            image = read_pgm(args.input)
            state = neqr_encode(image, color_bits=8)
            decoded = neqr_decode(state, image.n, color_bits=8)
            err = float(np.max(np.abs(decoded.pixels - image.pixels)))
        else:
            values = read_pgm(args.input).pixels.astype(float) if is_pgm \
                else _read_feature_file(args.input)
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
    config = load_config(args.config)
    config = with_overrides(config, seed=args.seed)
    model = init_model(config.mode, config.embedding, config.n_qubits, config.depth,
                       config.n_classes, substream(config.seed, "init"),
                       in_dim=config.in_dim)
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
