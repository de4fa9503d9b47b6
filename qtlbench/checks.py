"""Correctness checks on a run's outputs, made outside the timed region.

The qtlsim imports are local because the benchmark puts the checkout's
``src`` on the path only once it has found it there.
"""
from __future__ import annotations

import contextlib
import io
import math

# Absolute tolerance on the recorded evaluate loss and AUROC. It leaves
# room for a change of summation order in the program; the confusion
# matrix must match exactly.
EVAL_TOLERANCE = 1e-6

METRIC_HEADER = "split,epoch,loss,accuracy,auroc"
CONFUSION_HEADER = "confusion matrix (rows = true class):"


def parse_evaluate_output(text: str) -> dict:
    """The metric row and confusion matrix ``qtlsim evaluate`` prints."""
    lines = text.splitlines()
    row = lines[lines.index(METRIC_HEADER) + 1].split(",")
    start = lines.index(CONFUSION_HEADER) + 1
    confusion = [[int(v) for v in line.split()] for line in lines[start:] if line.strip()]
    return {"loss": float(row[2]), "accuracy": float(row[3]), "auroc": float(row[4]),
            "confusion": confusion}


def read_manifest(path) -> dict:
    """``# key = value`` summary lines of a run manifest, as strings."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# ") and " = " in line:
                key, value = line[2:].split(" = ", 1)
                out[key.strip()] = value.strip()
    return out


def grad_check(checkpoint_path, features, label: int) -> tuple[bool, str]:
    """Model gradient of the checkpoint against finite differences."""
    from qtlsim.checkpoint import load_checkpoint
    from qtlsim.cli import GRAD_CHECK_THRESHOLD
    from qtlsim.gradcheck import run_grad_check

    discrepancy = run_grad_check(load_checkpoint(checkpoint_path), features, label)
    ok = math.isfinite(discrepancy) and discrepancy < GRAD_CHECK_THRESHOLD
    return ok, f"grad check discrepancy {discrepancy!r} (threshold {GRAD_CHECK_THRESHOLD!r})"


def val_reproduces_manifest(checkpoint_path, manifest_path) -> tuple[bool, str]:
    """``qtlsim evaluate --split val`` gives the manifest's best_val_auroc."""
    from qtlsim.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["evaluate", str(checkpoint_path), "--manifest", str(manifest_path),
                     "--split", "val"])
    if code != 0:
        return False, f"evaluate --split val exited {code}"
    got = parse_evaluate_output(out.getvalue())["auroc"]
    want = float(read_manifest(manifest_path)["best_val_auroc"])
    return got == want, f"evaluate --split val auroc {got!r}, manifest {want!r}"


def matches_recorded(result: dict, recorded: dict) -> tuple[bool, str]:
    """Evaluate output against values recorded for the default seed."""
    ok = (abs(result["loss"] - recorded["loss"]) <= EVAL_TOLERANCE
          and abs(result["auroc"] - recorded["auroc"]) <= EVAL_TOLERANCE
          and result["confusion"] == recorded["confusion"])
    return ok, (f"loss {result['loss']!r} auroc {result['auroc']!r} "
                f"confusion {result['confusion']} vs recorded {recorded}")
