#!/usr/bin/env python3
"""qtlsim benchmark: whole ``qtlsim`` CLI runs on generated inputs.

usage: python3 qtlbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each timed run is one ``qtlsim.cli.main(argv)`` call in a fresh
single-threaded child process. Runs go one at a time, a closed loop with
one client, until ``--seconds`` have passed and at least MIN_RUNS have
finished; timings are medians over those runs. ``--trace 1`` alternates
untraced and traced runs and reports per-layer metrics instead. Without
``--workload`` every workload runs in turn.

Inputs are generated from ``--seed`` by ``inputs.py``. Outputs are
checked outside the timed region; a run fails on a non-zero exit code or
a failed check. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
for why each workload and metric is there.
"""
from __future__ import annotations

import os

# Single-threaded BLAS in this process and, through the environment, in
# every child. Set before numpy loads.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import checks
import inputs
from tracer import CIRCUIT_RUN, GRADIENT, TARGETS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".qtlbench_work")

DEFAULT_SEED = 0
FIXTURE_SEED = 0
MIN_RUNS = 3
# Stop starting runs once another run could end past this many seconds,
# and kill a run after CHILD_TIMEOUT_S (six times the slowest seen), so
# that one invocation, fixture and checks included, ends within three
# minutes.
BUDGET_S = 150.0
CHILD_TIMEOUT_S = 60.0
CLASS_NAMES = ("class0", "class1")
ARTIFACTS = ("metrics.csv", "checkpoint.bin", "manifest.txt")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # "train" or "evaluate"
    model: dict            # qtlsim config of the trained model
    rows: int              # rows of the CSV the timed command reads
    group_size: int        # rows per group_id
    separation: float      # distance of each class centre from the origin
    why: str
    fixture_rows: int = 0  # evaluate: rows the untimed checkpoint trains on


WORKLOADS = (
    Workload(
        "train_dqc_q4", "train",
        dict(mode="dqc", embedding="angle", n_qubits=4, depth=1, n_classes=2,
             epochs=5, batch_size=8, lr=0.03, in_dim=512),
        rows=200, group_size=4, separation=16.0,
        why="CLI-default dqc head: 12 gates and 17 circuit runs per gradient, so "
            "per-call overhead and the classical hybrid path (2062 parameters, Adam, "
            "model rebuild) weigh most."),
    Workload(
        "train_purevqc_q9", "train",
        dict(mode="purevqc", embedding="amplitude", n_qubits=9, depth=3, n_classes=2,
             epochs=3, batch_size=8, lr=0.05, in_dim=512),
        rows=60, group_size=3, separation=30.0,
        why="Pure VQC, no classical layers: parameter-shift makes 55 runs of 54 gates "
            "per gradient, so the gate kernel dominates and hybrid dense or Adam "
            "changes should move nothing."),
    # Training this head for a few steps learns on some seeds and not on
    # others, so the checkpoint comes from one fixed fixture seed and only
    # the evaluated rows follow --seed.
    Workload(
        "evaluate_dqc_q8", "evaluate",
        dict(mode="dqc", embedding="dense_angle", n_qubits=8, depth=4, n_classes=2,
             epochs=1, batch_size=4, lr=0.3, in_dim=512),
        rows=2000, group_size=4, separation=16.0, fixture_rows=40,
        why="Forward-only evaluate of an 8-qubit depth-4 checkpoint over 2000 CSV "
            "rows: no gradient at all, and CSV ingestion is a large share of set-up."),
)
BY_NAME = {w.name: w for w in WORKLOADS}

# What `qtlsim evaluate` printed for the default seed, checked with
# checks.EVAL_TOLERANCE.
RECORDED = {
    ("evaluate_dqc_q8", DEFAULT_SEED): {
        "loss": 0.16168707688621606, "auroc": 0.996365,
        "confusion": [[969, 31], [48, 952]],
    },
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("samples_per_s", "samples/s"),
              ("auroc", "1"), ("peak_rss_mb", "MiB"))

CALL_COUNTED = ("sim.run_circuit_raw", "vqc.circuit_param_shift",
                "vqc.circuit_expectations", "vqc.zexp_from_amps",
                "hybrid.model_forward", "hybrid.model_backward",
                "hybrid.dense_forward", "hybrid.adam_step",
                "embeddings.amplitude_embed", "training.evaluate")
SPANS = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)
PER_LAYER = (tuple((f"{n}.calls", "count") for n in CALL_COUNTED)
             + tuple((f"{n}.self_s", "s") for n in SPANS)
             + (("sim.gates", "count"), ("sim.us_per_gate", "us"),
                ("sim.bytes_computed", "B"), ("vqc.runs_per_gradient", "runs/gradient"),
                ("trace.overhead_s", "s"), ("trace.unattributed_s", "s")))


class BenchError(Exception):
    """The benchmark could not set a workload up."""


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(work: str, tag: str, phase: str, trace: bool, argv: list) -> dict:
    """One qtlsim CLI call in a fresh process; returns its timestamps and output."""
    result_path = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), result_path, phase,
           "1" if trace else "0", "--", *argv]
    run = {"tag": tag, "trace": trace, "t_spawn": time.monotonic()}
    try:
        proc = subprocess.run(cmd, cwd=work, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return dict(run, ok=False, error=f"timed out after {CHILD_TIMEOUT_S} s")
    run.update(stdout=proc.stdout, exit_code=proc.returncode)
    if proc.returncode != 0 or not os.path.exists(result_path):
        return dict(run, ok=False,
                    error=f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    with open(result_path, encoding="utf-8") as fh:
        run.update(json.load(fh))
    if "t_phase_start" not in run:
        return dict(run, ok=False, error=f"training.{phase} was never called")
    return dict(run, ok=True)


@dataclass
class Prepared:
    work: str
    argv: list
    input_sha256: dict
    grad_features: np.ndarray
    grad_label: int
    fixture_checkpoint_sha256: str = ""


def prepare(w: Workload, seed: int, work: str) -> Prepared:
    """Write the inputs and, for evaluate, train the fixture checkpoint."""
    centre_seed = seed if w.command == "train" else FIXTURE_SEED
    centres = inputs.class_centres(centre_seed, w.model["in_dim"], len(CLASS_NAMES),
                                   w.separation)
    labels, groups, features = inputs.cluster_rows(seed, 1, centres, w.rows,
                                                   w.group_size, "g")
    data = os.path.join(work, "data.csv")
    inputs.write_csv(data, labels, groups, features, CLASS_NAMES)
    config = os.path.join(work, "config.txt")
    inputs.write_config(config, dict(w.model, class_names=",".join(CLASS_NAMES)))
    files = [config, data]
    fixture_sha = ""
    if w.command == "train":
        argv = ["train", "--config", config, "--data", data, "--seed", str(seed), "--out"]
    else:
        fixture_data = os.path.join(work, "fixture.csv")
        inputs.write_csv(fixture_data, *inputs.cluster_rows(
            FIXTURE_SEED, 2, centres, w.fixture_rows, w.group_size, "f"), CLASS_NAMES)
        files.append(fixture_data)
        fixture_dir = os.path.join(work, "fixture")
        fixture = run_child(work, "fixture", "train", False,
                            ["train", "--config", config, "--data", fixture_data,
                             "--seed", str(FIXTURE_SEED), "--out", fixture_dir])
        if not fixture["ok"]:
            raise BenchError(f"fixture training failed: {fixture['error']}")
        checkpoint = os.path.join(fixture_dir, "checkpoint.bin")
        fixture_sha = inputs.sha256_file(checkpoint)
        argv = ["evaluate", checkpoint, "--data", data, "--split", "all"]
    return Prepared(work, argv,
                    {os.path.basename(p): inputs.sha256_file(p) for p in files},
                    features[0], int(labels[0]), fixture_sha)


def timed_runs(w: Workload, prep: Prepared, seconds: float, trace: bool,
               started: float) -> list:
    """Closed loop of child runs; with trace, untraced and traced alternate."""
    runs = []
    begin = time.monotonic()
    longest = 0.0
    while True:
        for traced in ((False, True) if trace else (False,)):
            tag = f"run{len(runs)}"
            argv = prep.argv + ([os.path.join(prep.work, tag)] if w.command == "train" else [])
            t0 = time.monotonic()
            runs.append(run_child(prep.work, tag, w.command, traced, argv))
            longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        enough = now - begin >= seconds and len(runs) >= MIN_RUNS
        if enough or now - started + longest * (2 if trace else 1) > BUDGET_S:
            return runs


def outputs_digest(w: Workload, prep: Prepared, run: dict) -> str:
    digest = hashlib.sha256()
    if w.command == "train":
        for name in ARTIFACTS:
            with open(os.path.join(prep.work, run["tag"], name), "rb") as fh:
                digest.update(fh.read())
    else:
        digest.update(run["stdout"].encode())
    return digest.hexdigest()


def check_runs(w: Workload, seed: int, prep: Prepared, runs: list) -> list:
    """Mark each run ok or failed; returns the run-level check messages."""
    good = [r for r in runs if r["ok"]]
    if not good:
        return ["no run succeeded"]
    ref = good[0]
    ref_digest = outputs_digest(w, prep, ref)
    for r in good[1:]:
        if outputs_digest(w, prep, r) != ref_digest:
            r.update(ok=False, error="outputs differ from the first run on identical inputs")
    results = []
    if w.command == "train":
        out = os.path.join(prep.work, ref["tag"])
        checkpoint = os.path.join(out, "checkpoint.bin")
        manifest = os.path.join(out, "manifest.txt")
        results.append(checks.grad_check(checkpoint, prep.grad_features, prep.grad_label))
        results.append(checks.val_reproduces_manifest(checkpoint, manifest))
    else:
        try:
            parsed = checks.parse_evaluate_output(ref["stdout"])
        except (ValueError, IndexError) as exc:
            parsed = None
            results.append((False, f"cannot parse the evaluate output: {exc}"))
        if parsed is not None:
            print(f"{w.name}: evaluate output {json.dumps(parsed)}")
            total = sum(map(sum, parsed["confusion"]))
            results.append((total == w.rows,
                            f"confusion matrix counts {total} of {w.rows} rows"))
            recorded = RECORDED.get((w.name, seed))
            if recorded is not None:
                results.append(checks.matches_recorded(parsed, recorded))
    if not all(ok for ok, _ in results):
        for r in runs:
            r.update(ok=False, error="run-level check failed")
    return [("PASS " if ok else "FAIL ") + msg for ok, msg in results]


def phase_work(w: Workload, prep: Prepared, run: dict) -> tuple[float, float]:
    """(samples processed in the timed phase, AUROC) of one run."""
    if w.command == "train":
        manifest = checks.read_manifest(os.path.join(prep.work, run["tag"], "manifest.txt"))
        return w.model["epochs"] * int(manifest["n_train"]), float(manifest["best_val_auroc"])
    return float(w.rows), checks.parse_evaluate_output(run["stdout"])["auroc"]


def end_to_end(w: Workload, prep: Prepared, runs: list) -> dict:
    values = {name: [] for name, _ in END_TO_END}
    for r in runs:
        samples, auroc = phase_work(w, prep, r)
        values["wall_s"].append(r["t_end"] - r["t_spawn"])
        values["setup_s"].append(r["t_phase_start"] - r["t_spawn"])
        values["samples_per_s"].append(samples / (r["t_phase_end"] - r["t_phase_start"]))
        values["auroc"].append(auroc)
        values["peak_rss_mb"].append(r["peak_rss_kb"] / 1024.0)
    return {name: (statistics.median(values[name]), unit) for name, unit in END_TO_END}


def per_layer(traced: list, untraced: list) -> dict:
    """Per-layer metrics: medians over traced runs of each count and self time."""
    def med(f):
        return statistics.median(f(r["trace"]) for r in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    wall = [r["t_end"] - r["t_spawn"] for r in traced]
    values = {f"{n}.calls": med(lambda t, n=n: t["calls"][n]) for n in CALL_COUNTED}
    values.update({f"{n}.self_s": med(lambda t, n=n: t["self_s"][n]) for n in SPANS})
    values.update({
        "sim.gates": med(lambda t: t["gates"]),
        "sim.us_per_gate": med(lambda t: 1e6 * ratio(t["self_s"][CIRCUIT_RUN], t["gates"])),
        "sim.bytes_computed": med(lambda t: t["bytes_computed"]),
        "vqc.runs_per_gradient": med(lambda t: ratio(t["runs_in_gradient"],
                                                    t["calls"][GRADIENT])),
        "trace.overhead_s": statistics.median(wall) - statistics.median(
            r["t_end"] - r["t_spawn"] for r in untraced),
        "trace.unattributed_s": statistics.median(
            w - sum(r["trace"]["self_s"].values()) for w, r in zip(wall, traced)),
    })
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Prepare, time, check and summarise one workload; prints as it goes."""
    started = time.monotonic()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-{seed}-", dir=WORK_ROOT)
    try:
        prep = prepare(w, seed, work)
        print(f"{w.name} seed {seed}: inputs " + json.dumps(prep.input_sha256, sort_keys=True))
        if prep.fixture_checkpoint_sha256:
            print(f"{w.name}: fixture checkpoint sha256 {prep.fixture_checkpoint_sha256}")
        runs = timed_runs(w, prep, seconds, trace, started)
        for line in check_runs(w, seed, prep, runs):
            print(f"{w.name}: {line}")
        for r in runs:
            if r["ok"]:
                print(f"{w.name}: {r['tag']}{' traced' if r['trace'] else ''} "
                      f"wall_s {r['t_end'] - r['t_spawn']:.4f} cpu_s {r['cpu_s']:.4f} "
                      f"setup_s {r['t_phase_start'] - r['t_spawn']:.4f}")
            else:
                print(f"{w.name}: {r['tag']} failed: {r['error']}")
        untraced = [r for r in runs if r["ok"] and not r["trace"]]
        traced = [r for r in runs if r["ok"] and r["trace"]]
        metrics, counted = {}, 0
        if trace and traced and untraced:
            metrics, counted = per_layer(traced, untraced), len(traced)
            absent = traced[0]["trace"]["absent"]
            if absent:
                print(f"{w.name}: absent trace targets (reported as 0): {absent}")
        elif not trace and untraced:
            metrics, counted = end_to_end(w, prep, untraced), len(untraced)
        for name, (value, unit) in metrics.items():
            print(f"{w.name}: {name:34s} {value:16.6f} {unit:16s} median of {counted} runs")
        failed = sum(not r["ok"] for r in runs)
        print(f"{w.name}: {'error_rate':34s} {failed / len(runs):16.6f} "
              f"{'failed/attempted':16s} {failed} of {len(runs)} runs")
        return {"correct": failed == 0 and bool(metrics), "attempted": len(runs),
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps its running child and
    # removes its work directory: subprocess.run and the finally blocks
    # see the SystemExit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "qtlsim", "__init__.py")):
        print(f"qtlbench: no qtlsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qtlsim  # noqa: F401  (also compiles the bytecode the runs will load)

    print("env " + json.dumps(environment(), sort_keys=True))
    chosen = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    all_correct = True
    for w in chosen:
        try:
            result = run_workload(w, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"qtlbench: {w.name}: {exc}", file=sys.stderr)
            return 1
        all_correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
