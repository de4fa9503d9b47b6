"""End-to-end command tests: artifacts, determinism, exit codes."""
import argparse
import ctypes
import hashlib
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import qtlsim.cli as cli
import qtlsim.sim as sim_mod
import qtlsim.vqc as vqc_mod
from qtlsim.checkpoint import save_checkpoint
from qtlsim.cli import main
from qtlsim.config import VALUE_TEXT, TrainConfig, load_config
from qtlsim.data import synth_dataset
from qtlsim.embeddings import GrayImage
from qtlsim.hybrid import model_forward

from oracle import write_feature_csv, write_pgm

FAST_CONFIG = """\
mode = dqc
embedding = angle
n_qubits = 4
depth = 1
n_classes = 2
epochs = 2
batch_size = 8
lr = 0.003
seed = 5
data = synth
synth_per_class = 20
synth_separation = 8
in_dim = 24
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(FAST_CONFIG)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_train_writes_three_artifacts(fast_config, tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--config", fast_config, "--out", out) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.bin").exists()
    assert (out / "manifest.txt").exists()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "split,epoch,loss,accuracy,auroc"


def test_train_rerun_is_byte_identical(fast_config, tmp_path):
    assert run_cli("train", "--config", fast_config, "--out", tmp_path / "a") == 0
    assert run_cli("train", "--config", fast_config, "--out", tmp_path / "b") == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
           (tmp_path / "b" / "metrics.csv").read_bytes()
    assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == \
           (tmp_path / "b" / "checkpoint.bin").read_bytes()


# SHA-256 of the fixed-seed artifacts of FAST_CONFIG per head, recorded
# under PINNED_UNDER. A change that alters the arithmetic on purpose
# updates them; any other change must leave them. numpy's OpenBLAS picks
# its GEMM kernel from the CPU at load time, and its kernels round some
# GEMMs differently in the last bits, so conftest.py sets
# OPENBLAS_CORETYPE=Haswell before numpy loads and the pins hold on any
# x86-64 host that can run that kernel; other OpenBLAS versions and
# non-x86 hosts can differ.
PINNED_UNDER = "numpy 2.4.6 with OpenBLAS 0.3.31, OPENBLAS_CORETYPE Haswell"
PINNED_ARTIFACTS = {
    ("dqc", "angle"): {
        "metrics.csv": "c9aaa6638b7cad1313be30fc9244f8fe1d71eb0e15d9a5fa043acf1a3b189efe",
        "checkpoint.bin": "cf1386056391449fcc7f1f06534a2e469cf4674bed60236a4773b5755335a6e9",
        "manifest.txt": "9cf271c6226a345f2314019bc0a3f1c6f67f05d4c1014ccafafa0c31ac83bb2f",
    },
    ("dqc", "dense_angle"): {
        "metrics.csv": "87bf487cb2c7d1adce57566148263c170b8afe1deb39b168310b1d8bea24e32c",
        "checkpoint.bin": "d9ae3aa690cc8600b2b3ed75fa3c6da9786628a648c510f46e2b2cfa822bdee3",
        "manifest.txt": "079d52f1262160ff1402000cf119f2f26ab10196bc955187fef4214fbc5e8417",
    },
    ("purevqc", "amplitude"): {
        "metrics.csv": "f808015ef1ff56f78b4d7a075fef9a17130bd58fe8c4626b17a3311d948bc7c7",
        "checkpoint.bin": "1d5250200cf2af3500bbf86e51b6251fae84e9a2a13557ba27040a866c955845",
        "manifest.txt": "649ab5d0f03f0597ab0372c167fc2318205b6d07b9c8f28cfad55d99cc261d10",
    },
}


def blas_runtime() -> str:
    """The running numpy version, OPENBLAS_CORETYPE and the runtime config
    of numpy's bundled OpenBLAS, which names the kernel it picked, or
    "unknown" where numpy ships no such library (np.show_config() reports
    the build target, not the runtime kernel)."""
    config = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            get_config = ctypes.CDLL(str(lib)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        config = get_config().decode()
    coretype = os.environ.get("OPENBLAS_CORETYPE", "unset")
    return f"numpy {np.__version__}, OPENBLAS_CORETYPE {coretype}, OpenBLAS config: {config}"


def assert_pinned(digests: dict, pinned: dict):
    """Byte equality of every artifact with its pin; a mismatch names the
    BLAS the pins were recorded under and the one this run used."""
    assert digests == pinned, (f"pins recorded under {PINNED_UNDER}; "
                               f"this run: {blas_runtime()}")


def test_a_pin_mismatch_names_the_running_blas():
    """The mismatch message reads the BLAS of this run without raising:
    numpy's version, OPENBLAS_CORETYPE and an OpenBLAS config naming a core
    (or "unknown" without numpy's bundled OpenBLAS)."""
    text = blas_runtime()
    assert text.startswith(f"numpy {np.__version__}, OPENBLAS_CORETYPE ")
    config = text.split("OpenBLAS config: ")[1]
    assert config == "unknown" or "OpenBLAS" in config
    with pytest.raises(AssertionError, match="pins recorded under numpy .* this run: numpy"):
        assert_pinned({"metrics.csv": "0" * 64}, {"metrics.csv": "1" * 64})


@pytest.mark.parametrize("mode, embedding", list(PINNED_ARTIFACTS))
def test_fixed_seed_artifacts_are_pinned(tmp_path, mode, embedding):
    text = FAST_CONFIG.replace("mode = dqc", f"mode = {mode}") \
                      .replace("embedding = angle", f"embedding = {embedding}")
    if mode == "purevqc":  # amplitude embedding of 24 features takes 5 qubits
        text = text.replace("n_qubits = 4", "n_qubits = 5")
    cfg = tmp_path / "config.txt"
    cfg.write_text(text)
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 0
    digests = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
               for name in PINNED_ARTIFACTS[mode, embedding]}
    assert_pinned(digests, PINNED_ARTIFACTS[mode, embedding])


# The same, under the same BLAS, for a three-class dense_angle head over four epochs, whose val
# AUROC rises every epoch, so epoch 4 is selected; "evaluate" is the stdout
# of ``evaluate --split test``. It covers auroc_macro_ovr, the three-class
# loss and selection over more than two epochs.
PINNED_THREE_CLASS = {
    "metrics.csv": "b4b4a4f71ab06c6c8948f19147882996eda605076c22a73cbecd3a34d363b984",
    "checkpoint.bin": "92bc9d0826a3991b700206a26a00fa418b3d1b2d0c103c75fe60ead8eafa64fa",
    "manifest.txt": "ff55177f6a4bf64050d9385e80f3d689534469247b5d8a7e011c4ba178a85fae",
    "evaluate": "504d9672d1acfd4829670a12d2eef7861edbc2ff6254f9ef9327547a4929045e",
}


def test_three_class_artifacts_are_pinned(tmp_path, capsys):
    cfg = tmp_path / "config.txt"
    cfg.write_text(FAST_CONFIG.replace("embedding = angle", "embedding = dense_angle")
                   .replace("n_classes = 2", "n_classes = 3")
                   .replace("epochs = 2", "epochs = 4"))
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("evaluate", out / "checkpoint.bin", "--split", "test") == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("metrics.csv", "checkpoint.bin", "manifest.txt")}
    digests["evaluate"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert_pinned(digests, PINNED_THREE_CLASS)
    assert "# best_epoch = 4\n" in (out / "manifest.txt").read_text()


def test_manifest_notes_read_what_write_manifest_writes(fast_config, tmp_path):
    """The notes after the config, in writing order: the split sizes, the
    selected epoch and its metrics, and the checkpoint's digest (a synth
    run has no data file to digest)."""
    out = tmp_path / "run"
    assert run_cli("train", "--config", fast_config, "--out", out) == 0
    notes = cli.manifest_notes(out / "manifest.txt")
    assert list(notes) == ["n_train", "n_val", "n_test", "best_epoch", "best_val_loss",
                           "best_val_accuracy", "best_val_auroc", "checkpoint_sha256"]
    assert notes["checkpoint_sha256"] == \
        hashlib.sha256((out / "checkpoint.bin").read_bytes()).hexdigest()


def test_train_seed_override_changes_metrics(fast_config, tmp_path):
    assert run_cli("train", "--config", fast_config, "--out", tmp_path / "a") == 0
    assert run_cli("train", "--config", fast_config, "--out", tmp_path / "c",
                   "--seed", 99) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() != \
           (tmp_path / "c" / "metrics.csv").read_bytes()


def test_manifest_rerun_reproduces_run(fast_config, tmp_path):
    assert run_cli("train", "--config", fast_config, "--out", tmp_path / "a") == 0
    manifest = tmp_path / "a" / "manifest.txt"
    assert run_cli("train", "--config", manifest, "--out", tmp_path / "b") == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
           (tmp_path / "b" / "metrics.csv").read_bytes()


def test_the_benchmark_hooks_exist(monkeypatch):
    """The outside-in benchmark tracer rebinds functions in qtlsim's module
    namespaces and calls a few by name: circuit_expectations must reach
    run_circuit_raw through vqc's module global, training must call
    hybrid's model_backward, and the grad-check and checkpoint entry points
    must exist."""
    import qtlsim.checkpoint as checkpoint
    import qtlsim.gradcheck as gradcheck
    import qtlsim.hybrid as hybrid
    import qtlsim.training as training

    circuit = vqc_mod.build_layers(vqc_mod.VqcTemplate(3, 2))
    calls = []
    real = vqc_mod.run_circuit_raw
    monkeypatch.setattr(vqc_mod, "run_circuit_raw",
                        lambda *args: calls.append(args[1]) or real(*args))
    vqc_mod.circuit_expectations(circuit, [0.1] * circuit.n_params, [0])
    assert calls == [circuit]
    assert training.model_backward is hybrid.model_backward
    assert callable(gradcheck.run_grad_check) and callable(checkpoint.load_checkpoint)
    assert 0 < cli.GRAD_CHECK_THRESHOLD < 1


def test_invalid_mode_embedding_combo_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("mode = purevqc\nembedding = angle\n")
    assert run_cli("train", "--config", cfg) == 2
    assert "mode, embedding" in capsys.readouterr().err


def test_missing_data_file_exits_3(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(FAST_CONFIG.replace("data = synth", "data = /nonexistent.csv"))
    assert run_cli("train", "--config", cfg) == 3


def test_class_names_a_manifest_cannot_reproduce_exit_2(fast_config, tmp_path, capsys):
    """`tumor#1` would read back as `tumor`; rejected before any artifact."""
    csv_path = tmp_path / "labels.csv"
    dataset = synth_dataset(20, 2, 24, 8.0, seed=5)
    write_feature_csv(csv_path, replace(dataset, class_names=("tumor#1", "healthy")))
    out = tmp_path / "run"
    assert run_cli("train", "--config", fast_config, "--data", csv_path,
                   "--out", out) == 2
    assert "class_names" in capsys.readouterr().err
    assert not out.exists()


def test_values_a_manifest_cannot_write_back_exit_2(fast_config, tmp_path, capsys):
    """A `#` in --data would read back from the manifest as a shorter path,
    and lr = nan would train into a numerical abort: both are config
    errors naming the key, before any artifact."""
    nan_lr = tmp_path / "nan_lr.txt"
    nan_lr.write_text(FAST_CONFIG.replace("lr = 0.003", "lr = nan"))
    out = tmp_path / "run"
    for argv, key in (([fast_config, "--data", tmp_path / "run#1" / "x.csv"], "data"),
                      ([nan_lr], "lr")):
        assert run_cli("train", "--config", *argv, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not out.exists()


def test_diverging_training_exits_4(fast_config, tmp_path, capsys):
    cfg = tmp_path / "diverge.txt"
    cfg.write_text(FAST_CONFIG.replace("lr = 0.003", "lr = 1e300"))
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("train", "--config", cfg, "--out", out) == 4
    assert [str(w.message) for w in caught] == []  # no numpy overflow warnings
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: ") and "epoch 1, step" in err
    assert not out.exists()


def test_evaluate_reproduces_best_val_metrics(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--config", fast_config, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("evaluate", out / "checkpoint.bin", "--split", "val") == 0
    printed = capsys.readouterr().out.splitlines()
    row = printed[1].split(",")

    best_epoch = None
    for line in (out / "manifest.txt").read_text().splitlines():
        if line.startswith("# best_epoch ="):
            best_epoch = int(line.split("=")[1])
        if line.startswith("# best_val_auroc ="):
            best_auroc = float(line.split("=")[1])
        if line.startswith("# best_val_loss ="):
            best_loss = float(line.split("=")[1])
    assert int(row[1]) == best_epoch
    assert abs(float(row[2]) - best_loss) < 1e-12
    assert abs(float(row[4]) - best_auroc) < 1e-12


def test_evaluate_corrupt_magic_exits_5(fast_config, tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--config", fast_config, "--out", out) == 0
    ckpt = out / "checkpoint.bin"
    data = bytearray(ckpt.read_bytes())
    data[0] ^= 0xFF
    ckpt.write_bytes(bytes(data))
    assert run_cli("evaluate", ckpt, "--split", "val") == 5


def test_evaluate_on_csv_data(fast_config, tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--config", fast_config, "--out", out) == 0
    csv_path = tmp_path / "other.csv"
    write_feature_csv(csv_path, synth_dataset(10, 2, 24, 8.0, seed=123))
    assert run_cli("evaluate", out / "checkpoint.bin", "--data", csv_path,
                   "--split", "all") == 0


def test_evaluate_wrong_width_data_exits_3(fast_config, tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--config", fast_config, "--out", out) == 0
    csv_path = tmp_path / "narrow.csv"
    write_feature_csv(csv_path, synth_dataset(4, 2, 7, 1.0, seed=1))
    code = run_cli("evaluate", out / "checkpoint.bin", "--data", csv_path,
                   "--split", "val")
    assert code == 3


def test_encode_demo_neqr_exact(tmp_path, capsys):
    img = GrayImage(4, np.random.default_rng(0).integers(0, 256, 16))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert run_cli("encode-demo", path, "--scheme", "neqr") == 0
    out = capsys.readouterr().out
    assert "qubits: 12" in out  # 8 color bits + 2n for a 4x4 image
    assert "round-trip error: 0.0" in out


def test_encode_demo_frqi_small_error(tmp_path, capsys):
    img = GrayImage(4, np.random.default_rng(1).integers(0, 256, 16))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert run_cli("encode-demo", path, "--scheme", "frqi") == 0
    out = capsys.readouterr().out
    assert "qubits: 5" in out
    err = float(out.splitlines()[-1].split(":")[1])
    assert err < 1e-9


def test_encode_demo_amplitude_512_features(tmp_path, capsys):
    path = tmp_path / "features.txt"
    values = np.random.default_rng(2).standard_normal(512)
    # repr(float(v)), not repr(v): numpy 2 reprs np.float64 as `np.float64(x)`
    path.write_text("\n".join(repr(float(v)) for v in values))
    assert run_cli("encode-demo", path, "--scheme", "amplitude") == 0
    out = capsys.readouterr().out
    assert "qubits: 9" in out
    assert "state size: 512" in out
    err = float(out.splitlines()[-1].split(":")[1])
    assert err < 1e-12


def test_encode_demo_rejects_numpy_scalar_repr(tmp_path, capsys):
    path = tmp_path / "features.txt"
    path.write_text("0.25 np.float64(0.5) 0.75 1.0")
    assert run_cli("encode-demo", path, "--scheme", "amplitude") == 3
    assert "np.float64(0.5)" in capsys.readouterr().err


def test_encode_demo_parses_numbers_as_the_csv_loader_does(tmp_path, capsys):
    """Commas and whitespace both separate; each token goes through numpy's
    float parser, as in load_feature_csv, so `1_000` and a non-ASCII digit,
    which Python float() takes, are errors, and so is an empty field between
    commas, inside a line or at its end."""
    path = tmp_path / "features.txt"
    path.write_text("1, 2\n3 4", encoding="utf-8")
    assert run_cli("encode-demo", path, "--scheme", "amplitude") == 0
    assert "state size: 4" in capsys.readouterr().out
    for text, bad in (("1_000, 2, \u0663, 4", "1_000"), ("1, 2, \u0663, 4", "\u0663"),
                      ("1,2,,3", "line 1: comma field 3 is empty"),
                      ("0 1\n1,2,3,", "line 2: comma field 4 is empty")):
        path.write_text(text, encoding="utf-8")
        assert run_cli("encode-demo", path, "--scheme", "amplitude") == 3
        assert bad in capsys.readouterr().err


def test_encode_demo_frqi_needs_image(tmp_path):
    path = tmp_path / "features.txt"
    path.write_text("1 2 3 4")
    assert run_cli("encode-demo", path, "--scheme", "frqi") == 3


def test_grad_check_passes_for_small_dqc(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("mode = dqc\nn_qubits = 4\ndepth = 1\nin_dim = 20\nseed = 1\n")
    assert run_cli("grad-check", "--config", cfg) == 0
    assert "PASS" in capsys.readouterr().out


def test_grad_check_passes_for_purevqc(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("mode = purevqc\nembedding = amplitude\nn_qubits = 9\n"
                   "depth = 1\nn_classes = 3\nin_dim = 512\nseed = 2\n")
    assert run_cli("grad-check", "--config", cfg) == 0


def test_overflowing_forward_exits_4(fast_config, tmp_path, capsys):
    """At lr 1e308 step 1 leaves theta finite, and the next forward pass
    overflows: still a numerical abort naming the epoch and step."""
    cfg = tmp_path / "diverge.txt"
    cfg.write_text(FAST_CONFIG.replace("lr = 0.003", "lr = 1e308")
                   .replace("in_dim = 24", "in_dim = 64"))
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--out", out) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: ") and "epoch 1, step 2" in err
    assert not out.exists()


def test_every_documented_exit_code(tmp_path, monkeypatch, capsys):
    """One failure per code of the cli docstring, with its stderr prefix.

    A row's patches rebind module names while it runs. A broken generator
    rebinds vqc's ROTATION_G, which only the adjoint sweep reads: the
    forward keeps its bytes and sim.ROTATION_G its entries. The `--out`
    rows refuse before any training runs."""
    small = tmp_path / "small.txt"
    small.write_text("mode = dqc\nn_qubits = 3\ndepth = 1\nin_dim = 12\nseed = 3\n")
    deep = tmp_path / "deep.txt"  # its second layer's rotations run after the product prefix
    deep.write_text("mode = dqc\nn_qubits = 3\ndepth = 2\nin_dim = 12\nseed = 3\n")
    dense = tmp_path / "dense.txt"  # its embedding RX rotations have a generator of their own
    dense.write_text("mode = dqc\nembedding = dense_angle\nn_qubits = 3\ndepth = 1\n"
                     "in_dim = 12\nseed = 3\n")
    bad_combo = tmp_path / "bad.txt"
    bad_combo.write_text("mode = purevqc\nembedding = angle\n")
    too_wide = tmp_path / "too_wide.txt"  # refused before any 2**40 array is made
    too_wide.write_text(FAST_CONFIG.replace("n_qubits = 4", "n_qubits = 40"))
    no_data = tmp_path / "no_data.txt"
    no_data.write_text(FAST_CONFIG.replace("data = synth", "data = /nonexistent.csv"))
    overflow = tmp_path / "overflow.txt"
    overflow.write_text(FAST_CONFIG.replace("lr = 0.003", "lr = 1e308"))
    future = tmp_path / "future.bin"
    future.write_bytes(b"QTLSIM9" + bytes(64))
    unwritable = tmp_path / "unwritable"  # a directory where metrics.csv goes
    (unwritable / "metrics.csv").mkdir(parents=True)
    checkpoint = tmp_path / "checkpoint.bin"
    save_checkpoint(checkpoint, cli._initial_model(load_config(small)))
    latin1 = {}  # a config, a feature CSV and a number file, each with a Latin-1 byte
    for name, text in (("config.txt", b"mode = dqc\nclass_names = caf\xe9,tea\n"),
                       ("features.csv", b"group_id,label,f0\ng\xe9,a,1\n"),
                       ("numbers.txt", b"1 2 \xff 4\n")):
        latin1[name] = tmp_path / f"latin1_{name}"
        latin1[name].write_bytes(text)
    afile = tmp_path / "afile"
    afile.write_text("mine")
    no_training = [(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))]

    def generator(kind):  # ROTATION_G with one entry scaled: anything but -iY or -iX
        g = sim_mod.ROTATION_G
        return [(vqc_mod, "ROTATION_G", {**g, kind: 1.3 * g[kind]})]

    table = [
        (0, "", ["grad-check", "--config", small], []),
        (cli.EXIT_GRAD_CHECK, "FAIL", ["grad-check", "--config", small], generator("ry")),
        (0, "", ["grad-check", "--config", deep], []),
        (cli.EXIT_GRAD_CHECK, "FAIL", ["grad-check", "--config", deep], generator("ry")),
        (0, "", ["grad-check", "--config", dense], []),
        (cli.EXIT_GRAD_CHECK, "FAIL", ["grad-check", "--config", dense], generator("rx")),
        (cli.EXIT_CONFIG, "config error: ", ["train", "--config", bad_combo], []),
        (cli.EXIT_CONFIG, "config error: n_qubits: at most 16",
         ["train", "--config", too_wide, "--out", tmp_path / "run"], no_training),
        (cli.EXIT_CONFIG, "config error: n_qubits: at most 16",
         ["grad-check", "--config", too_wide], []),
        (cli.EXIT_CONFIG, "config error: --out", ["train", "--config", small, "--out", future],
         no_training),
        (cli.EXIT_CONFIG, f"config error: --out {afile / 'sub'}: {afile} exists",
         ["train", "--config", small, "--out", afile / "sub"], no_training),
        (cli.EXIT_CONFIG, "config error: --out",
         ["train", "--config", small, "--out", unwritable], []),
        (cli.EXIT_CONFIG, f"config error: cannot read config {latin1['config.txt']}: ",
         ["train", "--config", latin1["config.txt"], "--out", tmp_path / "run"], no_training),
        (cli.EXIT_CONFIG, f"config error: cannot read config {latin1['config.txt']}: ",
         ["grad-check", "--config", latin1["config.txt"]], []),
        (cli.EXIT_CONFIG, f"config error: cannot read config {latin1['config.txt']}: ",
         ["evaluate", checkpoint, "--manifest", latin1["config.txt"]], []),
        (cli.EXIT_DATA, "data error: ", ["train", "--config", no_data], []),
        (cli.EXIT_DATA, "data error: cannot read",
         ["encode-demo", tmp_path / "missing.pgm", "--scheme", "frqi"], []),
        (cli.EXIT_DATA, f"data error: {latin1['features.csv']}: not UTF-8 text",
         ["evaluate", checkpoint, "--data", latin1["features.csv"]], []),
        (cli.EXIT_DATA, f"data error: cannot read {latin1['numbers.txt']}: ",
         ["encode-demo", latin1["numbers.txt"], "--scheme", "amplitude"], []),
        (cli.EXIT_NUMERICAL, "numerical abort: ",
         ["train", "--config", overflow, "--out", tmp_path / "run"], []),
        (cli.EXIT_VERSION, "checkpoint error: ", ["evaluate", future, "--data", future], []),
    ]
    assert sorted({row[0] for row in table}) == [0, 1, 2, 3, 4, 5]

    def forward(config):  # the grad-check model's probabilities on two fixed rows
        model = cli._initial_model(load_config(config))
        x = np.linspace(-1, 1, 2 * model.head.in_dim).reshape(2, -1)
        return model_forward(model, x).tobytes()

    table_bytes = {kind: g.tobytes() for kind, g in sim_mod.ROTATION_G.items()}
    for code, prefix, argv, patches in table:
        clean = forward(argv[2]) if code == cli.EXIT_GRAD_CHECK else None
        with monkeypatch.context() as patch:
            for module, name, value in patches:
                patch.setattr(module, name, value)
            if clean is not None:  # the broken generator breaks the gradient alone
                assert forward(argv[2]) == clean, argv
                assert {kind: g.tobytes() for kind, g in sim_mod.ROTATION_G.items()} == table_bytes
            assert run_cli(*argv) == code, argv
        assert capsys.readouterr().err.startswith(prefix), argv
    assert afile.read_text() == "mine" and not (tmp_path / "run").exists()


@pytest.mark.parametrize("line", ["in_dim = 100000000000", "synth_per_class = 100000000000"])
@pytest.mark.parametrize("command", ["train", "grad-check"])
def test_a_config_over_the_size_cap_exits_2_before_allocating(tmp_path, monkeypatch, capsys,
                                                              command, line):
    """A config whose parameters or synthetic data would not fit the size
    cap exits 2 naming the keys, from train and from grad-check, before
    any data is drawn or any model is made."""
    cfg = tmp_path / "huge.txt"
    cfg.write_text(line + "\n")
    for name in ("synth_dataset", "init_model", "train"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("allocated"))
    argv = [command, "--config", cfg] + (["--out", tmp_path / "run"] if command == "train" else [])
    assert run_cli(*argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "over the cap of 33554432" in err
    assert err.split(": ")[1] == ("synth_per_class, n_classes, in_dim" if "synth" in line
                                  else "n_qubits, depth, n_classes, in_dim")
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_file_as_out_before_training(fast_config, tmp_path, monkeypatch, capsys):
    """`--out` at a regular file exits 2 naming it, and leaves the file as it
    was, before any training runs."""
    out = tmp_path / "taken"
    out.write_text("mine")
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))
    assert run_cli("train", "--config", fast_config, "--out", out) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: --out {out}: {out} exists and is not "
                                       f"a directory\n")
    assert out.read_text() == "mine"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_table(header):
    """The rows, as lists of stripped cells, of the README table whose header
    row is ``header``; "(empty)" stands for an empty value."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append(["" if cell == "(empty)" else cell.strip("`") for cell in cells])
    return rows


def test_the_readme_tables_match_the_program():
    """The README lists every config key with its default as a manifest
    writes it, every exit code, every command with each of its flags, and
    every module of the package, in the program's order."""
    config = [(key, default) for key, default, _ in readme_table("| key | default | meaning |")]
    assert config == [(f.name, VALUE_TEXT[f.type].format(f.default)) for f in fields(TrainConfig)]
    codes = [int(code) for code, _ in readme_table("| code | meaning |")]
    assert codes == sorted({0} | {getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")})
    commands = {row[0]: row[1] for row in readme_table("| command | flags | what it does |")}
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert list(commands) == list(subparsers.choices)
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            flag = action.option_strings[-1] if action.option_strings else action.dest.upper()
            assert flag == "--help" or flag in commands[name], (name, flag)
    modules = [row[0] for row in readme_table("| module | role |")]
    assert sorted(modules) == sorted(path.name for path in Path(cli.__file__).parent.glob("*.py"))


def write_shuffled_csvs(tmp_path):
    """The training rows twice: first a class1 row first, then a class0 row first."""
    dataset = synth_dataset(20, 2, 24, 8.0, seed=5)
    rows = np.argsort(-dataset.labels, kind="stable")
    paths = []
    for name, order in (("class1_first.csv", rows), ("class0_first.csv", rows[::-1])):
        paths.append(tmp_path / name)
        write_feature_csv(paths[-1], dataset.subset(order))
    return paths


def test_evaluate_without_manifest_pins_the_checkpoint_labels(fast_config, tmp_path, capsys):
    """Class names from the checkpoint, not the CSV's row order, fix the labels."""
    assert run_cli("train", "--config", fast_config, "--out", tmp_path / "run") == 0
    lone = tmp_path / "lone"
    lone.mkdir()
    (lone / "checkpoint.bin").write_bytes((tmp_path / "run" / "checkpoint.bin").read_bytes())
    outputs = []
    for csv_path in write_shuffled_csvs(tmp_path):
        capsys.readouterr()
        assert run_cli("evaluate", lone / "checkpoint.bin", "--data", csv_path) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0][1].split(",")[4] == outputs[1][1].split(",")[4]  # AUROC
    assert outputs[0][3:] == outputs[1][3:]  # confusion matrix
    assert float(outputs[0][1].split(",")[4]) > 0.5  # a swapped mapping reads 1 - AUROC


def test_evaluate_label_unknown_to_the_checkpoint_exits_3(fast_config, tmp_path, capsys):
    assert run_cli("train", "--config", fast_config, "--out", tmp_path / "run") == 0
    csv_path = tmp_path / "renamed.csv"
    dataset = synth_dataset(4, 2, 24, 8.0, seed=1)
    write_feature_csv(csv_path, replace(dataset, class_names=("class0", "tumor")))
    lone = tmp_path / "lone"
    lone.mkdir()
    (lone / "checkpoint.bin").write_bytes((tmp_path / "run" / "checkpoint.bin").read_bytes())
    assert run_cli("evaluate", lone / "checkpoint.bin", "--data", csv_path) == 3
    assert "unknown label 'tumor'" in capsys.readouterr().err


def test_evaluate_with_another_heads_manifest_exits_2(fast_config, tmp_path, capsys):
    """A manifest whose head keys differ from the checkpoint header is
    refused with exit 2 on every split, naming each differing key: a
    3-qubit run's manifest against a 4-qubit checkpoint, a manifest whose
    class names are the checkpoint's swapped, and one valid edit of each
    other head key. The checkpoint's own manifest still evaluates."""
    run4, run3 = tmp_path / "q4", tmp_path / "q3"
    assert run_cli("train", "--config", fast_config, "--out", run4) == 0
    three = tmp_path / "q3.txt"
    three.write_text(FAST_CONFIG.replace("n_qubits = 4", "n_qubits = 3"))
    assert run_cli("train", "--config", three, "--out", run3) == 0
    text = (run4 / "manifest.txt").read_text()
    assert "class_names = class0,class1\n" in text
    edits = [  # the (old, new) lines of the checkpoint's manifest, and the differ reported
        ([("class_names = class0,class1", "class_names = class1,class0")],
         "class_names = class1,class0 against the checkpoint's class0,class1"),
        ([("mode = dqc", "mode = purevqc"), ("embedding = angle", "embedding = amplitude"),
          ("n_qubits = 4", "n_qubits = 5")], "mode = purevqc against the checkpoint's dqc"),
        ([("embedding = angle", "embedding = dense_angle")],
         "embedding = dense_angle against the checkpoint's angle"),
        ([("depth = 1", "depth = 2")], "depth = 2 against the checkpoint's 1"),
        ([("n_classes = 2", "n_classes = 3"), ("class0,class1", "class0,class1,class2")],
         "n_classes = 3 against the checkpoint's 2"),
        ([("in_dim = 24", "in_dim = 32")], "in_dim = 32 against the checkpoint's 24"),
    ]
    manifests = [(run3 / "manifest.txt", "n_qubits = 3 against the checkpoint's 4")]
    for i, (lines, differ) in enumerate(edits):
        edited = text
        for old, new in lines:
            assert old in edited
            edited = edited.replace(old, new)
        path = tmp_path / f"edited{i}.txt"
        path.write_text(edited)
        manifests.append((path, differ))
    capsys.readouterr()
    for manifest, differ in manifests:
        for split in ("all", "test"):
            assert run_cli("evaluate", run4 / "checkpoint.bin", "--manifest", manifest,
                           "--split", split) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and differ in err
    assert run_cli("evaluate", run4 / "checkpoint.bin", "--manifest", run4 / "manifest.txt",
                   "--split", "test") == 0


def test_evaluate_split_with_another_runs_manifest_exits_2(fast_config, tmp_path, capsys):
    """Same head, data file and ratios, other seed: the manifest's split
    would put rows checkpoint A trained on into its "test" rows. Its
    checkpoint digest names B's checkpoint, so every split but "all" is
    refused; "all" reads no split and checks no digest."""
    data = tmp_path / "data.csv"
    write_feature_csv(data, synth_dataset(20, 2, 24, 8.0, seed=5))
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("train", "--config", fast_config, "--data", data, "--out", run_a) == 0
    assert run_cli("train", "--config", fast_config, "--data", data, "--out", run_b,
                   "--seed", 6) == 0
    config_a, config_b = (cli.load_config(run / "manifest.txt") for run in (run_a, run_b))
    dataset = cli._load_dataset(config_a)
    trained_on = set(cli._split(config_a, dataset)[0].group_ids)
    assert trained_on & set(cli._split(config_b, dataset)[2].group_ids)
    capsys.readouterr()
    for split in ("train", "val", "test"):
        assert run_cli("evaluate", run_a / "checkpoint.bin", "--manifest",
                       run_b / "manifest.txt", "--split", split) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.rstrip().endswith("do not match its checkpoint_sha256")
    assert run_cli("evaluate", run_a / "checkpoint.bin", "--manifest", run_b / "manifest.txt",
                   "--split", "all") == 0


def test_evaluate_split_with_other_data_exits_2(fast_config, tmp_path, capsys):
    """A --data override whose bytes differ from the run's data file is
    refused, and so is a data file on a synth run's manifest, which notes
    no data digest; the same bytes under another path evaluate as the
    run's own."""
    data, other = tmp_path / "data.csv", tmp_path / "other.csv"
    write_feature_csv(data, synth_dataset(20, 2, 24, 8.0, seed=5))
    write_feature_csv(other, synth_dataset(20, 2, 24, 8.0, seed=6))
    copy = tmp_path / "copy" / "data.csv"
    copy.parent.mkdir()
    copy.write_bytes(data.read_bytes())
    out = tmp_path / "run"
    assert run_cli("train", "--config", fast_config, "--data", data, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("evaluate", out / "checkpoint.bin", "--split", "test") == 0
    own = capsys.readouterr().out
    assert run_cli("evaluate", out / "checkpoint.bin", "--data", other, "--split", "test") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "data_sha256" in err
    assert "checkpoint_sha256" not in err
    assert run_cli("evaluate", out / "checkpoint.bin", "--data", copy, "--split", "test") == 0
    assert capsys.readouterr().out == own
    synth = tmp_path / "synth"
    assert run_cli("train", "--config", fast_config, "--out", synth) == 0
    capsys.readouterr()
    assert run_cli("evaluate", synth / "checkpoint.bin", "--data", data, "--split", "test") == 2
    assert capsys.readouterr().err.rstrip().endswith("do not match its data_sha256")


def test_evaluate_split_with_a_manifest_without_digests(fast_config, tmp_path, capsys):
    """A manifest written before the digest notes existed still evaluates,
    under the head-key check alone, with the output of the run's own."""
    data = tmp_path / "data.csv"
    write_feature_csv(data, synth_dataset(20, 2, 24, 8.0, seed=5))
    out = tmp_path / "run"
    assert run_cli("train", "--config", fast_config, "--data", data, "--out", out) == 0
    lines = (out / "manifest.txt").read_text().splitlines(keepends=True)
    old = tmp_path / "old_manifest.txt"
    old.write_text("".join(line for line in lines if "_sha256 = " not in line))
    assert len(old.read_text().splitlines()) == len(lines) - 2
    capsys.readouterr()
    outputs = []
    for manifest in (out / "manifest.txt", old):
        assert run_cli("evaluate", out / "checkpoint.bin", "--manifest", manifest,
                       "--split", "val") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_evaluate_all_imports_neither_hashlib_nor_numpy_random(fast_config, tmp_path):
    """A fresh `evaluate --split all` process loads neither OpenSSL's
    hashlib nor numpy.random: each costs MiB of resident memory that every
    evaluate would pay, so the digests import hashlib where they hash."""
    out = tmp_path / "run"
    assert run_cli("train", "--config", fast_config, "--out", out) == 0
    data = tmp_path / "data.csv"
    write_feature_csv(data, synth_dataset(10, 2, 24, 8.0, seed=7))
    argv = ["evaluate", str(out / "checkpoint.bin"), "--data", str(data), "--split", "all"]
    script = ("import sys\n"
              "from qtlsim.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, sorted({'_hashlib', 'numpy.random'} & sys.modules.keys()))\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"
