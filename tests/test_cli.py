"""End-to-end command tests: artifacts, determinism, exit codes."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

import qtlsim.vqc as vqc_mod
from qtlsim.cli import main
from qtlsim.data import synth_dataset, write_feature_csv
from qtlsim.embeddings import GrayImage, write_pgm

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


def test_grad_check_fails_with_broken_shift_constant(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("mode = dqc\nn_qubits = 3\ndepth = 1\nin_dim = 12\nseed = 3\n")
    monkeypatch.setattr(vqc_mod, "PARAM_SHIFT", 1.3)  # anything but pi/2
    assert run_cli("grad-check", "--config", cfg) == 1
    assert "FAIL" in capsys.readouterr().err
