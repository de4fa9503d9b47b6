"""End-to-end command tests: artifacts, determinism, exit codes."""
import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

import qtlsim.cli as cli
import qtlsim.vqc as vqc_mod
from qtlsim.cli import main
from qtlsim.data import synth_dataset
from qtlsim.embeddings import GrayImage
from qtlsim.sim import FUSE_MIN_QUBITS

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
# with numpy 2.4.6 (OpenBLAS) on x86-64. A change that alters the
# arithmetic on purpose updates them; any other change must leave them.
PINNED_ARTIFACTS = {
    ("dqc", "angle"): {
        "metrics.csv": "cb143929b348d78b82fa4a68d9c05efeb42862b4e85809534238926dae9d4729",
        "checkpoint.bin": "ea16c46d28de61003a1ceb5ab268d0e188d8ecbf535095ecc8efc9f7dfa534da",
        "manifest.txt": "8b7a035a3495af32462385328b427c14008c4159e2dd0c7e9b3e20886c2b4ab0",
    },
    ("dqc", "dense_angle"): {
        "metrics.csv": "0d2b55e5f73130bd83a1917ae8a3814b97eddb486aeb806af9efab66f15900b9",
        "checkpoint.bin": "4dcbde7236f5e650bbc3d6bd966b4451d6e02cde7426f58a9b1b5d23d44641a9",
        "manifest.txt": "20d29bea4f396beacd35da91462ab7129273154c647240ec8f7d2ccecf3a24a4",
    },
    ("purevqc", "amplitude"): {
        "metrics.csv": "fe3e521ccd4bebe76bf4b39e19b70a206852ced82ef5b1eb44c94ad71620f9b7",
        "checkpoint.bin": "1d5250200cf2af3500bbf86e51b6251fae84e9a2a13557ba27040a866c955845",
        "manifest.txt": "2ece5baf1cbd95d3fa09fdb7eef609282e8be338b041c71d84452751ce3ee31d",
    },
}


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
    assert digests == PINNED_ARTIFACTS[mode, embedding]


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


def test_encode_demo_parses_numbers_as_the_csv_loader_does(tmp_path, capsys):
    """Commas and whitespace both separate; each token goes through numpy's
    float parser, as in load_feature_csv, so `1_000` and a non-ASCII digit,
    which Python float() takes, are errors."""
    path = tmp_path / "features.txt"
    path.write_text("1, 2\n3 4", encoding="utf-8")
    assert run_cli("encode-demo", path, "--scheme", "amplitude") == 0
    assert "state size: 4" in capsys.readouterr().out
    for text, bad in (("1_000, 2, \u0663, 4", "1_000"), ("1, 2, \u0663, 4", "\u0663")):
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
    """One failure per code of the cli docstring, with its stderr prefix."""
    small = tmp_path / "small.txt"
    small.write_text("mode = dqc\nn_qubits = 3\ndepth = 1\nin_dim = 12\nseed = 3\n")
    fused = tmp_path / "fused.txt"  # rotations run as fused layers at this size
    fused.write_text(f"mode = dqc\nn_qubits = {FUSE_MIN_QUBITS}\ndepth = 1\nin_dim = 12\nseed = 3\n")
    bad_combo = tmp_path / "bad.txt"
    bad_combo.write_text("mode = purevqc\nembedding = angle\n")
    no_data = tmp_path / "no_data.txt"
    no_data.write_text(FAST_CONFIG.replace("data = synth", "data = /nonexistent.csv"))
    overflow = tmp_path / "overflow.txt"
    overflow.write_text(FAST_CONFIG.replace("lr = 0.003", "lr = 1e308"))
    future = tmp_path / "future.bin"
    future.write_bytes(b"QTLSIM9" + bytes(64))
    broken_generator = {"ry": 1.3 * vqc_mod.GENERATORS["ry"]}  # anything but Y
    table = [
        (0, "", ["grad-check", "--config", small], {}),
        (cli.EXIT_GRAD_CHECK, "FAIL", ["grad-check", "--config", small], broken_generator),
        (0, "", ["grad-check", "--config", fused], {}),
        (cli.EXIT_GRAD_CHECK, "FAIL", ["grad-check", "--config", fused], broken_generator),
        (cli.EXIT_CONFIG, "config error: ", ["train", "--config", bad_combo], {}),
        (cli.EXIT_DATA, "data error: ", ["train", "--config", no_data], {}),
        (cli.EXIT_NUMERICAL, "numerical abort: ",
         ["train", "--config", overflow, "--out", tmp_path / "run"], {}),
        (cli.EXIT_VERSION, "checkpoint error: ", ["evaluate", future, "--data", future], {}),
    ]
    assert sorted({row[0] for row in table}) == [0, 1, 2, 3, 4, 5]
    for code, prefix, argv, generators in table:
        with monkeypatch.context() as patch:
            for kind, matrix in generators.items():
                patch.setitem(vqc_mod.GENERATORS, kind, matrix)
            assert run_cli(*argv) == code, argv
        assert capsys.readouterr().err.startswith(prefix), argv


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
