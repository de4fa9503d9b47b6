"""Binary checkpoint container round trips and corruption handling."""
import numpy as np
import pytest

from qtlsim.checkpoint import MAGIC, CheckpointFormatError, load_checkpoint, save_checkpoint
from qtlsim.hybrid import init_model
from qtlsim.seeding import substream


def test_round_trip_dqc(tmp_path):
    model = init_model("dqc", "dense_angle", 4, 2, 3, substream(1, "init"), in_dim=32)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.mode == "dqc" and back.embedding == "dense_angle"
    assert back.template == model.template
    assert back.n_classes == 3 and back.in_dim == 32
    np.testing.assert_array_equal(back.theta, model.theta)


def test_round_trip_purevqc(tmp_path):
    model = init_model("purevqc", "amplitude", 9, 4, 3, substream(2, "init"), in_dim=512)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.mode == "purevqc"
    assert list(back.blocks) == ["q"]
    np.testing.assert_array_equal(back.theta, model.theta)


def test_magic_mismatch(tmp_path):
    model = init_model("purevqc", "amplitude", 4, 1, 2, substream(3, "init"), in_dim=16)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    data = bytearray(path.read_bytes())
    data[:7] = b"QTLSIM9"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(path)
    assert len(MAGIC) == 7


def test_truncated_file(tmp_path):
    model = init_model("dqc", "angle", 4, 1, 2, substream(4, "init"), in_dim=16)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


def test_trailing_garbage(tmp_path):
    model = init_model("purevqc", "amplitude", 4, 1, 2, substream(5, "init"), in_dim=16)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(path)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointFormatError, match="cannot read"):
        load_checkpoint(tmp_path / "nope.bin")
