"""Binary checkpoint container round trips and corruption handling."""
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtlsim.checkpoint import MAGIC, CheckpointFormatError, load_checkpoint, save_checkpoint
from qtlsim.hybrid import PAIRINGS, Head, HybridModel, init_model
from qtlsim.seeding import substream

_NAME = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
                min_size=1, max_size=8)


@st.composite
def models(draw):
    """A random valid head: any mode/embedding pairing, shape, class names
    (or none) and finite parameters."""
    mode, embedding = draw(st.sampled_from([(m, e) for m, es in PAIRINGS.items() for e in es]))
    if mode == "purevqc":  # the qubit count follows in_dim, one qubit per class
        n_qubits = draw(st.integers(2, 6))
        in_dim = draw(st.integers(2 ** (n_qubits - 1) + 1, 2**n_qubits))
        n_classes = draw(st.integers(2, n_qubits))
    else:
        n_qubits = draw(st.integers(1, 6))
        in_dim = draw(st.integers(1, 40))
        n_classes = draw(st.integers(2, 5))
    head = Head(mode, embedding, n_qubits, draw(st.integers(1, 4)), n_classes, in_dim)
    model = init_model(head, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    names = draw(st.one_of(st.just(()), st.lists(_NAME, min_size=n_classes,
                                                 max_size=n_classes, unique=True)))
    return replace(model, class_names=tuple(names),
                   theta=model.theta * draw(st.floats(1e-300, 1e300)))


@given(model=models())
def test_every_valid_model_round_trips(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_checkpoint(path, model)
        back = load_checkpoint(path)
    assert (back.head, back.class_names) == (model.head, model.class_names)
    assert back.theta.tobytes() == model.theta.tobytes()


def test_every_truncation_is_a_format_error(tmp_path):
    """Each proper prefix of a QTLSIM2 file, with and without class names,
    raises CheckpointFormatError and nothing else."""
    for i, names in enumerate([(), ("a", "b\u00e9")]):
        model = init_model(Head("dqc", "dense_angle", 2, 1, 2, 3), substream(9, "init"))
        path = tmp_path / f"model{i}.bin"
        save_checkpoint(path, replace(model, class_names=names))
        data = path.read_bytes()
        for length in range(len(data)):
            path.write_bytes(data[:length])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(path)


def test_every_header_bit_flip_loads_or_is_a_format_error(tmp_path):
    """Flipping any one bit of the header, the class-name byte count or the
    names gives a valid model or CheckpointFormatError, never another error."""
    model = init_model(Head("dqc", "angle", 2, 1, 2, 3), substream(10, "init"))
    path = tmp_path / "model.bin"
    save_checkpoint(path, replace(model, class_names=("a", "b")))
    data = path.read_bytes()
    loads = errors = 0
    for bit in range(8 * (26 + 4 + len(b"a\nb"))):  # header, name byte count, names
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        try:
            assert isinstance(load_checkpoint(path), HybridModel)
            loads += 1
        except CheckpointFormatError:
            errors += 1
    assert loads > 0 and errors > 0


@pytest.mark.parametrize("tag", [0, 2], ids=["x", "z"])
def test_x_and_z_axis_tags_are_format_errors(tmp_path, tag):
    """The header keeps its axis byte: x/y/z were 0/1/2, layers are always
    RY, so a checkpoint is written with 1 and an x or z tag does not load."""
    model = init_model(Head("dqc", "angle", 2, 1, 2, 3), substream(11, "init"))
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    data = bytearray(path.read_bytes())
    assert data[9] == 1  # after the 7-byte magic and the mode and embedding tags
    data[9] = tag
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match="axis tag"):
        load_checkpoint(path)


def test_round_trip_dqc(tmp_path):
    model = init_model(Head("dqc", "dense_angle", 4, 2, 3, 32), substream(1, "init"))
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.head == model.head == Head("dqc", "dense_angle", 4, 2, 3, 32)
    np.testing.assert_array_equal(back.theta, model.theta)


def test_round_trip_purevqc(tmp_path):
    model = init_model(Head("purevqc", "amplitude", 9, 4, 3, 512), substream(2, "init"))
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.head.mode == "purevqc"
    assert list(back.blocks) == ["q"]
    np.testing.assert_array_equal(back.theta, model.theta)


def test_magic_mismatch(tmp_path):
    model = init_model(Head("purevqc", "amplitude", 4, 1, 2, 16), substream(3, "init"))
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    data = bytearray(path.read_bytes())
    data[:7] = b"QTLSIM9"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(path)
    assert len(MAGIC) == 7


def test_truncated_file(tmp_path):
    model = init_model(Head("dqc", "angle", 4, 1, 2, 16), substream(4, "init"))
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


def test_trailing_garbage(tmp_path):
    model = init_model(Head("purevqc", "amplitude", 4, 1, 2, 16), substream(5, "init"))
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(path)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointFormatError, match="cannot read"):
        load_checkpoint(tmp_path / "nope.bin")


def test_class_names_round_trip(tmp_path):
    model = init_model(Head("dqc", "angle", 3, 1, 3, 8), substream(6, "init"))
    model = replace(model, class_names=("tumor", "healthy", "covid-19 \u00e9"))
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    assert path.read_bytes()[:7] == MAGIC == b"QTLSIM2"
    back = load_checkpoint(path)
    assert back.class_names == model.class_names
    np.testing.assert_array_equal(back.theta, model.theta)


def test_version_1_checkpoint_still_loads(tmp_path):
    """QTLSIM1: the same header and parameters, no class names."""
    model = init_model(Head("dqc", "dense_angle", 2, 2, 2, 6), substream(7, "init"))
    path = tmp_path / "v1.bin"
    header = struct.pack("<7s3B4I", b"QTLSIM1", 0, 1, 1, 2, 2, 2, 6)
    path.write_bytes(header + model.theta.astype("<f8").tobytes())
    back = load_checkpoint(path)
    assert back.head.embedding == "dense_angle" and back.class_names == ()
    np.testing.assert_array_equal(back.theta, model.theta)


def test_a_head_too_wide_to_simulate_is_a_format_error(tmp_path):
    """A header of 40 qubits is refused before any size is read from it."""
    path = tmp_path / "wide.bin"
    path.write_bytes(struct.pack("<7s3B4I", MAGIC, 0, 0, 1, 40, 1, 2, 3) + bytes(4))
    with pytest.raises(CheckpointFormatError, match="n_qubits: at most 16"):
        load_checkpoint(path)


def test_truncated_class_names(tmp_path):
    model = init_model(Head("purevqc", "amplitude", 4, 1, 2, 16), substream(8, "init"))
    path = tmp_path / "model.bin"
    save_checkpoint(path, replace(model, class_names=("a", "b")))
    path.write_bytes(path.read_bytes()[:29])  # inside the name block's size
    with pytest.raises(CheckpointFormatError, match="truncated class names"):
        load_checkpoint(path)
    data = bytearray(path.read_bytes()[:26] + struct.pack("<I", 1000) + b"a\nb")
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match="truncated class names"):
        load_checkpoint(path)
