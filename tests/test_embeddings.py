"""Feature/image embeddings: qubit-count laws, round trips, PGM input."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtlsim.embeddings import (
    GrayImage,
    _tokens,
    StateVector,
    amplitude_embed,
    amplitude_rows,
    center_crop_pow2,
    frqi_decode,
    frqi_encode,
    neqr_decode,
    neqr_encode,
    pixel_angles,
    read_pgm,
)
from qtlsim.hybrid import _dqc_circuit
from qtlsim.sim import prefix_vectors, product_state, z_expectations, z_signs
from qtlsim.vqc import VqcTemplate, build_layers

from oracle import pgm_tokens, textbook_rotation, write_pgm


def random_image(rng, side):
    return GrayImage(side, rng.integers(0, 256, size=side * side))


# --- angle / dense-angle: the last E slots of the dqc circuit -------------

def embed(embedding, features):
    """The depth-1 dqc circuit's prefix run on |0...0> with feature k bound
    to slot Q + k, after the Q = n layer slots bound to 0: its embedding
    gates, then one RY(0), the identity, per qubit. The product state of
    its prefix vectors, as one complex state."""
    n = len(features) if embedding == "angle" else len(features) // 2
    params = [*np.zeros(n), *np.asarray(features, dtype=float)]
    amps = product_state(prefix_vectors(_dqc_circuit(embedding, n, 1), params, 1))
    return amps[0, 0] + 1j * amps[1, 0] if amps.ndim == 3 else amps[0].astype(complex)


def prob_one(amps):
    """Per-qubit P(1) = (1 - <Z>) / 2 of one state."""
    n = amps.shape[0].bit_length() - 1
    halves = np.stack([amps.real, amps.imag])[:, None]
    return (1.0 - z_expectations(halves, z_signs(n, tuple(range(n))))[0]) / 2.0


def test_angle_embed_zero_features_is_identity():
    np.testing.assert_allclose(embed("angle", np.zeros(3)), np.eye(1, 8)[0], atol=1e-12)


def test_angle_embed_pi_gives_one():
    assert abs(prob_one(embed("angle", [math.pi]))[0] - 1.0) < 1e-12


def test_angle_embed_marginals():
    """Per-qubit P(1) = sin^2(x_i / 2)."""
    rng = np.random.default_rng(0)
    feats = rng.uniform(-math.pi, math.pi, size=4)
    np.testing.assert_allclose(prob_one(embed("angle", feats)), np.sin(feats / 2) ** 2,
                               rtol=0, atol=1e-12)


def test_angle_embed_structure():
    """Slot Q + k carries feature k, after the Q layer slots: one RY per
    qubit (angle), RX then RY per qubit (dense_angle), before any layer
    gate; the layer gates are ``build_layers``' own, slots 0..Q-1."""
    angle = _dqc_circuit("angle", 5, 1)
    assert [(op.kind, op.target, op.param_index) for op in angle.ops[:5]] == \
        [("ry", q, 5 + q) for q in range(5)]
    dense = _dqc_circuit("dense_angle", 3, 1)
    assert [(op.kind, op.target, op.param_index) for op in dense.ops[:6]] == \
        [(kind, q, 3 + 2 * q + k) for q in range(3) for k, kind in enumerate(("rx", "ry"))]
    for circuit, n_embed in ((angle, 5), (dense, 6)):
        layers = build_layers(VqcTemplate(circuit.n_qubits, 1))
        assert circuit.ops[n_embed:] == layers.ops
        assert circuit.n_params == layers.n_params + n_embed


def test_dense_angle_zero_is_identity():
    np.testing.assert_allclose(embed("dense_angle", np.zeros(4)), np.eye(1, 4)[0], atol=1e-12)


def test_dense_angle_rx_pi():
    """RX(pi)|0> = -i|1>, so P(1) = 1 for features [pi, 0]."""
    assert abs(prob_one(embed("dense_angle", [math.pi, 0.0]))[0] - 1.0) < 1e-12


def test_dense_angle_per_qubit_state():
    """Each qubit carries RY(x_{2i+1}) RX(x_{2i}) |0> exactly."""
    rng = np.random.default_rng(1)
    feats = rng.uniform(-math.pi, math.pi, size=8)
    amps = embed("dense_angle", feats).reshape([2] * 4)
    for q in range(4):
        expected = (
            textbook_rotation("ry", feats[2 * q + 1])
            @ textbook_rotation("rx", feats[2 * q])
            @ np.array([1, 0], dtype=complex)
        )
        # product state: slice down every other qubit's |0>/|1> axis
        sel0 = [0] * 4
        sel1 = [0] * 4
        sel0[q], sel1[q] = 0, 1
        got = np.array([amps[tuple(sel0)], amps[tuple(sel1)]])
        # normalize against the accumulated phase/weight of the other qubits
        weight = np.prod([
            (textbook_rotation("ry", feats[2 * k + 1]) @ textbook_rotation("rx", feats[2 * k])
             @ np.array([1, 0], dtype=complex))[0]
            for k in range(4) if k != q
        ])
        np.testing.assert_allclose(got, expected * weight, atol=1e-12)


# --- amplitude -----------------------------------------------------------

def test_amplitude_embed_basis_vector():
    s = amplitude_embed([1.0, 0.0, 0.0, 0.0])
    assert s.n_qubits == 2
    np.testing.assert_allclose(s.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_amplitude_embed_normalizes():
    s = amplitude_embed([3.0, 4.0])
    np.testing.assert_allclose(s.amplitudes, [0.6, 0.8], atol=1e-12)


def test_amplitude_embed_512_features_is_9_qubits():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(512)
    s = amplitude_embed(vals)
    assert s.n_qubits == 9
    np.testing.assert_allclose(s.amplitudes.real, vals / np.linalg.norm(vals), atol=1e-12)


def test_amplitude_embed_pads_then_normalizes():
    s = amplitude_embed([1.0, 1.0, 1.0])  # padded to 4 before normalizing
    assert s.n_qubits == 2
    np.testing.assert_allclose(
        s.amplitudes, [1 / math.sqrt(3)] * 3 + [0.0], atol=1e-12
    )
    probs = np.abs(s.amplitudes) ** 2
    np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)


def test_amplitude_rows_are_a_float64_batch():
    """The batched embedding is real, so the kernel runs it with matmuls;
    each row equals amplitude_embed of that row."""
    rows = np.array([[3.0, 4.0, 0.0], [1.0, 1.0, 1.0]])
    amps = amplitude_rows(rows)
    assert amps.dtype == np.float64 and amps.shape == (2, 4)
    for row, state in zip(rows, amps):
        np.testing.assert_array_equal(state, amplitude_embed(row).amplitudes.real)


def test_amplitude_embed_rejects_zero_vector():
    with pytest.raises(ValueError, match="all-zero"):
        amplitude_embed(np.zeros(8))


def test_amplitude_embed_rejects_bad_features():
    with pytest.raises(ValueError, match="1-D"):
        amplitude_embed(np.ones((2, 2)))
    with pytest.raises(ValueError, match="non-empty"):
        amplitude_embed([])
    with pytest.raises(ValueError, match="finite"):
        amplitude_embed([1.0, np.nan])


def test_qubit_count_laws():
    """angle: N qubits; dense-angle: N/2; amplitude: ceil(log2 N)."""
    n = 8
    for embedding, n_qubits in (("angle", n), ("dense_angle", n // 2)):
        # n_qubits layer slots at depth 1, then n embedding slots
        assert _dqc_circuit(embedding, n_qubits, 1).n_params == n + n_qubits
    assert amplitude_embed(np.linspace(-1, 1, n)).n_qubits == 3


# --- FRQI ----------------------------------------------------------------

def test_frqi_all_black():
    img = GrayImage(2, np.zeros(4, dtype=int))
    s = frqi_encode(img)
    assert s.n_qubits == 3
    np.testing.assert_allclose(s.amplitudes[:4], [0.5] * 4, atol=1e-12)
    np.testing.assert_allclose(s.amplitudes[4:], [0.0] * 4, atol=1e-12)


def test_frqi_all_white():
    img = GrayImage(2, np.full(4, 255))
    s = frqi_encode(img)
    np.testing.assert_allclose(s.amplitudes[:4], [0.0] * 4, atol=1e-12)
    np.testing.assert_allclose(s.amplitudes[4:], [0.5] * 4, atol=1e-12)


def test_frqi_direct_term_evaluation():
    """Amplitudes match a literal term-by-term build of the color/position sum."""
    img = GrayImage(2, np.array([0, 85, 170, 255]))
    s = frqi_encode(img)
    expected = np.zeros(8, dtype=complex)
    for i, pixel in enumerate(img.pixels):
        theta = (pixel / 255.0) * (math.pi / 2.0)
        expected[0 * 4 + i] += math.cos(theta) / 2.0  # color bit 0 branch
        expected[1 * 4 + i] += math.sin(theta) / 2.0  # color bit 1 branch
    assert np.max(np.abs(s.amplitudes - expected)) < 1e-12


def test_frqi_position_marginal_is_uniform():
    rng = np.random.default_rng(3)
    img = random_image(rng, 4)
    s = frqi_encode(img)
    p = np.abs(s.amplitudes) ** 2
    per_position = p[:16] + p[16:]
    np.testing.assert_allclose(per_position, np.full(16, 1 / 16), atol=1e-10)


def test_frqi_round_trip_extremes():
    black = GrayImage(2, np.zeros(4, dtype=int))
    white = GrayImage(2, np.full(4, 255))
    np.testing.assert_allclose(frqi_decode(frqi_encode(black), 1), np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(
        frqi_decode(frqi_encode(white), 1), np.full(4, math.pi / 2), atol=1e-12
    )


def test_frqi_round_trip_random_images():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        img = random_image(rng, 4)
        thetas = frqi_decode(frqi_encode(img), 2)
        worst = max(worst, float(np.max(np.abs(thetas - pixel_angles(img)))))
    assert worst < 1e-9


def test_frqi_decode_rejects_non_frqi_state():
    with pytest.raises(ValueError, match="zero probability"):
        frqi_decode(StateVector(3, np.eye(8)[0]), 1)  # positions 1..3 unpopulated


# --- NEQR ----------------------------------------------------------------

def test_neqr_eight_bit_ramp():
    """Intensity f of position i sits at basis index (f << 2n) | i of an
    8 + 2n qubit state, up to the top intensity 255."""
    img = GrayImage(2, np.array([0, 1, 128, 255]))
    s = neqr_encode(img)
    assert s.n_qubits == 10
    expected = np.zeros(1024)
    for i, f in enumerate([0, 1, 128, 255]):
        expected[(f << 2) | i] = 0.5
    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-12)


def test_neqr_all_zero_eight_bits():
    img = GrayImage(2, np.zeros(4, dtype=int))
    s = neqr_encode(img)
    assert s.n_qubits == 10
    np.testing.assert_allclose(s.amplitudes[:4], [0.5] * 4, atol=1e-12)
    assert np.all(s.amplitudes[4:] == 0)


def test_neqr_amplitude_values_binary():
    rng = np.random.default_rng(5)
    img = random_image(rng, 4)
    s = neqr_encode(img)
    mags = np.abs(s.amplitudes)
    assert set(np.round(mags, 12)) <= {0.0, 0.25}


def test_neqr_round_trip_exact():
    rng = np.random.default_rng(6)
    for _ in range(100):
        img = random_image(rng, 4)
        decoded = neqr_decode(neqr_encode(img), 2)
        assert np.array_equal(decoded.pixels, img.pixels)


def test_neqr_decode_rejects_malformed():
    """A state with positions left without a color branch, and a state of
    the wrong width for an 8-bit color register, are refused."""
    with pytest.raises(ValueError, match="color branches"):
        neqr_decode(StateVector(10, np.eye(1024)[0]), 1)
    with pytest.raises(ValueError, match="expected 10 qubits for n=1, got 4"):
        neqr_decode(StateVector(4, np.eye(16)[0]), 1)


# --- normalization + GrayImage validation --------------------------------

def test_all_embeddings_normalized():
    rng = np.random.default_rng(7)
    img = random_image(rng, 4)
    states = [
        frqi_encode(img).amplitudes,
        neqr_encode(img).amplitudes,
        amplitude_embed(rng.standard_normal(100)).amplitudes,
        embed("angle", rng.uniform(-3, 3, 3)),
        embed("dense_angle", rng.uniform(-3, 3, 6)),
    ]
    for amps in states:
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-10


def test_gray_image_validation():
    with pytest.raises(ValueError, match="power of two"):
        GrayImage(3, np.zeros(9, dtype=int))
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        GrayImage(2, np.array([0, 0, 0, 256]))
    with pytest.raises(ValueError, match="integers"):
        GrayImage(2, np.zeros(4))


# --- PGM -----------------------------------------------------------------

def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    img = random_image(rng, 8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.side == 8
    assert np.array_equal(back.pixels, img.pixels)


def test_pgm_binary_p5(tmp_path):
    rng = np.random.default_rng(9)
    pixels = rng.integers(0, 256, size=16, dtype=np.uint8)
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# comment\n4 4\n255\n" + pixels.tobytes())
    img = read_pgm(path)
    assert np.array_equal(img.pixels, pixels.astype(np.int64))


def test_pgm_center_crop_to_power_of_two(tmp_path):
    arr = np.arange(35, dtype=np.int64).reshape(5, 7) % 256
    img = center_crop_pow2(arr)
    assert img.side == 4
    np.testing.assert_array_equal(img.pixels.reshape(img.side, img.side), arr[0:4, 1:5])


def test_pgm_maxval_rescale(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 2\n15\n0 5 10 15\n")
    img = read_pgm(path)
    assert np.array_equal(img.pixels, [0, 85, 170, 255])


def test_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_text("P3\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError, match="P2/P5"):
        read_pgm(path)


# every ASCII whitespace byte, the comment byte, token bytes, and the two
# bytes that str.isspace() but not bytes.isspace() takes for whitespace
PGM_BYTES = [b" ", b"\t", b"\n", b"\r", b"\v", b"\f", b"#", b"P", b"0", b"5", b"9",
             b"x", b"\x00", b"\xff", b"\x85", b"\xa0"]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(PGM_BYTES), max_size=40).map(b"".join))
def test_pgm_tokens_match_the_byte_scan(data):
    """The one-pattern tokenizer yields the byte-by-byte scanner's (token,
    end) pairs: a '#' starts a comment only at the start of a token, a
    comment ends at a line break, and \\x85 and \\xa0 are token bytes."""
    assert list(_tokens(data)) == list(pgm_tokens(data))


def test_pgm_header_comment_glued_to_a_token_is_an_error(tmp_path):
    """`4#c` is one token, not a 4 followed by a comment, so the width does
    not parse; a comment that starts its own token is skipped."""
    path = tmp_path / "glued.pgm"
    path.write_bytes(b"P2 4#c 4 255\n" + b"0 " * 16)
    with pytest.raises(ValueError, match="b'4#c'"):
        read_pgm(path)
    path.write_bytes(b"P2 4 #c\n4 255\n" + b"0 " * 16)
    assert read_pgm(path).side == 4
