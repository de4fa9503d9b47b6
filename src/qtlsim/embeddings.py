"""Classical-to-quantum feature and image embeddings, with exact decoders.

``StateVector`` is the validated, read-only state these encoders return.
The dqc head's angle embeddings are the first gates of ``hybrid._dqc_circuit``.

The image encoders build their states by direct amplitude assignment
rather than by compiling multi-controlled rotations; gate-level
synthesis of these representations is out of scope. The decoders exist
as verification oracles for round-trip tests and the demo command.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

GRAY_LEVELS = 256  # 8-bit grayscale; intensity 0 is black, 255 white
COLOR_BITS = GRAY_LEVELS.bit_length() - 1  # NEQR's color register: one qubit per bit

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over the 2**n_qubits basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != 2**self.n_qubits:
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes for "
                f"{self.n_qubits} qubits, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class GrayImage:
    """Square grayscale image with power-of-two side, row-major pixels.

    Pixel index i doubles as the position-register value of the image
    encoders, so pixels are kept flat.
    """

    side: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.side < 2 or self.side & (self.side - 1):
            raise ValueError(f"side must be a power of two >= 2, got {self.side}")
        px = np.asarray(self.pixels)
        if px.shape != (self.side**2,):
            raise ValueError(
                f"expected {self.side**2} pixels for side {self.side}, "
                f"got shape {px.shape}"
            )
        if not np.issubdtype(px.dtype, np.integer):
            raise ValueError("pixel intensities must be integers")
        if px.min() < 0 or px.max() >= GRAY_LEVELS:
            raise ValueError("pixel intensities must lie in [0, 255]")
        px = px.astype(np.int64)
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @classmethod
    def from_array(cls, arr) -> "GrayImage":
        arr = np.asarray(arr)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square 2-D array, got shape {arr.shape}")
        return cls(arr.shape[0], arr.reshape(-1))

    @property
    def n(self) -> int:
        """Position-register half-width: the image is 2^n x 2^n."""
        return self.side.bit_length() - 1


def amplitude_embed(features) -> StateVector:
    """Write the feature vector into state amplitudes.

    The vector is zero-padded to the next power of two and then
    L2-normalized (pad-then-normalize never changes relative weights),
    so 512 features land on exactly 9 qubits.
    """
    vals = np.asarray(features, dtype=float)
    if vals.ndim != 1 or vals.shape[0] < 1:
        raise ValueError(f"features must be a non-empty 1-D vector, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("features must be finite")
    amps = amplitude_rows(vals[None])[0]
    return StateVector(amps.shape[0].bit_length() - 1, amps)


def amplitude_rows(rows: np.ndarray) -> np.ndarray:
    """``amplitude_embed`` of each row of a finite (B, d) array, as a
    float64 (B, 2**n) batch, which the kernel runs in real arithmetic."""
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot amplitude-embed an all-zero vector")
    amps = np.zeros((rows.shape[0], 2 ** amplitude_qubits(rows.shape[1])))
    amps[:, : rows.shape[1]] = rows / norms
    return amps


def amplitude_qubits(width: int) -> int:
    """Qubits of an amplitude embedding of ``width`` features, at least one."""
    return max(1, math.ceil(math.log2(width)))


def pixel_angles(image: GrayImage) -> np.ndarray:
    """Linear grayscale-to-angle map: 0 -> 0 (black), 255 -> pi/2 (white)."""
    return image.pixels / (GRAY_LEVELS - 1) * (math.pi / 2)


def frqi_encode(image: GrayImage) -> StateVector:
    """Color-qubit image state on 2n+1 qubits.

    Qubit 0 is the color qubit; the remaining 2n qubits hold the pixel
    position. Amplitudes are cos(theta_i)/2^n on the color-0 branch and
    sin(theta_i)/2^n on the color-1 branch of position i.
    """
    n = image.n
    thetas = pixel_angles(image)
    scale = 1.0 / 2**n
    amps = np.concatenate([np.cos(thetas), np.sin(thetas)]) * scale
    return StateVector(2 * n + 1, amps.astype(complex))


def frqi_decode(state: StateVector, n: int) -> np.ndarray:
    """Recover the per-pixel angles theta_i in [0, pi/2] from an FRQI state."""
    if state.n_qubits != 2 * n + 1:
        raise ValueError(f"expected {2 * n + 1} qubits for n={n}, got {state.n_qubits}")
    n_pos = 4**n
    p = np.abs(state.amplitudes) ** 2
    p0, p1 = p[:n_pos], p[n_pos:]
    total = p0 + p1
    if total.min() <= 0.0:
        bad = int(np.argmin(total))
        raise ValueError(f"position {bad} has zero probability; not an FRQI state")
    return np.arctan2(np.sqrt(p1), np.sqrt(p0))


def neqr_encode(image: GrayImage) -> StateVector:
    """Bitwise image state: intensity f(i) stored in a color register.

    Uses COLOR_BITS + 2n qubits; the nonzero amplitudes all equal 1/2^n
    and sit at basis index (f(i) << 2n) | i.
    """
    n = image.n
    n_pos = 4**n
    amps = np.zeros(GRAY_LEVELS * n_pos, dtype=complex)
    positions = np.arange(n_pos, dtype=np.int64)
    amps[(image.pixels << (2 * n)) | positions] = 1.0 / 2**n
    return StateVector(COLOR_BITS + 2 * n, amps)


def neqr_decode(state: StateVector, n: int) -> GrayImage:
    """Exact pixel recovery from a NEQR state."""
    if state.n_qubits != COLOR_BITS + 2 * n:
        raise ValueError(f"expected {COLOR_BITS + 2 * n} qubits for n={n}, got {state.n_qubits}")
    n_pos = 4**n
    # column i = amplitudes of position i across all color values
    table = np.abs(state.amplitudes.reshape(GRAY_LEVELS, n_pos))
    nonzero = table > 0.5 / 2**n
    per_pos = nonzero.sum(axis=0)
    if np.any(per_pos != 1):
        bad = int(np.flatnonzero(per_pos != 1)[0])
        raise ValueError(
            f"position {bad} has {int(per_pos[bad])} color branches; not a NEQR state"
        )
    pixels = nonzero.argmax(axis=0)
    side = 2**n
    return GrayImage(side, pixels.astype(np.int64))


# --- PGM input for the demo command ------------------------------------

_TOKEN = re.compile(rb"#[^\r\n]*|(\S+)")


def _tokens(data: bytes):
    """(token, end) of each run of bytes other than ASCII whitespace (so \\x85 and \\xa0
    are token bytes); a '#' that starts a token comments out the rest of its line."""
    return ((m[1], m.end()) for m in _TOKEN.finditer(data) if m[1])


def read_pgm(path) -> GrayImage:
    """Read a P2 (ASCII) or P5 (binary) PGM file as a GrayImage.

    Non-power-of-two images are center-cropped to the largest
    power-of-two square; intensities are rescaled to [0, 255] when the
    file's maxval differs.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    toks = _tokens(data)
    try:
        magic, _ = next(toks)
        if magic not in (b"P2", b"P5"):
            raise ValueError(f"not a P2/P5 PGM file: magic {magic!r}")
        width, _ = next(toks)
        height, _ = next(toks)
        maxval, end = next(toks)
        width, height, maxval = int(width), int(height), int(maxval)
    except StopIteration:
        raise ValueError("truncated PGM header") from None
    if not (0 < maxval < 65536):
        raise ValueError(f"bad PGM maxval {maxval}")
    count = width * height
    if magic == b"P5":
        if maxval > 255:
            raise ValueError("16-bit binary PGM is not supported")
        raw = data[end + 1 : end + 1 + count]
        if len(raw) != count:
            raise ValueError("truncated PGM pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    else:
        vals = [int(t) for t, _ in toks]
        if len(vals) != count:
            raise ValueError(f"expected {count} pixel values, got {len(vals)}")
        pixels = np.array(vals, dtype=np.int64)
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError("pixel value outside [0, maxval]")
    if maxval != 255:
        pixels = np.rint(pixels * (255.0 / maxval)).astype(np.int64)
    return center_crop_pow2(pixels.reshape(height, width))


def center_crop_pow2(arr: np.ndarray) -> GrayImage:
    """Center-crop a 2-D intensity array to the largest power-of-two square."""
    height, width = arr.shape
    side = min(height, width)
    if side < 2:
        raise ValueError(f"image {height}x{width} too small to crop to a 2x2 square")
    side = 1 << (side.bit_length() - 1)
    top = (height - side) // 2
    left = (width - side) // 2
    return GrayImage.from_array(arr[top : top + side, left : left + side])
