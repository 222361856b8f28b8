"""The front end's one frame clock: 512-point sqrt-hann frames at hop 256
and 16 kHz.

Every bin- and frame-based parameter assumes this clock: bin k sits at
k * SAMPLE_RATE / FRAME_LEN = 31.25 k Hz, and a frame hop is 16 ms.
Frames are rows of a complex (n_frames, N_BINS) array; frame m covers
input samples [m*HOP, m*HOP + FRAME_LEN), the tail zero-padded.
Reconstruction is windowed overlap-add normalized by the accumulated
squared window, which is one in the interior at 50 % overlap and keeps
the first and last half frame exact as well.

The window is the half-sample-shifted periodic sine, nonzero at the frame
edges; this keeps the first and last samples of a stream recoverable.
"""

from __future__ import annotations

import numpy as np

from .audio import AudioBuffer
from .errors import InputError

SAMPLE_RATE = 16000
FRAME_LEN = 512
HOP = 256
N_BINS = FRAME_LEN // 2 + 1
WINDOW = np.sin(np.pi * (np.arange(FRAME_LEN) + 0.5) / FRAME_LEN)


def analyze(buffer: AudioBuffer) -> np.ndarray:
    """Forward transform: (n_frames, N_BINS) complex spectra."""
    x = buffer.samples
    n_frames = -(-len(x) // HOP)
    if n_frames == 0:
        return np.zeros((0, N_BINS), dtype=complex)
    padded = np.zeros((n_frames + 1) * HOP)
    padded[: len(x)] = x
    frames = np.lib.stride_tricks.sliding_window_view(padded, FRAME_LEN)[::HOP] * WINDOW
    return np.fft.rfft(frames, axis=1)


def smooth_frames(terms: np.ndarray, state: np.ndarray, a: float) -> np.ndarray:
    """First-order smoothing down the frames of a chunk, in place.

    Row t of terms becomes a * (row t - 1) + terms[t], with `state` before
    row 0, and terms is returned: its last row is the state to carry into
    the next chunk. The adds are those of a frame-by-frame recursion, so
    any split into chunks gives the same bits. A row loop, not
    scipy.signal.lfilter: importing scipy.signal would more than double
    the import time of the package.
    """
    for row in terms:
        row += a * state
        state = row
    return terms


def synthesize(frames: np.ndarray, length: int | None = None) -> AudioBuffer:
    """Inverse transform via normalized weighted overlap-add.

    Round-trips analyze() exactly (up to float precision). `length` trims
    the trailing analysis padding.
    """
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[1] != N_BINS:
        raise InputError(f"expected frames of shape (n, {N_BINS}), got {frames.shape}")
    n_frames = frames.shape[0]
    total = (n_frames + 1) * HOP if n_frames else 0
    if length is None:
        length = total
    out = np.zeros(max(total, length))
    weight = np.zeros(max(total, length))
    if n_frames:
        blocks = np.fft.irfft(frames, n=FRAME_LEN, axis=1) * WINDOW
        wsq = WINDOW**2
        # frame m's second half overlaps frame m+1's first half; adding the
        # second halves first keeps the sums of a frame-by-frame loop
        out[HOP:total] += blocks[:, HOP:].ravel()
        out[: total - HOP] += blocks[:, :HOP].ravel()
        weight[HOP:total] += np.tile(wsq[HOP:], n_frames)
        weight[: total - HOP] += np.tile(wsq[:HOP], n_frames)
    np.divide(out, weight, out=out, where=weight > 1e-12)
    return AudioBuffer(out[:length], SAMPLE_RATE)
