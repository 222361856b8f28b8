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
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer
from .errors import InputError

SAMPLE_RATE = 16000
FRAME_LEN = 512
HOP = 256
N_BINS = FRAME_LEN // 2 + 1
WINDOW = np.sin(np.pi * (np.arange(FRAME_LEN) + 0.5) / FRAME_LEN)
# Frames per inverse transform in synthesize: 128 KiB of transforms at a
# time, whatever the stream length.
SYNTHESIS_CHUNK = 32
# Bin power below which the chain treats a bin as digital silence.
POWER_FLOOR = 1e-12


def analyze(buffer: AudioBuffer, first: int = 0, count: int | None = None) -> np.ndarray:
    """Forward transform: complex spectra, one row per frame.

    Returns frames first .. first + count - 1 of the whole-signal
    transform (all frames from `first` when count is None), clipped to the
    frames the signal has, so a stream can be analysed a chunk at a time
    without ever holding its whole spectrogram. Each frame is transformed
    on its own, so the rows have the same bits however the range is cut.
    """
    if first < 0 or (count is not None and count < 0):
        raise InputError(f"frame range must be non-negative, got first={first}, count={count}")
    x = buffer.samples
    n_frames = -(-len(x) // HOP)
    stop = n_frames if count is None else min(first + count, n_frames)
    if stop <= first:
        return np.zeros((0, N_BINS), dtype=complex)
    # the frames cover samples [lo, hi); only a range that reaches the end of
    # the signal needs a zero-padded copy of its samples
    lo, hi = first * HOP, (stop + 1) * HOP
    span = x[lo:hi]
    if len(span) < hi - lo:
        span = np.concatenate((span, np.zeros(hi - lo - len(span))))
    frames = sliding_window_view(span, FRAME_LEN)[::HOP] * WINDOW
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
    the trailing analysis padding. The frames are inverse-transformed,
    windowed and overlap-added SYNTHESIS_CHUNK at a time, so beyond the
    output only one chunk's inverse transforms are held.
    """
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[1] != N_BINS:
        raise InputError(f"expected frames of shape (n, {N_BINS}), got {frames.shape}")
    n_frames = frames.shape[0]
    total = (n_frames + 1) * HOP if n_frames else 0
    if length is None:
        length = total
    out = np.zeros(max(total, length))
    if n_frames:
        for first in range(0, n_frames, SYNTHESIS_CHUNK):
            blocks = np.fft.irfft(frames[first:first + SYNTHESIS_CHUNK], n=FRAME_LEN, axis=1)
            blocks *= WINDOW
            # Frame m's second half overlaps frame m+1's first half. Each
            # output sample sums at most two halves into zero, and two-term
            # sums do not depend on their order, so these are the bits of a
            # frame-by-frame loop. The adds go through (frames, HOP) views,
            # in place.
            start, stop = first * HOP, (first + len(blocks)) * HOP
            later = out[start + HOP: stop + HOP].reshape(len(blocks), HOP)
            later += blocks[:, HOP:]
            earlier = out[start:stop].reshape(len(blocks), HOP)
            earlier += blocks[:, :HOP]
        # Normalize by the squared window summed the same way, which repeats
        # every hop: the first half frame, second plus first half in the
        # interior, the second half at the end. Past the frames the output
        # stays zero.
        wsq = WINDOW**2
        out[:HOP] /= wsq[:HOP]
        interior = out[HOP: total - HOP].reshape(n_frames - 1, HOP)
        interior /= wsq[HOP:] + wsq[:HOP]
        out[total - HOP: total] /= wsq[HOP:]
    return AudioBuffer(out[:length], SAMPLE_RATE)
