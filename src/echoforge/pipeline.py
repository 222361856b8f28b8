"""End-to-end enhancement: cancel, estimate, suppress, detect.

Per stream: the cascaded echo canceler runs on its own block size over
the time-domain signals, both stages in one block loop when they share
it (see `raec.cascade_run`). The frames of the shared frame clock are then
walked in chunks of CHUNK_FRAMES: each chunk's spectra of the mic Y, the
reference and the cleaned error E are analysed, Y - E being the echo
estimate's, and passed through double-talk probability, the two residual
echo power trackers, noise power estimation, the masking suppressor and
the voice activity detector. Within a chunk, each stage computes what
needs no earlier output as array operations and runs only its own
recursion frame by frame, so the output does not depend on the chunk
size. Everything is deterministic given inputs and parameters; the
per-stream estimator state (held inside process_stream) is strictly
sequential and never shared between streams.

Memory: no whole-stream spectrogram of an input is built, and synthesis
inverse-transforms a chunk of frames at a time. The inputs are copied
only to zero-pad the shorter one and, once per canceler stack, to
zero-pad a stream that is not a whole number of that stack's blocks.
What grows with the stream is the canceler's error and the enhanced
frames (N_BINS complex values per hop, about twice one input's float64
size). The peak is in the frame loop, which holds both: about 3.3 times
one input's size beyond the inputs on a 60 s stream. The traced
(tracemalloc) peak measured 6.3 MB for a 10 s stream and 25.6 MB for
60 s.

Input is at SAMPLE_RATE (16 kHz). Output sample n depends on input
samples up to n + FRAME_LEN - 1 (one analysis frame of lookahead from the
overlap-add synthesis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .dtp import DtpEstimator
from .errors import ConfigError, InputError
from .metrics import erle_windows
from .npe import NoisePowerEstimator
from .params import PipelineParams, build_pipeline_params
from .raec import cascade_run, pad_to
from .rpe import ResidualPowerEstimator, combine_residual_power
from .stft import HOP, N_BINS, SAMPLE_RATE, analyze, synthesize
from .suppressor import Suppressor
from .vad import VadDecider, segments_from_flags, vad_statistic

# Frames per pass of the estimator chain. Work that does not feed back on
# an earlier frame's output runs once per chunk as array operations; the
# recursions that do run frame by frame inside it. Any chunk size gives
# the same bits; 32 keeps the chunk temporaries to a few hundred kB.
CHUNK_FRAMES = 32


@dataclass
class Diagnostics:
    """Per-frame traces kept only when requested (tuner throughput)."""

    p_dt: np.ndarray
    xi: np.ndarray
    gamma: np.ndarray
    zeta: np.ndarray
    noise_power: np.ndarray
    residual_power: np.ndarray
    vad_statistic: np.ndarray


@dataclass
class EnhanceResult:
    enhanced: AudioBuffer
    segments: list
    diagnostics: Diagnostics | None = None


def process_stream(mic: AudioBuffer, reference: AudioBuffer,
                   params: PipelineParams | None = None,
                   collect_diagnostics: bool = False) -> EnhanceResult:
    """Run the whole front end over one mic/reference pair.

    Both signals must be at SAMPLE_RATE, else InputError. The shorter
    signal is zero-padded; the enhanced output has exactly the mic's
    length. collect_diagnostics keeps the per-frame traces in the result.
    Raises InputError if the enhanced output is not finite: the
    AudioBuffer that carries it rejects NaN and Inf.
    """
    if params is None:
        params = build_pipeline_params()
    for name, buffer in (("mic", mic), ("reference", reference)):
        if buffer.sample_rate != SAMPLE_RATE:
            raise InputError(f"{name} is at {buffer.sample_rate} Hz; the front end "
                             f"runs at {SAMPLE_RATE} Hz")

    out_len = len(mic)
    length = max(len(mic), len(reference))
    y = pad_to(mic.samples, length)
    x = pad_to(reference.samples, length)
    e = cascade_run(x, y, params.raec1, params.raec2)
    # The spectra are taken a chunk at a time from these three signals, and
    # the signals are dropped before synthesis.
    signals = [AudioBuffer(s) for s in (y, x, e)]
    del y, x, e
    n_frames = -(-length // HOP)

    dtp = DtpEstimator(params.dtp)
    rpe = ResidualPowerEstimator(params.rpe)
    npe = NoisePowerEstimator(params.npe)
    suppressor = Suppressor(params.suppressor)
    vad = VadDecider(params.vad)

    out_frames = np.empty((n_frames, N_BINS), dtype=complex)
    flags = []
    diag = Diagnostics(
        p_dt=np.empty(n_frames), xi=np.empty((n_frames, N_BINS)),
        gamma=np.empty((n_frames, N_BINS)), zeta=np.empty((n_frames, N_BINS)),
        noise_power=np.empty((n_frames, N_BINS)),
        residual_power=np.empty((n_frames, N_BINS)),
        vad_statistic=np.empty(n_frames),
    ) if collect_diagnostics else None

    for start in range(0, n_frames, CHUNK_FRAMES):
        c = slice(start, start + CHUNK_FRAMES)
        spec_y, spec_x, spec_e = (analyze(s, start, CHUNK_FRAMES) for s in signals)
        p_dt = np.array(dtp.process(spec_y - spec_e, spec_y))  # echo estimate y - e
        power_high, power_low = rpe.process(spec_y, spec_e, spec_x)
        residual_power = combine_residual_power(power_high, power_low, p_dt[:, None])
        error_power = np.abs(spec_e) ** 2
        noise_power = npe.update(error_power)
        out_frames[c], xi, gamma, zeta = suppressor.process(
            spec_e, error_power, noise_power, residual_power)
        statistic = vad_statistic(xi, gamma)
        flags.extend(vad.decide(s) for s in statistic.tolist())
        if diag is not None:
            diag.p_dt[c] = p_dt
            diag.xi[c] = xi
            diag.gamma[c] = gamma
            diag.zeta[c] = zeta
            diag.noise_power[c] = noise_power
            diag.residual_power[c] = residual_power
            diag.vad_statistic[c] = statistic

    del signals
    enhanced = synthesize(out_frames, length=out_len)
    segments = segments_from_flags(flags, out_len)
    return EnhanceResult(enhanced=enhanced, segments=segments, diagnostics=diag)


def measure_erle(mic: AudioBuffer, enhanced: AudioBuffer,
                 window_seconds: float = 1.0) -> np.ndarray:
    """Windowed echo reduction of the enhanced output against the mic;
    InputError if their lengths differ, ConfigError if the window is not
    finite or rounds to less than one sample. A window longer than the
    signal reads it as one window, however long it is."""
    # capped at the signal first, so that a huge finite window cannot
    # overflow the rounding
    samples = min(max(window_seconds * mic.sample_rate, 0.0), max(len(mic), 1))
    window = int(round(samples)) if math.isfinite(window_seconds) else 0
    if window < 1:
        raise ConfigError(
            f"window must be finite and at least one sample, got {window_seconds} s")
    return erle_windows(mic.samples, enhanced.samples, window)


def write_diagnostics_file(path, diag: Diagnostics) -> None:
    """Binary side file: per frame, xi then gamma then zeta bins,
    little-endian float32, frame-major."""
    stacked = np.stack([diag.xi, diag.gamma, diag.zeta], axis=1)
    with open(path, "wb") as fh:
        fh.write(stacked.astype("<f4").tobytes())
