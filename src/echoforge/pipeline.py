"""End-to-end enhancement: cancel, estimate, suppress, detect.

Per stream: the cascaded echo canceler runs on its own block size over
the time-domain signals; the cleaned error, the echo estimate, the mic
and the reference are then transformed on the shared frame clock and
walked frame by frame through double-talk probability, the two residual
echo power trackers, noise power estimation, the masking suppressor and
the voice activity detector. Everything is deterministic given inputs
and parameters; the per-stream estimator state (held inside
process_stream) is strictly sequential and never shared between streams.

Output sample n depends on input samples up to n + frame_len - 1 (one
analysis frame of lookahead from the overlap-add synthesis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .dtp import DtpEstimator
from .errors import InputError
from .metrics import erle_windows
from .npe import NoisePowerEstimator
from .params import PipelineParams, build_pipeline_params
from .raec import cascade_run
from .rpe import ResidualPowerEstimator, combine_residual_power
from .stft import StftConfig, analyze, synthesize
from .suppressor import Suppressor
from .vad import VadDecider, segments_from_flags, vad_statistic


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
                   stft_cfg: StftConfig | None = None,
                   collect_diagnostics: bool = False) -> EnhanceResult:
    """Run the whole front end over one mic/reference pair.

    The shorter signal is zero-padded; the enhanced output has exactly
    the mic's length. collect_diagnostics keeps the per-frame traces in
    the result. Raises InputError if the enhanced output is not finite:
    the AudioBuffer that carries it rejects NaN and Inf.
    """
    if params is None:
        params = build_pipeline_params()
    if stft_cfg is None:
        stft_cfg = StftConfig()
    if mic.sample_rate != reference.sample_rate:
        raise InputError(
            f"sample-rate mismatch: mic {mic.sample_rate} vs reference "
            f"{reference.sample_rate}")

    out_len = len(mic)
    length = max(len(mic), len(reference))
    y = np.zeros(length)
    y[: len(mic)] = mic.samples
    x = np.zeros(length)
    x[: len(reference)] = reference.samples

    e, d_hat, _, _ = cascade_run(x, y, params.raec1, params.raec2)

    rate = mic.sample_rate
    spec_y = analyze(AudioBuffer(y, rate), stft_cfg)
    spec_x = analyze(AudioBuffer(x, rate), stft_cfg)
    spec_e = analyze(AudioBuffer(e, rate), stft_cfg)
    spec_d = analyze(AudioBuffer(d_hat, rate), stft_cfg)
    n_frames, n_bins = spec_e.shape

    dtp = DtpEstimator(params.dtp, n_bins)
    rpe = ResidualPowerEstimator(params.rpe, n_bins)
    npe = NoisePowerEstimator(params.npe, n_bins)
    suppressor = Suppressor(params.suppressor, n_bins)
    vad = VadDecider(params.vad)

    out_frames = np.empty_like(spec_e)
    flags = []
    diag = Diagnostics(
        p_dt=np.empty(n_frames), xi=np.empty((n_frames, n_bins)),
        gamma=np.empty((n_frames, n_bins)), zeta=np.empty((n_frames, n_bins)),
        noise_power=np.empty((n_frames, n_bins)),
        residual_power=np.empty((n_frames, n_bins)),
        vad_statistic=np.empty(n_frames),
    ) if collect_diagnostics else None

    for m in range(n_frames):
        p_dt = dtp.update(spec_d[m], spec_y[m])
        power_high = rpe.update_high(spec_y[m], spec_x[m])
        power_low = rpe.update_low(spec_e[m], spec_x[m])
        residual_power = combine_residual_power(power_high, power_low, p_dt)
        noise_power = npe.update(spec_e[m])
        s_hat, xi, gamma, zeta = suppressor.process_frame(
            spec_e[m], noise_power, residual_power)
        statistic = vad_statistic(xi, gamma)
        flags.append(vad.decide(statistic))
        out_frames[m] = s_hat
        if diag is not None:
            diag.p_dt[m] = p_dt
            diag.xi[m] = xi
            diag.gamma[m] = gamma
            diag.zeta[m] = zeta
            diag.noise_power[m] = noise_power
            diag.residual_power[m] = residual_power
            diag.vad_statistic[m] = statistic

    enhanced = synthesize(out_frames, stft_cfg, length=out_len, sample_rate=rate)
    segments = segments_from_flags(flags, stft_cfg.hop, stft_cfg.frame_len, out_len)
    return EnhanceResult(enhanced=enhanced, segments=segments, diagnostics=diag)


def measure_erle(mic: AudioBuffer, enhanced: AudioBuffer,
                 window_seconds: float = 1.0) -> np.ndarray:
    """Windowed echo reduction of the enhanced output against the mic."""
    if len(mic) != len(enhanced):
        raise InputError("mic and enhanced lengths differ")
    window = max(1, int(round(window_seconds * mic.sample_rate)))
    return erle_windows(mic.samples, enhanced.samples, window)


def write_diagnostics_file(path, diag: Diagnostics) -> None:
    """Binary side file: per frame, xi then gamma then zeta bins,
    little-endian float32, frame-major."""
    stacked = np.stack([diag.xi, diag.gamma, diag.zeta], axis=1)
    with open(path, "wb") as fh:
        fh.write(stacked.astype("<f4").tobytes())
