"""Energy-ratio metrics: ERLE and segmental SNR."""

from __future__ import annotations

import numpy as np

from .errors import InputError

ERLE_CLAMP_DB = 80.0
SEGSNR_CLAMP_DB = 40.0
SEGSNR_FRAME = 256


def _ratio_db(num_energy: float, den_energy: float, clamp: float) -> float:
    if den_energy <= 0.0:
        return clamp
    if num_energy <= 0.0:
        return -clamp
    return float(np.clip(10.0 * np.log10(num_energy / den_energy), -clamp, clamp))


def erle_windows(mic: np.ndarray, enhanced: np.ndarray, window: int):
    """Per-window echo reduction 10*log10(sum mic^2 / sum enhanced^2), in dB.

    `window` is in samples; zero enhanced energy clamps at +80 dB.
    """
    mic = np.asarray(mic, dtype=float)
    enhanced = np.asarray(enhanced, dtype=float)
    if mic.shape != enhanced.shape:
        raise InputError(f"length mismatch: {mic.shape} vs {enhanced.shape}")
    if window <= 0:
        raise InputError(f"window must be positive, got {window}")
    n_win = max(1, len(mic) // window)
    out = np.empty(n_win)
    for w in range(n_win):
        sl = slice(w * window, (w + 1) * window)
        out[w] = _ratio_db(np.sum(mic[sl] ** 2), np.sum(enhanced[sl] ** 2),
                           ERLE_CLAMP_DB)
    return out


def erle_db(mic: np.ndarray, enhanced: np.ndarray) -> float:
    """Overall ERLE across the whole signals."""
    return float(erle_windows(mic, enhanced, max(len(np.asarray(mic)), 1))[0])


def segmental_snr(reference: np.ndarray, test: np.ndarray) -> float:
    """Mean SNR of `test` against `reference` over SEGSNR_FRAME-sample
    segments, each clamped to +-40 dB.

    Segments where both signals are silent carry no information and are
    skipped; an exact match returns the +40 dB ceiling.
    """
    reference = np.asarray(reference, dtype=float)
    test = np.asarray(test, dtype=float)
    if reference.shape != test.shape:
        raise InputError(f"length mismatch: {reference.shape} vs {test.shape}")
    vals = []
    for start in range(0, len(reference) - SEGSNR_FRAME + 1, SEGSNR_FRAME):
        sl = slice(start, start + SEGSNR_FRAME)
        ref_e = np.sum(reference[sl] ** 2)
        err_e = np.sum((reference[sl] - test[sl]) ** 2)
        if ref_e <= 0.0 and err_e <= 0.0:
            continue
        vals.append(_ratio_db(ref_e, err_e, SEGSNR_CLAMP_DB))
    return float(np.mean(vals)) if vals else 0.0


def segmental_snr_improvement(clean: np.ndarray, enhanced: np.ndarray,
                              mixture: np.ndarray) -> float:
    """Segmental SNR gain of the enhanced signal over the raw mixture."""
    gain = segmental_snr(clean, enhanced) - segmental_snr(clean, mixture)
    return float(np.clip(gain, -SEGSNR_CLAMP_DB, SEGSNR_CLAMP_DB))
