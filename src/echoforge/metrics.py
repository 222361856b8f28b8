"""Energy-ratio metrics: ERLE and segmental SNR."""

from __future__ import annotations

import numpy as np

from .errors import InputError

ERLE_CLAMP_DB = 80.0
SEGSNR_CLAMP_DB = 40.0
SEGSNR_FRAME = 256


def _frame_energies(x: np.ndarray, n_frames: int, size: int) -> np.ndarray:
    return np.sum(x[: n_frames * size].reshape(n_frames, size) ** 2, axis=1)


def _ratio_db(num_energy: np.ndarray, den_energy: np.ndarray, clamp: float) -> np.ndarray:
    """Elementwise 10*log10(num/den) clipped to +-clamp; zero den_energy
    gives +clamp, and otherwise zero num_energy gives -clamp."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        db = np.clip(10.0 * np.log10(num_energy / den_energy), -clamp, clamp)
    return np.select([den_energy <= 0.0, num_energy <= 0.0], [clamp, -clamp], db)


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
    size = min(window, len(mic))
    return _ratio_db(_frame_energies(mic, n_win, size),
                     _frame_energies(enhanced, n_win, size), ERLE_CLAMP_DB)


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
    n_seg = len(reference) // SEGSNR_FRAME
    ref_e, err_e = (_frame_energies(x, n_seg, SEGSNR_FRAME)
                    for x in (reference, reference - test))
    live = ~((ref_e <= 0.0) & (err_e <= 0.0))
    db = _ratio_db(ref_e[live], err_e[live], SEGSNR_CLAMP_DB)
    return float(np.mean(db)) if db.size else 0.0


def segmental_snr_improvement(clean: np.ndarray, enhanced: np.ndarray,
                              mixture: np.ndarray) -> float:
    """Segmental SNR gain of the enhanced signal over the raw mixture."""
    gain = segmental_snr(clean, enhanced) - segmental_snr(clean, mixture)
    return float(np.clip(gain, -SEGSNR_CLAMP_DB, SEGSNR_CLAMP_DB))
