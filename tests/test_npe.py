import numpy as np
import pytest

from echoforge.audio import AudioBuffer
from echoforge.errors import ConfigError
from echoforge.npe import COLD_START_FRAMES, NoisePowerEstimator, NpeParams
from echoforge.stft import N_BINS, POWER_FLOOR, analyze
from conftest import speech_like

FS = 16000


def _step(est, e_frame):
    """One spectral frame through the estimator, as a one-frame chunk of
    its periodogram."""
    return est.update(np.abs(e_frame[None]) ** 2)[0]


class TestRecursion:
    def test_matching_periodogram_is_a_fixed_point(self):
        # |E|^2 == noise power => the blended periodogram equals the power,
        # so the exponential average must return its input; the cold start
        # sets the power to the level first
        level = 0.37
        est = NoisePowerEstimator(NpeParams())
        frame = np.full(N_BINS, np.sqrt(level), dtype=complex)
        for _ in range(COLD_START_FRAMES):
            _step(est, frame)
        for _ in range(20):
            out = _step(est, frame)
            assert np.allclose(out, level, atol=1e-9)

    def test_zero_input_decays_to_floor(self):
        est = NoisePowerEstimator(NpeParams())
        for _ in range(COLD_START_FRAMES):
            out = _step(est, np.ones(N_BINS, complex))
        assert np.allclose(out, 1.0)
        for _ in range(500):
            out = _step(est, np.zeros(N_BINS, complex))
        assert np.all(out == POWER_FLOOR)

    def test_cold_start_averages_first_frames(self):
        est = NoisePowerEstimator(NpeParams())
        rng = np.random.default_rng(0)
        frames = rng.standard_normal((10, N_BINS)) + 1j * rng.standard_normal((10, N_BINS))
        for m in range(10):
            out = _step(est, frames[m])
        assert np.allclose(out, np.mean(np.abs(frames) ** 2, axis=0))

    def test_params_validated(self):
        with pytest.raises(ConfigError):
            NpeParams(xi_h1=0.0)
        with pytest.raises(ConfigError):
            NpeParams(p_threshold=1.0)


def _track(signal, n_skip=50):
    frames = analyze(AudioBuffer(signal, FS))
    est = NoisePowerEstimator(NpeParams())
    out = est.update(np.abs(frames) ** 2)[-1]
    welch = np.mean(np.abs(frames[n_skip:]) ** 2, axis=0)
    return out, welch, frames


class TestTracking:
    def test_white_noise_tracks_welch_average_within_2db(self):
        rng = np.random.default_rng(1)
        noise = rng.standard_normal(5 * FS) * 0.1
        tracked, welch, _ = _track(noise)
        ratio_db = 10 * np.log10(tracked / welch)
        assert abs(np.mean(ratio_db)) <= 2.0

    def test_speech_plus_noise_overestimates_less_than_3db(self):
        rng = np.random.default_rng(2)
        speech = speech_like(6.0, seed=3, rms=0.1, bursts=True)
        noise = rng.standard_normal(6 * FS)
        noise *= 0.1 * 10 ** (-5 / 20) / np.sqrt(np.mean(noise**2))  # 5 dB SNR
        noisy_frames = analyze(AudioBuffer(speech + noise, FS))
        noise_frames = analyze(AudioBuffer(noise, FS))
        est = NoisePowerEstimator(NpeParams())
        tracked = est.update(np.abs(noisy_frames) ** 2)[-1]
        true_noise = np.mean(np.abs(noise_frames[50:]) ** 2, axis=0)
        over_db = 10 * np.log10(tracked / true_noise)
        assert np.mean(over_db < 3.0) >= 0.8

    def test_power_scaling_scales_estimate(self):
        rng = np.random.default_rng(4)
        noise = rng.standard_normal(4 * FS) * 0.05
        tracked_1, _, _ = _track(noise)
        tracked_2, _, _ = _track(3.0 * noise)
        ratio = tracked_2 / tracked_1
        assert np.allclose(np.mean(ratio), 9.0, rtol=0.01)

    def test_never_nan_and_floored(self):
        est = NoisePowerEstimator(NpeParams())
        rng = np.random.default_rng(5)
        for i in range(100):
            frame = (rng.standard_normal(N_BINS) * 10.0 ** rng.integers(-9, 9)
                     ).astype(complex)
            out = _step(est, frame)
            assert np.all(np.isfinite(out))
            assert np.all(out >= POWER_FLOOR)
