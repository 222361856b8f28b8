from dataclasses import replace

import numpy as np
import pytest

from echoforge.audio import AudioBuffer
from echoforge.errors import InputError
from echoforge.metrics import erle_windows, segmental_snr
from echoforge.params import build_pipeline_params
from echoforge.pipeline import (measure_erle, process_stream,
                                write_diagnostics_file)
from echoforge.stft import StftConfig
from echoforge.suppressor import Suppressor, SuppressorParams
from conftest import music_like, speech_like
from scipy.signal import fftconvolve

FS = 16000


def _echo_scenario(duration=8.0, seed=0, with_speech=False):
    rng = np.random.default_rng(seed)
    music = music_like(duration, seed=seed + 1, rms=0.1)
    ir = rng.standard_normal(512) * np.exp(-np.arange(512) / 400.0)
    ir[0] = 2.0
    ir /= np.sqrt(np.sum(ir**2))
    echo = fftconvolve(music, ir)[: len(music)]
    mic = 3.0 * echo
    if with_speech:
        mic = mic + speech_like(duration, seed=seed + 2, rms=0.05)
    return AudioBuffer(mic, FS), AudioBuffer(music, FS)


class TestNeutralizedPaths:
    def test_zero_reference_with_unity_low_branch_is_transparent(self):
        # silent far end leaves the canceler inert bit-for-bit; a huge
        # low-branch region with g_min = 1 pins the mask at one
        mic = AudioBuffer(speech_like(3.0, seed=7, rms=0.1), FS)
        ref = AudioBuffer(np.zeros(3 * FS), FS)
        params = build_pipeline_params()
        params = replace(params, suppressor=SuppressorParams(
            g_min=1.0, theta1=1e12, theta2=2e12))
        result = process_stream(mic, ref, params)
        assert np.max(np.abs(result.enhanced.samples - mic.samples)) <= 1e-6


class TestEchoOnly:
    def test_echo_only_suppressed_by_20db_after_convergence(self):
        mic, ref = _echo_scenario(duration=8.0, seed=10)
        result = process_stream(mic, ref)
        tail = slice(5 * FS, None)
        ratio = 10 * np.log10(
            np.sum(result.enhanced.samples[tail] ** 2)
            / np.sum(mic.samples[tail] ** 2))
        assert ratio <= -20.0


class TestContracts:
    def test_determinism_bit_identical(self):
        mic, ref = _echo_scenario(duration=2.0, seed=11, with_speech=True)
        a = process_stream(mic, ref)
        b = process_stream(mic, ref)
        assert np.array_equal(a.enhanced.samples, b.enhanced.samples)
        assert a.segments == b.segments

    def test_sample_rate_mismatch_rejected(self):
        mic = AudioBuffer(np.zeros(1000), 16000)
        ref = AudioBuffer(np.zeros(1000), 8000)
        with pytest.raises(InputError):
            process_stream(mic, ref)

    def test_shorter_reference_padded_and_output_matches_mic_length(self):
        mic = AudioBuffer(speech_like(2.0, seed=12), FS)
        ref = AudioBuffer(music_like(1.0, seed=13), FS)
        result = process_stream(mic, ref)
        assert len(result.enhanced) == len(mic)

    def test_finiteness_checks_pass_on_normal_input(self):
        mic, ref = _echo_scenario(duration=1.0, seed=14, with_speech=True)
        result = process_stream(mic, ref)
        assert np.all(np.isfinite(result.enhanced.samples))

    def test_nonfinite_output_rejected(self, monkeypatch):
        original = Suppressor.process_frame

        def emit_nan(self, *args):
            s_hat, xi, gamma, zeta = original(self, *args)
            s_hat[3] = np.nan
            return s_hat, xi, gamma, zeta

        monkeypatch.setattr(Suppressor, "process_frame", emit_nan)
        mic, ref = _echo_scenario(duration=1.0, seed=14, with_speech=True)
        with pytest.raises(InputError):
            process_stream(mic, ref)

    def test_bounded_lookahead(self):
        # outputs may depend on at most one frame of future input
        mic_a, ref = _echo_scenario(duration=2.0, seed=15, with_speech=True)
        cut = int(1.5 * FS)
        samples_b = mic_a.samples.copy()
        samples_b[cut:] += 0.3 * speech_like(2.0, seed=16)[cut:]
        mic_b = AudioBuffer(samples_b, FS)
        out_a = process_stream(mic_a, ref).enhanced.samples
        out_b = process_stream(mic_b, ref).enhanced.samples
        frame_len = StftConfig().frame_len
        assert np.array_equal(out_a[: cut - frame_len], out_b[: cut - frame_len])


class TestDiagnostics:
    def test_collected_shapes_and_side_file(self, tmp_path):
        mic, ref = _echo_scenario(duration=1.0, seed=17, with_speech=True)
        result = process_stream(mic, ref, collect_diagnostics=True)
        diag = result.diagnostics
        n_frames = diag.xi.shape[0]
        assert diag.gamma.shape == diag.xi.shape == diag.zeta.shape
        assert diag.p_dt.shape == (n_frames,)
        assert np.all((diag.p_dt >= 0) & (diag.p_dt <= 1))

        path = tmp_path / "trace.f32"
        write_diagnostics_file(path, diag)
        raw = np.fromfile(path, dtype="<f4").reshape(n_frames, 3, -1)
        assert np.allclose(raw[:, 0], diag.xi.astype(np.float32))
        assert np.allclose(raw[:, 1], diag.gamma.astype(np.float32))
        assert np.allclose(raw[:, 2], diag.zeta.astype(np.float32))


class TestErle:
    def test_identity_is_zero_db(self):
        mic = AudioBuffer(speech_like(1.0, seed=18), FS)
        assert measure_erle(mic, mic)[0] == 0.0

    def test_tenfold_reduction_is_20db(self):
        x = speech_like(1.0, seed=19)
        vals = measure_erle(AudioBuffer(x, FS), AudioBuffer(x / 10, FS))
        assert vals[0] == pytest.approx(20.0, abs=1e-9)

    def test_silent_output_clamps_at_80db(self):
        x = speech_like(1.0, seed=20)
        vals = measure_erle(AudioBuffer(x, FS), AudioBuffer(np.zeros_like(x), FS))
        assert vals[0] == 80.0

    def test_windowed_lengths(self):
        x = speech_like(2.5, seed=21)
        vals = erle_windows(x, x / 2, FS)
        assert len(vals) == 2
        assert np.allclose(vals, 10 * np.log10(4))


class TestSegmentalSnr:
    def test_exact_match_hits_ceiling(self):
        x = speech_like(1.0, seed=22)
        assert segmental_snr(x, x) == 40.0

    def test_known_ratio(self):
        rng = np.random.default_rng(23)
        ref = rng.standard_normal(2560)
        err = rng.standard_normal(2560)
        test = ref + err * 0.1
        # per-segment 10log10(ref/err) fluctuates around 20 dB
        assert segmental_snr(ref, test) == pytest.approx(20.0, abs=2.0)
