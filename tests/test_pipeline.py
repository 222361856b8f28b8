from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echoforge.audio import AudioBuffer
from echoforge.errors import InputError
from echoforge.metrics import erle_windows, segmental_snr
from echoforge.params import build_pipeline_params
from echoforge.pipeline import (measure_erle, process_stream,
                                write_diagnostics_file)
from echoforge.stft import FRAME_LEN
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

    @pytest.mark.parametrize("mic_rate, ref_rate, named", [
        (48000, 48000, "mic is at 48000 Hz"),
        (16000, 48000, "reference is at 48000 Hz"),
        (8000, 8000, "mic is at 8000 Hz")], ids=["48k", "ref-48k", "8k"])
    def test_rates_other_than_16k_rejected(self, mic_rate, ref_rate, named):
        mic = AudioBuffer(np.zeros(mic_rate), mic_rate)
        ref = AudioBuffer(np.zeros(ref_rate), ref_rate)
        with pytest.raises(InputError, match=named):
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
        assert np.array_equal(out_a[: cut - FRAME_LEN], out_b[: cut - FRAME_LEN])


EDGE_KINDS = ("zero", "dc", "clipped", "noise")
# empty, one sample, frame-boundary lengths, and anything up to 0.75 s
edge_lengths = st.one_of(st.sampled_from([0, 1, 255, 256, 257, 512]),
                         st.integers(0, 3 * FS // 4))


def _edge_signal(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(n)
    if kind == "dc":
        return np.full(n, rng.choice([-1.0, -0.5, 0.5, 1.0]))
    if kind == "clipped":  # full scale, hard-clipped
        return np.clip(4.0 * rng.standard_normal(n), -1.0, 1.0)
    return 0.1 * rng.standard_normal(n)


class TestEdgeInputs:
    @given(mic_kind=st.sampled_from(EDGE_KINDS), ref_kind=st.sampled_from(EDGE_KINDS),
           mic_len=edge_lengths, ref_len=edge_lengths, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    # a reference longer than the mic, with activity after the mic's end
    @example(mic_kind="dc", ref_kind="dc", mic_len=109, ref_len=3288, seed=1)
    def test_output_is_finite_at_mic_length(self, mic_kind, ref_kind, mic_len,
                                            ref_len, seed):
        mic = AudioBuffer(_edge_signal(mic_kind, mic_len, seed), FS)
        ref = AudioBuffer(_edge_signal(ref_kind, ref_len, seed + 1), FS)
        result = process_stream(mic, ref)
        assert len(result.enhanced) == mic_len
        assert result.enhanced.sample_rate == FS
        assert np.all(np.isfinite(result.enhanced.samples))
        for start, end in result.segments:
            assert 0 <= start < end <= mic_len

    @given(mic_len=edge_lengths, ref_len=edge_lengths)
    @settings(max_examples=20, deadline=None)
    def test_all_zero_input_gives_all_zero_output(self, mic_len, ref_len):
        result = process_stream(AudioBuffer(np.zeros(mic_len), FS),
                                AudioBuffer(np.zeros(ref_len), FS))
        assert len(result.enhanced) == mic_len
        assert np.all(result.enhanced.samples == 0)
        assert result.segments == []


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
