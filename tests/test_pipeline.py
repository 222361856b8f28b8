import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echoforge.audio import AudioBuffer
from echoforge.dtp import DtpEstimator
from echoforge.errors import ConfigError, InputError
from echoforge.metrics import SEGSNR_FRAME, erle_windows, segmental_snr
from echoforge.params import build_pipeline_params
from echoforge import pipeline
from echoforge.pipeline import (Diagnostics, measure_erle, process_stream,
                                write_diagnostics_file)
from echoforge.raec import cascade_run, pad_to
from echoforge.stft import FRAME_LEN, analyze
from echoforge.suppressor import Suppressor, SuppressorParams
from conftest import EDGE_KINDS, edge_lengths, edge_signal, music_like, speech_like
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
            s_hat, *rest = original(self, *args)
            s_hat[3] = np.nan
            return s_hat, *rest

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


class TestImportCost:
    def test_import_does_not_load_scipy_signal(self):
        # scipy.signal roughly doubles the time and memory of `import
        # echoforge`, and the benchmark imports it before timing anything
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        code = "import sys, echoforge; print('scipy.signal' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "False"


class TestEdgeInputs:
    @given(mic_kind=st.sampled_from(EDGE_KINDS), ref_kind=st.sampled_from(EDGE_KINDS),
           mic_len=edge_lengths, ref_len=edge_lengths, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    # a reference longer than the mic, with activity after the mic's end
    @example(mic_kind="dc", ref_kind="dc", mic_len=109, ref_len=3288, seed=1)
    def test_output_is_finite_at_mic_length(self, mic_kind, ref_kind, mic_len,
                                            ref_len, seed):
        mic = AudioBuffer(edge_signal(mic_kind, mic_len, seed), FS)
        ref = AudioBuffer(edge_signal(ref_kind, ref_len, seed + 1), FS)
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


class TestChunkedChain:
    @pytest.mark.parametrize("n_frames", [100, 1])
    @pytest.mark.parametrize("partitions", [(2, 5), (6, 3)], ids=["high<low", "high>low"])
    def test_chunk_size_leaves_every_output_unchanged(self, monkeypatch, n_frames,
                                                      partitions):
        # 100 frames is a multiple of neither 7 nor the default chunk, so
        # the last chunk is short; one frame makes a single short chunk
        default = pipeline.CHUNK_FRAMES
        assert 100 % 7 and 100 % default
        mic, ref = _echo_scenario(duration=1.6, seed=24, with_speech=True)
        length = n_frames * 256 - 100
        mic = AudioBuffer(mic.samples[:length], FS)
        ref = AudioBuffer(ref.samples[:length], FS)
        # a low VAD threshold, so that the VAD finds the speech
        params = build_pipeline_params({"rpe.partitions_high": partitions[0],
                                        "rpe.partitions_low": partitions[1],
                                        "vad.threshold": 0.0, "vad.hangover": 2})
        runs = []
        for chunk in (1, 7, default):
            monkeypatch.setattr(pipeline, "CHUNK_FRAMES", chunk)
            runs.append(process_stream(mic, ref, params, collect_diagnostics=True))
        first = runs[0]
        assert len(first.diagnostics.p_dt) == n_frames
        for other in runs[1:]:
            assert np.array_equal(other.enhanced.samples, first.enhanced.samples)
            assert other.segments == first.segments
            for trace in fields(Diagnostics):
                assert np.array_equal(getattr(other.diagnostics, trace.name),
                                      getattr(first.diagnostics, trace.name)), trace.name


class TestEchoEstimate:
    def test_dtp_reads_the_spectrum_of_mic_minus_error(self, monkeypatch):
        # The double-talk detector's echo estimate is y - e, handed over as
        # the chunk's Y - E; it equals the analysed y - e up to rounding. A
        # reference longer than the mic, so the mic is zero-padded.
        mic, ref = _echo_scenario(duration=1.3, seed=27, with_speech=True)
        mic = AudioBuffer(mic.samples[:20001], FS)
        seen = []
        process = DtpEstimator.process

        def spy(self, d, y):
            seen.append(d.copy())
            return process(self, d, y)

        monkeypatch.setattr(DtpEstimator, "process", spy)
        params = build_pipeline_params()
        process_stream(mic, ref, params)
        y = pad_to(mic.samples, len(ref))
        e = cascade_run(ref.samples, y, params.raec1, params.raec2)
        expected = analyze(AudioBuffer(y - e, FS))
        assert len(seen) == -(-len(expected) // pipeline.CHUNK_FRAMES)
        got = np.concatenate(seen)
        assert got.shape == expected.shape
        peak = max(np.max(np.abs(analyze(AudioBuffer(s, FS)))) for s in (y, e))
        assert np.max(np.abs(got - expected)) <= 1e-12 * peak


class TestInputsUntouched:
    @pytest.mark.parametrize("mic_len, ref_len", [(20480, 20480), (20001, 14999),
                                                  (14999, 20001)],
                             ids=["equal-whole-blocks", "mic-longer", "reference-longer"])
    def test_read_only_inputs_give_the_same_output(self, mic_len, ref_len):
        # 20480 samples are 80 blocks of both RAEC stages, so nothing is
        # padded and the stages read the caller's arrays themselves; the
        # other lengths are a multiple of neither the hop nor the block
        mic, ref = _echo_scenario(duration=1.3, seed=25, with_speech=True)
        frozen = []
        for samples in (mic.samples[:mic_len].copy(), ref.samples[:ref_len].copy()):
            samples.flags.writeable = False
            frozen.append(AudioBuffer(samples, FS))
        assert not frozen[0].samples.flags.writeable
        run = process_stream(*frozen, collect_diagnostics=True)
        writable = process_stream(*(AudioBuffer(b.samples.copy(), FS) for b in frozen),
                                  collect_diagnostics=True)
        assert run.enhanced.samples.tobytes() == writable.enhanced.samples.tobytes()
        assert run.segments == writable.segments
        for trace in fields(Diagnostics):
            assert np.array_equal(getattr(run.diagnostics, trace.name),
                                  getattr(writable.diagnostics, trace.name)), trace.name


# Bound on the traced peak of process_stream, in multiples of one input's
# float64 size. Holding four whole-stream spectrograms it measured about
# 20x; analysing a chunk at a time it measured about 5.5x on 30 s, 4.7x
# with synthesis a chunk at a time too, and 3.66x (numpy 2.4) once the
# echo estimate's spectrum came from Y - E instead of a whole-stream y - e.
PEAK_PER_INPUT = 4.2


class TestPeakMemory:
    def test_traced_peak_within_a_multiple_of_one_input(self):
        mic, ref = _echo_scenario(duration=30.0, seed=26, with_speech=True)
        tracemalloc.start()
        try:
            process_stream(mic, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_PER_INPUT * mic.samples.nbytes, peak / mic.samples.nbytes


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


def _loop_ratio_db(num_energy, den_energy, clamp):
    if den_energy <= 0.0:
        return clamp
    if num_energy <= 0.0:
        return -clamp
    return float(np.clip(10.0 * np.log10(num_energy / den_energy), -clamp, clamp))


def _loop_erle_windows(mic, enhanced, window):
    """The window-at-a-time form erle_windows replaced; its reference."""
    n_win = max(1, len(mic) // window)
    out = np.empty(n_win)
    for w in range(n_win):
        sl = slice(w * window, (w + 1) * window)
        out[w] = _loop_ratio_db(np.sum(mic[sl] ** 2), np.sum(enhanced[sl] ** 2), 80.0)
    return out


def _loop_segmental_snr(reference, test):
    """The segment-at-a-time form segmental_snr replaced; its reference."""
    vals = []
    for start in range(0, len(reference) - SEGSNR_FRAME + 1, SEGSNR_FRAME):
        sl = slice(start, start + SEGSNR_FRAME)
        ref_e = np.sum(reference[sl] ** 2)
        err_e = np.sum((reference[sl] - test[sl]) ** 2)
        if ref_e <= 0.0 and err_e <= 0.0:
            continue
        vals.append(_loop_ratio_db(ref_e, err_e, 40.0))
    return float(np.mean(vals)) if vals else 0.0


@st.composite
def signal_pairs(draw):
    """Two signals from 0 to several segments long, with silent halves,
    exact matches and all-zero second signals among the draws."""
    n = draw(st.integers(0, 6 * SEGSNR_FRAME + 37))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    a = scale * rng.standard_normal(n)
    b = {"equal": a.copy(), "zero": np.zeros(n),
         "close": a + 0.1 * scale * rng.standard_normal(n),
         "other": scale * rng.standard_normal(n)}[draw(st.sampled_from(
             ["equal", "zero", "close", "other"]))]
    silent = draw(st.sampled_from([slice(0, 0), slice(0, n // 2), slice(n // 2, n)]))
    a[silent] = 0.0
    b[silent] = 0.0
    return a, b


class TestArrayFormsEqualLoopForms:
    """Both scores are array reductions; they must equal the loop forms bit
    for bit, with the same return types. Each pair is scored both ways
    round, so zero enhanced energy and zero mic energy both occur."""

    @given(pair=signal_pairs(), window=st.integers(1, 8 * SEGSNR_FRAME))
    @settings(max_examples=300, deadline=None)
    def test_erle_windows(self, pair, window):
        for mic, enhanced in (pair, pair[::-1]):
            got = erle_windows(mic, enhanced, window)
            with np.errstate(all="ignore"):
                want = _loop_erle_windows(mic, enhanced, window)
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert np.array_equal(got, want)

    @given(pair=signal_pairs())
    @settings(max_examples=300, deadline=None)
    def test_segmental_snr(self, pair):
        for reference, test in (pair, pair[::-1]):
            got = segmental_snr(reference, test)
            with np.errstate(all="ignore"):
                want = _loop_segmental_snr(reference, test)
            assert type(got) is float
            assert got == want


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

    def test_length_mismatch_rejected(self):
        x = speech_like(1.0, seed=22)
        with pytest.raises(InputError):
            measure_erle(AudioBuffer(x, FS), AudioBuffer(x[:-1], FS))

    @pytest.mark.parametrize("window", [0.0, -1.0, 1e-5, float("nan"), float("inf"),
                                        -1e308])
    def test_window_below_one_sample_or_not_finite_rejected(self, window):
        x = speech_like(1.0, seed=23)
        with pytest.raises(ConfigError, match="window"):
            measure_erle(AudioBuffer(x, FS), AudioBuffer(x / 2, FS), window)

    def test_window_longer_than_the_signal_is_one_window(self):
        # 1e308 s is finite, but its sample count overflows to infinity
        x = speech_like(1.0, seed=24)[:100]
        mic, enhanced = AudioBuffer(x, FS), AudioBuffer(x / 3, FS)
        one = measure_erle(mic, enhanced, 1.0)
        assert len(one) == 1
        assert np.array_equal(measure_erle(mic, enhanced, 1e308), one)

    def test_windowed_lengths(self):
        x = speech_like(2.5, seed=21)
        vals = erle_windows(x, x / 2, FS)
        assert len(vals) == 2
        assert np.allclose(vals, 10 * np.log10(4))

    @pytest.mark.parametrize("window", [0, -FS])
    def test_window_of_no_samples_rejected(self, window):
        x = speech_like(1.0, seed=25)
        with pytest.raises(InputError, match="window must be positive"):
            erle_windows(x, x / 2, window)


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

    def test_length_mismatch_rejected(self):
        x = speech_like(1.0, seed=26)
        with pytest.raises(InputError, match="length mismatch"):
            segmental_snr(x, x[:-1])
