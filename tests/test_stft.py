import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from echoforge.audio import AudioBuffer, open_wav, read_wav, write_wav
from echoforge.cli import load_run_config
from echoforge.dtp import DtpParams
from echoforge.errors import ConfigError, InputError
from echoforge.stft import (FRAME_LEN, HOP, N_BINS, SAMPLE_RATE, SYNTHESIS_CHUNK, WINDOW,
                            analyze, synthesize)
from echoforge.vad import VadParams
from conftest import EDGE_KINDS, edge_lengths, edge_signal

FS = 16000


def _random_buffer(n, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.uniform(-scale, scale, n), FS)


class TestAnalyze:
    def test_zero_buffer_gives_zero_frames(self):
        frames = analyze(AudioBuffer(np.zeros(4096), FS))
        assert frames.shape[1] == 257
        assert np.all(frames == 0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.one_of(st.sampled_from([0, 1, HOP - 1, HOP, HOP + 1]),
                       st.integers(0, 20 * HOP)),
           first=st.integers(0, 24), count=st.integers(0, 24), seed=st.integers(0, 2**16))
    @example(n=0, first=0, count=3, seed=0)
    @example(n=HOP + 1, first=0, count=0, seed=0)
    @example(n=10 * HOP + 5, first=8, count=20, seed=0)
    def test_frame_range_equals_rows_of_whole_transform(self, n, first, count, seed):
        x = _random_buffer(n, seed=seed)
        rows = analyze(x)[first:first + count]
        part = analyze(x, first, count)
        assert part.shape == rows.shape
        assert part.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("first, count", [(-1, 2), (0, -1)])
    def test_negative_frame_range_rejected(self, first, count):
        with pytest.raises(InputError):
            analyze(_random_buffer(1000), first, count)

    def test_empty_buffer_gives_empty_sequence(self):
        frames = analyze(AudioBuffer(np.zeros(0), FS))
        assert frames.shape == (0, 257)

    def test_sinusoid_concentrates_in_its_bin(self):
        k = 32
        n = np.arange(2048)
        x = np.cos(2 * np.pi * k * n / FRAME_LEN)
        frames = analyze(AudioBuffer(x, FS))
        # oracle: direct DFT sums of the first windowed frame
        bins = np.arange(N_BINS)[:, None]
        kernel = np.exp(-2j * np.pi * bins * np.arange(FRAME_LEN) / FRAME_LEN)
        expected = kernel @ (x[:FRAME_LEN] * WINDOW)
        assert np.allclose(frames[0], expected, rtol=1e-9, atol=1e-9)
        assert np.argmax(np.abs(frames[0])) == k

    def test_unit_impulse_gives_flat_frame(self):
        x = np.zeros(FRAME_LEN)
        x[0] = 1.0
        frames = analyze(AudioBuffer(x, FS))
        assert np.allclose(frames[0], WINDOW[0])

    def test_linearity(self):
        x = _random_buffer(5000, seed=1)
        y = _random_buffer(5000, seed=2)
        a, b = 0.7, -1.3
        combo = AudioBuffer(a * x.samples + b * y.samples, FS)
        lhs = analyze(combo)
        rhs = a * analyze(x) + b * analyze(y)
        assert np.allclose(lhs, rhs, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.tuples(st.sampled_from(EDGE_KINDS), st.sampled_from(EDGE_KINDS)),
           n=edge_lengths, seed=st.integers(0, 2**16))
    def test_difference_of_spectra_is_spectrum_of_difference(self, kinds, n, seed):
        # The pipeline hands the double-talk detector Y - E as the spectrum
        # of the echo estimate y - e; analysis is linear up to rounding.
        a, b = (edge_signal(kind, n, seed + i) for i, kind in enumerate(kinds))
        spec_a, spec_b = (analyze(AudioBuffer(s, FS)) for s in (a, b))
        peak = max(np.max(np.abs(s), initial=0.0) for s in (spec_a, spec_b))
        diff = analyze(AudioBuffer(a - b, FS))
        assert np.max(np.abs(spec_a - spec_b - diff), initial=0.0) <= 1e-12 * peak

    def test_frame_indexing_covers_input(self):
        frames = analyze(_random_buffer(1000, seed=3))
        # ceil(1000 / 256) frames; the last one starts at 768 and covers 999
        assert frames.shape[0] == 4

    def test_real_input_symmetry_bins(self):
        frames = analyze(_random_buffer(4096, seed=4))
        assert np.all(frames[:, 0].imag == 0)
        assert np.all(frames[:, -1].imag == 0)


def _frame_by_frame_overlap_add(frames, length):
    """Reference synthesis: add each windowed frame in turn, then normalize."""
    total = (len(frames) + 1) * HOP if len(frames) else 0
    out = np.zeros(max(total, length))
    weight = np.zeros(max(total, length))
    blocks = np.fft.irfft(frames, n=FRAME_LEN, axis=1) * WINDOW
    for m in range(len(frames)):
        out[m * HOP : m * HOP + FRAME_LEN] += blocks[m]
        weight[m * HOP : m * HOP + FRAME_LEN] += WINDOW**2
    np.divide(out, weight, out=out, where=weight > 1e-12)
    return out[:length]


class TestSynthesize:
    def test_traced_peak_below_one_inverse_array_beyond_the_output(self):
        # 60 s of frames: the inverse transforms of all of them would be
        # 15 MB; a chunk of them is 128 KiB.
        frames = analyze(_random_buffer(60 * FS, seed=3))
        length = 60 * FS
        inverse = len(frames) * FRAME_LEN * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = synthesize(frames, length=length)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.samples.base.nbytes + inverse / 4 > peak, peak / inverse

    @pytest.mark.parametrize("n", [512, 1000, 4096, 12345],
                             ids=lambda n: f"{n}-sqrt-hann")
    def test_round_trip(self, n):
        x = _random_buffer(n, seed=n)
        out = synthesize(analyze(x), length=n)
        assert out.sample_rate == SAMPLE_RATE
        assert np.max(np.abs(out.samples - x.samples)) <= 1e-6

    # n = 16000 is 63 frames; the next three lengths give one frame fewer
    # than, exactly and one more than a synthesis chunk; 23417 ends mid-chunk.
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 511, 512, 513, 16000,
                                   (SYNTHESIS_CHUNK - 1) * HOP, SYNTHESIS_CHUNK * HOP,
                                   (SYNTHESIS_CHUNK + 1) * HOP, 23417])
    def test_matches_frame_by_frame_overlap_add(self, n):
        rng = np.random.default_rng(n)
        frames = analyze(AudioBuffer(rng.standard_normal(n), FS))
        frames *= 1 + 0.3 * rng.standard_normal(frames.shape)
        for length in (n, n + 700):
            out = synthesize(frames, length=length).samples
            assert out.tobytes() == _frame_by_frame_overlap_add(frames, length).tobytes()

    def test_zero_frames_give_zero_buffer(self):
        out = synthesize(np.zeros((5, 257), dtype=complex))
        assert np.all(out.samples == 0)

    def test_scaling_frames_scales_output(self):
        x = _random_buffer(3000, seed=5)
        frames = analyze(x)
        base = synthesize(frames, length=3000)
        scaled = synthesize(2.5 * frames, length=3000)
        assert np.allclose(scaled.samples, 2.5 * base.samples, atol=1e-9)

    def test_bad_frame_shape_rejected(self):
        with pytest.raises(InputError):
            synthesize(np.zeros((3, 100), dtype=complex))


class TestParseval:
    def test_frame_energy_matches_windowed_time_energy(self):
        x = _random_buffer(4096, seed=6)
        frames = analyze(x)
        padded = np.zeros((frames.shape[0] - 1) * HOP + FRAME_LEN)
        padded[: len(x)] = x.samples
        for m in range(frames.shape[0]):
            seg = padded[m * HOP : m * HOP + FRAME_LEN] * WINDOW
            time_energy = np.sum(seg**2)
            mags = np.abs(frames[m]) ** 2
            freq_energy = (mags[0] + mags[-1] + 2 * np.sum(mags[1:-1])) / FRAME_LEN
            assert freq_energy == pytest.approx(time_energy, rel=1e-6, abs=1e-12)


class TestConfig:
    def test_invalid_configs_rejected(self, tmp_path):
        # the frame clock is fixed: every stft.* key is unknown, default or not
        for line in ("stft.frame_len = 500", "stft.hop = 0", "stft.hop = 1024",
                     "stft.window = kaiser", "stft.frame_len = 512"):
            path = tmp_path / "run.cfg"
            path.write_text(line + "\n")
            with pytest.raises(ConfigError, match=line.split(" ")[0]):
                load_run_config(str(path))

    def test_bin_of_freq(self):
        # a tone at f Hz peaks in bin round(f * FRAME_LEN / SAMPLE_RATE)
        n = np.arange(4 * FRAME_LEN)
        for freq, k in ((0.0, 0), (300.0, 10), (3406.25, 109), (8000.0, 256)):
            frames = analyze(AudioBuffer(np.cos(2 * np.pi * freq * n / FS), FS))
            assert np.argmax(np.abs(frames[1])) == k

    def test_schema_defaults_match_the_clock(self):
        assert (SAMPLE_RATE, FRAME_LEN, HOP, N_BINS) == (16000, 512, 256, 257)
        assert DtpParams().k_end < N_BINS
        assert VadParams().threshold == pytest.approx(0.15 * N_BINS)
        # constant overlap-add: squared window halves sum to one
        assert np.allclose(WINDOW[:HOP] ** 2 + WINDOW[HOP:] ** 2, 1.0)


def _write_pcm24(path, values):
    """Write a mono 24-bit PCM WAV, which scipy cannot write."""
    data = np.asarray(values, dtype="<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, FS, 3 * FS, 3, 24)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2))
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def _write_format(path, fmt, n, seed=0):
    """Write n random samples in container format fmt; returns them at full scale."""
    rng = np.random.default_rng(seed)
    if fmt == "int24":
        raw = rng.integers(-2**23, 2**23, n)
        _write_pcm24(path, raw)
        return raw / 2.0**23
    dtype = np.dtype(fmt)
    if dtype.kind == "i":
        info = np.iinfo(dtype)
        raw = rng.integers(info.min, info.max, n, endpoint=True, dtype=dtype)
        wavfile.write(path, FS, raw)
        return raw / -float(info.min)
    raw = rng.uniform(-1.0, 1.0, n).astype(dtype)
    wavfile.write(path, FS, raw)
    return raw.astype(np.float64)


class TestWavIO:
    def test_float32_round_trip(self, tmp_path):
        x = _random_buffer(5000, seed=7)
        path = tmp_path / "f32.wav"
        write_wav(path, x)
        back = read_wav(path)
        assert back.sample_rate == FS
        assert np.allclose(back.samples, x.samples, atol=1e-7)

    @pytest.mark.parametrize("dtype,full_scale", [
        (np.int16, 2.0**15), (np.int32, 2.0**31), (np.float32, 1.0), (np.float64, 1.0),
    ], ids=["int16", "int32", "float32", "float64"])
    def test_read_format_maps_fullscale(self, tmp_path, dtype, full_scale):
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            raw = np.array([0, info.max // 2 + 1, info.min, info.max], dtype=dtype)
        else:
            raw = np.array([0.0, 0.5, -1.0, 0.75], dtype=dtype)
        path = tmp_path / "in.wav"
        wavfile.write(path, FS, raw)
        back = read_wav(path)
        assert back.sample_rate == FS
        assert np.array_equal(back.samples, raw.astype(np.float64) / full_scale)
        assert back.samples[1] == 0.5 and back.samples[2] == -1.0

    @pytest.mark.parametrize("fmt", ["int16", "int24", "int32", "float32", "float64"])
    def test_span_read_equals_slice_of_whole_read(self, tmp_path, fmt):
        n = 1001
        path = tmp_path / f"{fmt}.wav"
        expected = _write_format(path, fmt, n, seed=3)
        whole = read_wav(path).samples
        assert np.array_equal(whole, expected)
        wav = open_wav(path)
        assert (len(wav), wav.sample_rate) == (n, FS)
        # scipy maps every container but the 3-byte one
        assert isinstance(wav.data, np.memmap) == (fmt != "int24")
        for start, stop in ((0, 100), (337, 612), (n - 250, n), (0, n), (n, n)):
            span = wav.read(start, stop).samples
            assert span.dtype == np.float64
            assert np.array_equal(span, whole[start:stop]), (start, stop)
        for start, stop in ((n - 250, n + 1), (-1, 10)):
            with pytest.raises(InputError, match=re.escape(str(path))):
                wav.read(start, stop)

    def test_nonfinite_sample_names_path_in_whole_and_span_reads(self, tmp_path):
        samples = np.zeros(100, dtype=np.float32)
        samples[60] = np.nan
        path = tmp_path / "nan.wav"
        wavfile.write(path, FS, samples)
        with pytest.raises(InputError, match=re.escape(str(path)) + ".*NaN"):
            read_wav(path)
        wav = open_wav(path)
        with pytest.raises(InputError, match=re.escape(str(path)) + ".*NaN"):
            wav.read(50, 70)
        # only the decoded span is checked
        assert np.array_equal(wav.read(0, 60).samples, np.zeros(60))

    @pytest.mark.parametrize("kind", ["uint8", "stereo", "not-riff"])
    def test_unsupported_file_rejected_naming_path(self, tmp_path, kind):
        path = tmp_path / f"{kind}.wav"
        if kind == "uint8":
            wavfile.write(path, FS, np.full(8, 128, dtype=np.uint8))
        elif kind == "stereo":
            wavfile.write(path, FS, np.zeros((8, 2), dtype=np.int16))
        else:
            path.write_bytes(b"not a wave file")
        with pytest.raises(InputError, match=re.escape(str(path))):
            read_wav(path)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            AudioBuffer(np.array([0.0, np.nan]), FS)
        with pytest.raises(InputError):
            AudioBuffer(np.zeros(4), 0)
        with pytest.raises(InputError, match="expected mono signal"):
            AudioBuffer(np.zeros((4, 2)), FS)
