import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoforge.audio import AudioBuffer
from echoforge.errors import ConfigError
from echoforge.pipeline import process_stream
from echoforge.stft import FRAME_LEN, HOP
from echoforge.vad import VadDecider, VadParams, segments_from_flags, vad_statistic
from conftest import speech_like, stationary_noise

FS = 16000


class TestStatistic:
    def test_zero_prior_snr_gives_exact_zero(self):
        gamma = np.linspace(0, 50, 64)
        assert vad_statistic(np.zeros(64), gamma) == 0.0

    def test_one_bin_value_against_high_precision(self):
        got = vad_statistic(np.array([1.0]), np.array([2.0]))
        mpmath.mp.dps = 50
        expected = float(mpmath.mpf(1) - mpmath.log(2))
        assert abs(got - expected) <= 1e-12
        assert got == pytest.approx(1 - math.log(2), abs=1e-12)

    def test_additive_over_bins(self):
        one = vad_statistic(np.array([1.0]), np.array([2.0]))
        two = vad_statistic(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_monotone_in_posterior_snr(self):
        rng = np.random.default_rng(0)
        xi = rng.uniform(0.01, 10, 32)
        gamma = rng.uniform(0.01, 10, 32)
        base = vad_statistic(xi, gamma)
        bumped = gamma.copy()
        bumped[7] += 1.0
        assert vad_statistic(xi, bumped) >= base


class TestDecider:
    def test_boundary_is_inactive(self):
        params = VadParams(threshold=5.0, hangover=0)
        assert VadDecider(params).decide(5.0) is False
        assert VadDecider(params).decide(5.0 + 1e-9) is True

    def test_hangover_extends_activity(self):
        params = VadParams(threshold=0.5, hangover=3)
        dec = VadDecider(params)
        flags = [dec.decide(s) for s in [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]
        assert flags == [True, True, True, True, False, False]

    def test_zero_hangover_is_raw_comparison(self):
        params = VadParams(threshold=0.5, hangover=0)
        dec = VadDecider(params)
        assert [dec.decide(s) for s in [1.0, 0.0, 1.0]] == [True, False, True]

    def test_negative_hangover_rejected(self):
        with pytest.raises(ConfigError):
            VadParams(hangover=-1)


def _loop_segments_from_flags(flags, total_samples):
    """The frame-at-a-time scan segments_from_flags replaced; its reference."""
    segments = []
    start = None
    for m, active in enumerate([*flags, False]):
        if active and start is None:
            start = m * HOP
        elif not active and start is not None:
            end = min((m - 1) * HOP + FRAME_LEN, total_samples)
            if start < end:
                segments.append((start, end))
            start = None
    return segments


class TestSegments:
    @given(flags=st.lists(st.booleans(), max_size=40), total=st.integers(0, 42 * HOP))
    @settings(max_examples=300, deadline=None)
    def test_equals_loop_form(self, flags, total):
        segs = segments_from_flags(flags, total)
        assert segs == _loop_segments_from_flags(flags, total)
        assert type(segs) is list
        assert all(type(v) is int for seg in segs for v in seg)
        assert all(type(seg) is tuple and len(seg) == 2 for seg in segs)

    def test_merge_and_bounds(self):
        flags = [False, True, True, False, True, False]
        segs = segments_from_flags(flags, total_samples=2000)
        assert segs == [(256, 1024), (1024, 1536)]

    def test_trailing_active_closed_at_end(self):
        segs = segments_from_flags([True, True], total_samples=600)
        assert segs == [(0, 600)]

    def test_ranges_past_the_end_dropped(self):
        # frames past a short mic's end, as when the reference is longer
        segs = segments_from_flags([True, False, True, True], total_samples=300)
        assert segs == [(0, 300)]

    @given(flags=st.lists(st.booleans(), max_size=40), total=st.integers(0, 42 * HOP))
    @settings(max_examples=200, deadline=None)
    def test_segments_sorted_disjoint_and_cover_active_frames(self, flags, total):
        segs = segments_from_flags(flags, total)
        for start, end in segs:
            assert 0 <= start < end <= total
            assert start % HOP == 0 and flags[start // HOP]
        for (_, end), (start, _) in zip(segs, segs[1:]):
            assert end <= start
        for m, active in enumerate(flags):
            if active and m * HOP < total:
                frame_end = min(m * HOP + FRAME_LEN, total)
                assert any(start <= m * HOP and frame_end <= end for start, end in segs)
        assert segments_from_flags([False] * len(flags), total) == []


class TestDetectionQuality:
    def test_hit_and_false_alarm_rates_on_bursty_speech(self):
        # speech bursts in stationary noise at ~10 dB segmental SNR,
        # statistics taken from the enhancement pipeline itself
        speech = speech_like(8.0, seed=31, rms=0.1, bursts=True)
        noise = stationary_noise(8.0, seed=32, rms=0.1 * 10 ** (-10 / 20))
        mic = AudioBuffer(speech + noise, FS)
        ref = AudioBuffer(np.zeros(8 * FS), FS)
        result = process_stream(mic, ref, collect_diagnostics=True)
        stats = result.diagnostics.vad_statistic

        hop, frame_len = 256, 512
        n_frames = len(stats)
        frame_energy = np.array([
            np.sum(speech[m * hop : m * hop + frame_len] ** 2)
            for m in range(n_frames)])
        labels = frame_energy > 0.01 * np.max(frame_energy)

        half = n_frames // 2
        best_eta, best_acc = None, -1.0
        for eta in np.quantile(stats[:half], np.linspace(0.05, 0.95, 37)):
            pred = stats[:half] > eta
            hit = np.mean(pred[labels[:half]]) if labels[:half].any() else 0
            fa = np.mean(pred[~labels[:half]]) if (~labels[:half]).any() else 1
            acc = hit + (1 - fa)
            if acc > best_acc:
                best_acc, best_eta = acc, eta
        pred = stats[half:] > best_eta
        held_labels = labels[half:]
        hit_rate = np.mean(pred[held_labels])
        false_alarm = np.mean(pred[~held_labels])
        assert hit_rate >= 0.9
        assert false_alarm <= 0.1
