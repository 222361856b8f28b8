import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoforge.dtp import COHERENCE_EPS, DtpEstimator, DtpParams
from echoforge.errors import ConfigError
from echoforge.stft import N_BINS, POWER_FLOOR


def _band_params(**kw):
    return DtpParams(**kw)


def _complex_noise(rng, n=N_BINS):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _step(est, d, y):
    """One frame pair through the estimator, as a one-frame chunk."""
    return est.process(d[None], y[None])[0]


class PlainDtp:
    """Reference formulation: every bin's PSDs smoothed frame by frame, the
    coherence over all bins and then banded, and the comparator thresholds
    and debounce length worked out anew per frame. DtpEstimator must match
    it bit for bit."""

    def __init__(self, params: DtpParams):
        self.params = params
        self.p_dt = 0.5
        self.psd_dd = np.zeros(N_BINS)
        self.psd_yy = np.zeros(N_BINS)
        self.psd_dy = np.zeros(N_BINS, dtype=complex)
        self._hysteresis = False
        self._pending = 0

    def update(self, d, y):
        p = self.params
        a = p.alpha
        self.psd_dd = a * self.psd_dd + (1 - a) * np.abs(d) ** 2
        self.psd_yy = a * self.psd_yy + (1 - a) * np.abs(y) ** 2
        self.psd_dy = a * self.psd_dy + (1 - a) * d * np.conj(y)

        band = slice(p.k_begin, p.k_end + 1)
        if (np.mean(self.psd_dd[band]) < POWER_FLOOR
                and np.mean(self.psd_yy[band]) < POWER_FLOOR):
            return self.p_dt

        coherence = np.abs(self.psd_dy) ** 2 / (
            self.psd_dd * self.psd_yy + COHERENCE_EPS)
        mean_coh = float(np.mean(coherence[band]))

        likelihood = 1.0 - min(max(mean_coh, 0.0), 1.0)
        enter = min(p.b01, 1.0 - p.b10)
        leave = max(p.b01, 1.0 - p.b10)
        crossing = mean_coh > leave if self._hysteresis else mean_coh < enter
        self._pending = self._pending + 1 if crossing else 0
        if self._pending >= p.debounce_frames():
            self._hysteresis = not self._hysteresis
            self._pending = 0
        if self._hysteresis:
            likelihood = 1.0

        prior = self.p_dt * (1.0 - p.a10) + (1.0 - self.p_dt) * p.a01
        num = prior * likelihood
        den = num + (1.0 - prior) * (1.0 - likelihood)
        posterior = num / den if den > 0 else prior

        self.p_dt = p.beta * self.p_dt + (1 - p.beta) * posterior
        self.p_dt = min(max(self.p_dt, 0.0), 1.0)
        return self.p_dt


class TestBasics:
    def test_initial_probability_is_half(self):
        est = DtpEstimator(_band_params())
        assert est.p_dt == 0.5

    def test_echo_only_drives_probability_down(self):
        rng = np.random.default_rng(0)
        est = DtpEstimator(_band_params())
        for _ in range(50):
            d = _complex_noise(rng)
            _step(est, d, d)
        assert est.p_dt < 0.1

    def test_independent_signals_drive_probability_up(self):
        rng = np.random.default_rng(1)
        est = DtpEstimator(_band_params())
        for _ in range(50):
            _step(est, _complex_noise(rng), _complex_noise(rng))
        assert est.p_dt > 0.9

    def test_silence_holds_probability(self):
        est = DtpEstimator(_band_params())
        before = est.p_dt
        for _ in range(20):
            p = _step(est, np.zeros(N_BINS, complex), np.zeros(N_BINS, complex))
        assert p == before

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            DtpParams(a01=1.5)
        with pytest.raises(ConfigError):
            DtpParams(k_begin=50, k_end=40)
        with pytest.raises(ConfigError):
            DtpParams(tau=0.0)
        with pytest.raises(ConfigError):
            DtpParams(k_end=400)
        with pytest.raises(ConfigError):
            DtpParams(k_end=N_BINS)
        assert DtpParams(k_end=N_BINS - 1).k_end == N_BINS - 1


class TestInvariants:
    def test_probability_stays_in_unit_interval(self):
        rng = np.random.default_rng(2)
        est = DtpEstimator(_band_params())
        for i in range(300):
            scale = 10.0 ** rng.integers(-8, 6)
            d = _complex_noise(rng) * scale
            y = _complex_noise(rng) * scale if i % 3 else d
            p = _step(est, d, y)
            assert 0.0 <= p <= 1.0

    def test_single_step_monotone_in_coherence(self):
        # identical mid-stream states; mixing more independent signal into y
        # lowers the measured coherence and must not lower the update
        rng = np.random.default_rng(3)
        base = DtpEstimator(_band_params())
        for _ in range(30):
            d = _complex_noise(rng)
            _step(base, d, d + 0.5 * _complex_noise(rng))
        d_next = _complex_noise(rng)
        indep = _complex_noise(rng)
        results = []
        for mix in (0.0, 0.3, 1.0, 3.0, 10.0):
            est = copy.deepcopy(base)
            p = _step(est, d_next, d_next + mix * indep)
            # the estimator keeps the PSDs of the coherence band only
            coherence = np.abs(est.psd_dy) ** 2 / (
                est.psd_dd * est.psd_yy + COHERENCE_EPS)
            results.append((float(np.mean(coherence)), p))
        results.sort(key=lambda t: t[0])  # ascending coherence
        probs = [p for _, p in results]
        assert all(probs[i] >= probs[i + 1] - 1e-12 for i in range(len(probs) - 1))

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        frames = [( _complex_noise(rng), _complex_noise(rng)) for _ in range(80)]
        est_a = DtpEstimator(_band_params())
        est_b = DtpEstimator(_band_params())
        c = 37.5
        for d, y in frames:
            p_a = _step(est_a, d, y)
            p_b = _step(est_b, c * d, c * y)
        assert p_a == pytest.approx(p_b, rel=1e-9)


FRAME_KINDS = ("echo", "double_talk", "independent", "silent", "tiny")


def _frame_pair(rng, kind):
    """One (d, y) frame pair; "tiny" frames fall under POWER_FLOOR."""
    d = _complex_noise(rng)
    if kind == "echo":
        return d, d
    if kind == "double_talk":
        return d, d + _complex_noise(rng)
    if kind == "independent":
        return d, _complex_noise(rng)
    if kind == "silent":
        return np.zeros(N_BINS, complex), np.zeros(N_BINS, complex)
    return 1e-8 * d, 1e-8 * _complex_noise(rng)


dtp_params = st.builds(
    DtpParams,
    a01=st.floats(1e-4, 0.5), a10=st.floats(1e-4, 0.5),
    b01=st.floats(0.0, 1.0), b10=st.floats(0.0, 1.0),
    alpha=st.floats(0.0, 0.995), beta=st.floats(0.0, 0.99),
    k_begin=st.integers(0, 64), k_end=st.integers(65, N_BINS - 1),
    tau=st.floats(0.01, 0.2))


class TestChunkedProcess:
    @given(params=dtp_params,
           kinds=st.lists(st.sampled_from(FRAME_KINDS), min_size=1, max_size=60),
           chunks=st.lists(st.integers(1, 40), min_size=1, max_size=8),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_chunk_splits_match_plain_dtp(self, params, kinds, chunks, seed):
        # Chunk sizes cycle through `chunks`; every frame's probability and
        # the band PSDs after each chunk must equal the per-frame reference.
        rng = np.random.default_rng(seed)
        pairs = [_frame_pair(rng, kind) for kind in kinds]
        d = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        est = DtpEstimator(params)
        ref = PlainDtp(params)
        band = slice(params.k_begin, params.k_end + 1)
        start, i = 0, 0
        while start < len(kinds):
            stop = min(start + chunks[i % len(chunks)], len(kinds))
            got = est.process(d[start:stop], y[start:stop])
            assert got == [ref.update(d[m], y[m]) for m in range(start, stop)]
            assert np.array_equal(est.psd_dd, ref.psd_dd[band])
            assert np.array_equal(est.psd_yy, ref.psd_yy[band])
            assert np.array_equal(est.psd_dy, ref.psd_dy[band])
            start, i = stop, i + 1
