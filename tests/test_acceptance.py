"""End-to-end acceptance gate.

Each test covers one numbered criterion at its stated tolerance and
prints a PASS line (visible with `pytest -s tests/test_acceptance.py`
or in the captured output on failure). Everything runs on synthetic
material generated in-process; no external data.
"""

import os
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import lfilter

from echoforge.audio import AudioBuffer, write_wav
from echoforge.corpus import (generate_corpus, make_default_irs,
                              measured_ser_db, measured_snr_db, mix_item,
                              read_manifest)
from echoforge.dtp import DtpEstimator, DtpParams
from echoforge.params import default_params
from echoforge.pipeline import process_stream
from echoforge.raec import Raec, RaecParams, cascade_run, run_blocks
from echoforge.rpe import combine_residual_power
from echoforge.stft import FRAME_LEN, HOP, analyze, synthesize
from echoforge.suppressor import SuppressorParams, lsa_gain, mask_gain
from echoforge.tuner import (GaConfig, default_bounds, ga_run,
                             load_corpus_items, signal_fidelity_objective)
from echoforge.vad import vad_statistic
from conftest import (make_corpus_spec, music_like, speech_like,
                      stationary_noise)

FS = 16000


def _report(n, text):
    print(f"ACCEPTANCE {n:02d}: {text} ... PASS")


def _auc(scores, labels):
    order = np.argsort(scores)
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    n1 = int(labels.sum())
    n0 = len(labels) - n1
    return (ranks[labels].sum() - n1 * (n1 + 1) / 2) / (n1 * n0)


@pytest.fixture(scope="module")
def acceptance_corpus(tmp_path_factory):
    """10 items at SER exactly -15 dB, plus the smoke material."""
    root = tmp_path_factory.mktemp("acceptance")
    paths = {"speech": [], "music": [], "noise": []}
    for i in range(4):
        p = root / f"sp{i}.wav"
        write_wav(p, AudioBuffer(speech_like(2.0, seed=800 + i, rms=0.05)))
        paths["speech"].append(str(p))
    for i in range(2):
        p = root / f"mu{i}.wav"
        write_wav(p, AudioBuffer(music_like(12.0, seed=810 + i)))
        paths["music"].append(str(p))
        q = root / f"no{i}.wav"
        write_wav(q, AudioBuffer(stationary_noise(12.0, seed=820 + i)))
        paths["noise"].append(str(q))
    fixed = root / "fixed_ser"
    generate_corpus(make_corpus_spec(paths, ser_range_db=(-15.0, -15.0),
                                     snr_range_db=(0.0, 10.0),
                                     master_seed=1234), 10, fixed)
    smoke = root / "smoke"
    generate_corpus(make_corpus_spec(paths, ser_range_db=(-15.0, -10.0),
                                     snr_range_db=(0.0, 10.0),
                                     master_seed=99), 10, smoke)
    return {"paths": paths, "fixed": fixed, "smoke": smoke}


def test_01_stft_round_trip():
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = 5 * FS + int(rng.integers(0, 511))
        x = rng.uniform(-1, 1, n)
        out = synthesize(analyze(AudioBuffer(x, FS)), length=n)
        worst = max(worst, float(np.max(np.abs(out.samples - x))))
    elapsed = time.time() - start
    assert worst <= 1e-6
    assert elapsed < 10.0
    _report(1, f"STFT round-trip worst {worst:.2e} <= 1e-6 on 100 buffers "
               f"in {elapsed:.1f}s")


def test_02_raec_convergence():
    start = time.time()
    rng = np.random.default_rng(7)
    g = rng.standard_normal(256)
    g /= np.sqrt(np.sum(g**2))
    x = rng.standard_normal(10 * FS) * 0.1
    y = np.convolve(x, g)[: len(x)]
    e1 = run_blocks(Raec(RaecParams()), x, y)
    erle_single = 10 * np.log10(np.sum(y[-FS:] ** 2) / np.sum(e1[-FS:] ** 2))
    e2 = cascade_run(x, y, RaecParams(), RaecParams(partitions=4))
    erle_cascade = 10 * np.log10(np.sum(y[-FS:] ** 2) / np.sum(e2[-FS:] ** 2))
    elapsed = time.time() - start
    assert erle_single >= 20.0
    assert erle_cascade >= erle_single
    assert elapsed < 30.0
    _report(2, f"ERLE single {erle_single:.1f} dB, cascade {erle_cascade:.1f} dB "
               f"in {elapsed:.1f}s")


def test_03_double_talk_robustness():
    rng = np.random.default_rng(3)
    g = rng.standard_normal(256)
    g /= np.sqrt(np.sum(g**2))
    dur = 12
    x = rng.standard_normal(dur * FS) * 0.1
    echo = np.convolve(x, g)[: len(x)]
    noise = rng.standard_normal(dur * FS) * np.sqrt(0.01 * 10 ** (-3.5))
    burst = np.zeros(dur * FS)
    burst[6 * FS : 8 * FS] = rng.standard_normal(2 * FS) * np.sqrt(0.001)
    y = echo + noise + burst

    # the cascade driven block by block, to read its response after each block
    stage1, stage2 = Raec(RaecParams()), Raec(RaecParams(partitions=4))
    n = 256
    misalign = []
    for b in range(len(x) // n):
        sl = slice(b * n, (b + 1) * n)
        stage2.process(x[sl], stage1.process(x[sl], y[sl]))
        # both stages filter the same reference, so their responses add
        r1, r2 = stage1.equivalent_response(), stage2.equivalent_response()
        err = np.zeros(max(len(r1), len(r2)))
        err[: len(r1)] += r1
        err[: len(r2)] += r2
        err[:256] -= g
        misalign.append(10 * np.log10(np.sum(err**2) / np.sum(g**2)))
    misalign = np.array(misalign)
    per_sec = FS // n
    pre = misalign[int(5.5 * per_sec) : 6 * per_sec].mean()
    worst = misalign[6 * per_sec : 8 * per_sec].max()
    after_2s = misalign[int(9.9 * per_sec) : 10 * per_sec].mean()
    assert worst - pre < 6.0
    assert after_2s <= pre + 1.0
    _report(3, f"misalignment pre {pre:.1f} dB, burst degradation "
               f"{worst - pre:+.1f} dB, re-converged to {after_2s:.1f} dB")


def test_04_dtp_discrimination():
    rng = np.random.default_rng(77)
    dur = 16.0
    n = int(dur * FS)
    echo = lfilter([1.0], [1.0, -0.7], rng.standard_normal(n)) * 0.1
    speech = lfilter([1.0], [1.0, -0.9], rng.standard_normal(n))
    speech *= np.sqrt(np.mean(echo**2) * 10 ** (-1.5) / np.mean(speech**2))
    gate = np.zeros(n, dtype=bool)
    for k in range(4):
        gate[(4 * k + 2) * FS : (4 * k + 4) * FS] = True
    mic = echo + np.where(gate, speech, 0.0)

    spec_d = analyze(AudioBuffer(echo, FS))
    spec_y = analyze(AudioBuffer(mic, FS))
    est = DtpEstimator(DtpParams())
    scores = np.array(est.process(spec_d, spec_y))
    labels = np.array([
        gate[m * HOP : m * HOP + FRAME_LEN].mean() > 0.5
        for m in range(spec_d.shape[0])])
    auc = _auc(scores, labels)
    assert auc >= 0.9
    _report(4, f"double-talk AUC {auc:.3f} on alternating SER -15 dB sequence")


def test_05_residual_blend_endpoints():
    rng = np.random.default_rng(5)
    high = rng.uniform(0, 3, 257)
    low = rng.uniform(0, 3, 257)
    assert np.array_equal(combine_residual_power(high, low, 0.0), high)
    assert np.array_equal(combine_residual_power(high, low, 1.0), low)
    mid = combine_residual_power(high, low, 0.5)
    expected = (high + low) / 2
    assert np.all(np.abs(mid - expected) <= 1e-12 * np.maximum(expected, 1.0))
    _report(5, "residual power blend endpoints bit-exact, midpoint within 1e-12")


def test_06_lsa_gain_oracle():
    xi = np.logspace(-2, 2, 20)
    gamma = np.logspace(-2, 2, 20)
    xx, gg = np.meshgrid(xi, gamma)
    got = lsa_gain(xx.ravel(), gg.ravel())
    v = np.maximum(xx.ravel() / (1 + xx.ravel()) * gg.ravel(), 1e-10)
    e1 = np.array([quad(lambda t: np.exp(-t) / t, vi, np.inf, limit=500)[0]
                   for vi in v])
    expected = xx.ravel() / (1 + xx.ravel()) * np.exp(0.5 * e1)
    worst = float(np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1.0)))
    assert np.allclose(got, expected, atol=1e-6, rtol=1e-6)
    spot = lsa_gain(np.array([1.0]), np.array([1.0]))[0]
    assert spot == pytest.approx(0.6615, abs=1e-3)
    _report(6, f"gain matches quadrature (worst {worst:.1e}), G(1,1)={spot:.4f}")


def test_07_mask_branches():
    rng = np.random.default_rng(6)
    params = SuppressorParams()
    xi = 10 ** rng.uniform(-3, 3, 100_000)
    g = rng.uniform(0.0, 1.0, 100_000)
    zeta = mask_gain(xi, g, params)
    low = (1 - params.g_min) * g + params.g_min
    expected = np.where(xi <= params.theta1, low,
                        np.where(xi >= params.theta2,
                                 (2 + params.mask_alpha) / 2,
                                 params.mask_alpha / 2))
    assert np.array_equal(zeta, expected)
    boundary = mask_gain(np.array([params.theta1, params.theta2]),
                         np.array([0.4, 0.4]), params)
    assert boundary[0] == (1 - params.g_min) * 0.4 + params.g_min
    assert boundary[1] == (2 + params.mask_alpha) / 2
    _report(7, "mask takes exactly the three branch values on 1e5 samples, "
               "boundaries as printed")


def test_08_npe_tracking():
    from echoforge.npe import NoisePowerEstimator, NpeParams

    rng = np.random.default_rng(1)
    noise = rng.standard_normal(5 * FS) * 0.1
    frames = analyze(AudioBuffer(noise, FS))
    est = NoisePowerEstimator(NpeParams())
    tracked = est.update(np.abs(frames) ** 2)[-1]
    welch = np.mean(np.abs(frames[50:]) ** 2, axis=0)
    white_bias = float(np.mean(10 * np.log10(tracked / welch)))
    assert abs(white_bias) <= 2.0

    speech = speech_like(6.0, seed=3, rms=0.1, bursts=True)
    noise2 = rng.standard_normal(6 * FS)
    noise2 *= 0.1 * 10 ** (-5 / 20) / np.sqrt(np.mean(noise2**2))
    noisy = analyze(AudioBuffer(speech + noise2, FS))
    clean_noise = analyze(AudioBuffer(noise2, FS))
    est = NoisePowerEstimator(NpeParams())
    tracked = est.update(np.abs(noisy) ** 2)[-1]
    true_noise = np.mean(np.abs(clean_noise[50:]) ** 2, axis=0)
    frac_ok = float(np.mean(10 * np.log10(tracked / true_noise) < 3.0))
    assert frac_ok >= 0.8
    _report(8, f"noise tracking: white bias {white_bias:+.2f} dB, "
               f"speech+noise overestimate <3 dB on {100 * frac_ok:.0f}% of bins")


def test_09_vad():
    import mpmath

    assert vad_statistic(np.zeros(64), np.linspace(0, 9, 64)) == 0.0
    mpmath.mp.dps = 40
    expected = float(mpmath.mpf(1) - mpmath.log(2))
    got = vad_statistic(np.array([1.0]), np.array([2.0]))
    assert abs(got - expected) <= 1e-12

    speech = speech_like(8.0, seed=31, rms=0.1, bursts=True)
    noise = stationary_noise(8.0, seed=32, rms=0.1 * 10 ** (-10 / 20))
    mic = AudioBuffer(speech + noise, FS)
    ref = AudioBuffer(np.zeros(8 * FS), FS)
    result = process_stream(mic, ref, collect_diagnostics=True)
    stats = result.diagnostics.vad_statistic
    hop, frame_len = 256, 512
    labels = np.array([
        np.sum(speech[m * hop : m * hop + frame_len] ** 2) for m in range(len(stats))])
    labels = labels > 0.01 * labels.max()
    half = len(stats) // 2
    candidates = np.quantile(stats[:half], np.linspace(0.05, 0.95, 37))
    best_eta = max(candidates, key=lambda eta: (
        np.mean(stats[:half][labels[:half]] > eta)
        + np.mean(stats[:half][~labels[:half]] <= eta)))
    pred = stats[half:] > best_eta
    hit = float(np.mean(pred[labels[half:]]))
    false_alarm = float(np.mean(pred[~labels[half:]]))
    assert hit >= 0.9
    assert false_alarm <= 0.1
    _report(9, f"VAD exact values ok; hit {100 * hit:.0f}%, "
               f"false alarm {100 * false_alarm:.0f}%")


def test_10_corpus_fidelity(acceptance_corpus, tmp_path):
    fixed = acceptance_corpus["fixed"]
    manifest = read_manifest(fixed / "manifest.json")
    irs = make_default_irs()
    from echoforge.corpus import MixtureRecipe

    worst = 0.0
    for entry in manifest["items"]:
        recipe = MixtureRecipe(**{k: v for k, v in entry.items() if k != "files"})
        result = mix_item(recipe, irs)
        worst = max(worst,
                    abs(measured_ser_db(result, recipe) - recipe.ser_db),
                    abs(measured_snr_db(result, recipe) - recipe.snr_db))
    assert worst < 0.01

    # uniformity of the SER draws at the 1% KS level
    from echoforge.corpus import _draw_recipe

    spec = make_corpus_spec(acceptance_corpus["paths"],
                            ser_range_db=(-15.0, -10.0), master_seed=7)
    short_irs = make_default_irs(length=256)
    sers = np.array([
        _draw_recipe(spec, i, short_irs, ".")[0].ser_db for i in range(1000)])
    uniform = np.sort((sers + 15.0) / 5.0)
    n = len(uniform)
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(grid - uniform)),
             np.max(np.abs(uniform - (grid - 1 / n))))
    assert ks < 1.6276 / np.sqrt(n)

    # bit-identical regeneration
    spec_small = make_corpus_spec(acceptance_corpus["paths"], master_seed=5)
    generate_corpus(spec_small, 2, tmp_path / "r1")
    generate_corpus(spec_small, 2, tmp_path / "r2")
    for name in sorted(os.listdir(tmp_path / "r1")):
        with open(tmp_path / "r1" / name, "rb") as fa, \
             open(tmp_path / "r2" / name, "rb") as fb:
            assert fa.read() == fb.read()
    _report(10, f"SER/SNR re-measured within {worst:.4f} dB; KS {ks:.4f} under "
                f"1% critical; regeneration bit-identical")


def test_11_genetic_tuner(acceptance_corpus):
    # elitism monotonicity across seeds on a cheap deterministic objective
    def cheap(params):
        return -sum((params[g] - 0.3) ** 2
                    for g in ("ns.g_min", "dtp.b01", "dtp.b10", "dtp.beta"))

    for seed in range(20):
        result = ga_run(GaConfig(population=12, elite=3, generations=5,
                                 seed=seed), default_bounds(), cheap)
        bests = [s.best for s in result.history]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    # sphere optimum recovery
    result = ga_run(GaConfig(population=40, elite=10, generations=10, seed=1),
                    default_bounds(), cheap)
    for gene in ("ns.g_min", "dtp.b01", "dtp.b10", "dtp.beta"):
        assert result.best_params[gene] == pytest.approx(0.3, abs=0.05)

    # the configured run: 40 candidates, 10 elites, 3 generations
    start = time.time()
    smoke = acceptance_corpus["smoke"]
    items = load_corpus_items(read_manifest(smoke / "manifest.json"), str(smoke))
    objective = signal_fidelity_objective(items)
    incumbent = default_params()
    incumbent_score = objective(incumbent)
    tuned = ga_run(GaConfig(population=40, elite=10, generations=3, seed=2),
                   default_bounds(), objective, incumbent=incumbent)
    elapsed = time.time() - start
    assert tuned.best_score > incumbent_score
    assert elapsed < 600.0
    _report(11, f"elitism monotone on 20 seeds; sphere optimum hit; tuned "
                f"{incumbent_score:.2f} -> {tuned.best_score:.2f} dB "
                f"in {elapsed:.0f}s")


def test_12_end_to_end_improvement(acceptance_corpus):
    start = time.time()
    fixed = acceptance_corpus["fixed"]
    items = load_corpus_items(read_manifest(fixed / "manifest.json"), str(fixed))
    objective = signal_fidelity_objective(items)
    improvement = objective(default_params())
    elapsed = time.time() - start
    assert improvement >= 10.0
    assert elapsed < 120.0
    _report(12, f"mean segmental SNR improvement {improvement:.1f} dB on "
                f"10 items at SER -15 dB in {elapsed:.0f}s")
