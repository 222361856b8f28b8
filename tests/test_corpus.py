import os
import re
import threading
from dataclasses import asdict

import numpy as np
import pytest
from scipy.signal import welch

from echoforge import audio, corpus
from echoforge.audio import AudioBuffer, read_wav, write_wav
from echoforge.corpus import (CorpusSpec, MixtureRecipe, gain_for_ser,
                              generate_corpus, make_default_irs,
                              measured_ser_db, measured_snr_db, mix_item,
                              normalize_ir, pink_noise, read_manifest)
from echoforge.errors import ConfigError, InputError
from conftest import make_corpus_spec, music_like, speech_like, stationary_noise

FS = 16000


class TestNormalizeIr:
    def test_unit_impulse_unchanged(self):
        ir = np.zeros(64)
        ir[0] = 1.0
        out = normalize_ir(AudioBuffer(ir, FS))
        assert np.allclose(out.samples, ir)

    def test_three_four_five(self):
        out = normalize_ir(AudioBuffer(np.array([3.0, 4.0]), FS))
        assert np.allclose(out.samples, [0.6, 0.8])

    def test_random_ir_unit_energy(self):
        rng = np.random.default_rng(0)
        out = normalize_ir(AudioBuffer(rng.standard_normal(1024), FS))
        assert out.energy() == pytest.approx(1.0, abs=1e-9)

    def test_zero_ir_rejected(self):
        with pytest.raises(InputError):
            normalize_ir(AudioBuffer(np.zeros(16), FS))


class TestGains:
    def test_equal_energy_minus20db_gives_ten(self):
        rng = np.random.default_rng(1)
        s = AudioBuffer(rng.standard_normal(1000), FS)
        d = AudioBuffer(np.roll(s.samples, 7), FS)  # same energy
        sigma = gain_for_ser(s.energy(), d.energy(), -20.0)
        assert sigma == pytest.approx(10.0, rel=1e-9)

    def test_zero_db_identity_point(self):
        rng = np.random.default_rng(2)
        s = AudioBuffer(rng.standard_normal(1000), FS)
        d = AudioBuffer(np.roll(s.samples, 3), FS)
        assert gain_for_ser(s.energy(), d.energy(), 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_amplitude_homogeneity(self):
        rng = np.random.default_rng(3)
        s = AudioBuffer(rng.standard_normal(1000), FS)
        d = AudioBuffer(rng.standard_normal(1000), FS)
        assert gain_for_ser(AudioBuffer(2 * s.samples, FS).energy(), d.energy(), -12.0) == \
            pytest.approx(2 * gain_for_ser(s.energy(), d.energy(), -12.0), rel=1e-9)

    def test_realized_ratio_matches_request(self):
        rng = np.random.default_rng(4)
        s = AudioBuffer(rng.standard_normal(4000) * 0.3, FS)
        d = AudioBuffer(rng.standard_normal(4000) * 1.7, FS)
        for target in (-15.0, -3.0, 6.0):
            sigma = gain_for_ser(s.energy(), d.energy(), target)
            realized = 10 * np.log10(s.energy() / (sigma**2 * d.energy()))
            assert realized == pytest.approx(target, abs=1e-9)

    def test_silent_inputs_rejected(self):
        s = AudioBuffer(np.ones(10), FS)
        with pytest.raises(InputError):
            gain_for_ser(s.energy(), 0.0, 0.0)
        with pytest.raises(InputError):
            gain_for_ser(0.0, s.energy(), 0.0)


class TestPinkNoise:
    def test_spectral_slope_near_minus3db_per_octave(self):
        rng = np.random.default_rng(5)
        x = pink_noise(30 * FS, rng)
        freqs, psd = welch(x, fs=FS, nperseg=4096)
        band = (freqs >= 100) & (freqs <= 6000)
        octaves = np.log2(freqs[band] / 100.0)
        level_db = 10 * np.log10(psd[band])
        slope = np.polyfit(octaves, level_db, 1)[0]
        assert slope == pytest.approx(-3.0, abs=1.0)


class TestMixing:
    def test_degenerate_mixture_is_pure_speech(self, corpus_sources):
        irs = make_default_irs()
        recipe = MixtureRecipe(
            item_id="x", speech_path=corpus_sources["speech"][0],
            music_path=corpus_sources["music"][0], music_offset=0,
            noise_type="babble", noise_path=corpus_sources["noise"][0],
            noise_offset=0, ir_index_speech=0, ir_index_music=1,
            ser_db=0.0, snr_db=0.0, sigma1=0.0, sigma2=0.0, sigma3=0.0, seed=7)
        result = mix_item(recipe, irs)
        assert np.array_equal(result.mix.samples, result.speech_reverb.samples)

    def test_missing_file_names_path(self, corpus_sources):
        irs = make_default_irs()
        recipe = MixtureRecipe(
            item_id="x", speech_path="/nonexistent/sp.wav",
            music_path=corpus_sources["music"][0], music_offset=0,
            noise_type="babble", noise_path=corpus_sources["noise"][0],
            noise_offset=0, ir_index_speech=0, ir_index_music=0,
            ser_db=0.0, snr_db=0.0, sigma1=0.0, sigma2=0.0, sigma3=0.0, seed=7)
        with pytest.raises(FileNotFoundError, match="/nonexistent/sp.wav"):
            mix_item(recipe, irs)

    @pytest.mark.parametrize("field", ["music_offset", "noise_offset"])
    def test_excerpt_past_end_names_path(self, corpus_sources, field):
        irs = make_default_irs()
        recipe = MixtureRecipe(
            item_id="x", speech_path=corpus_sources["speech"][0],
            music_path=corpus_sources["music"][0], music_offset=0,
            noise_type="babble", noise_path=corpus_sources["noise"][0],
            noise_offset=0, ir_index_speech=0, ir_index_music=0,
            ser_db=0.0, snr_db=0.0, sigma1=1.0, sigma2=1.0, sigma3=0.0, seed=7)
        # the 2 s speech item cannot start 11 s into a 12 s source
        recipe = MixtureRecipe(**{**asdict(recipe), field: 11 * FS})
        path = recipe.music_path if field == "music_offset" else recipe.noise_path
        with pytest.raises(InputError, match=re.escape(path)):
            mix_item(recipe, irs)

    def test_rerun_is_bit_identical(self, corpus_sources):
        irs = make_default_irs()
        recipe = MixtureRecipe(
            item_id="x", speech_path=corpus_sources["speech"][1],
            music_path=corpus_sources["music"][0], music_offset=123,
            noise_type="babble", noise_path=corpus_sources["noise"][1],
            noise_offset=55, ir_index_speech=2, ir_index_music=3,
            ser_db=-12.0, snr_db=5.0, sigma1=3.3, sigma2=0.4, sigma3=0.1,
            seed=99)
        a = mix_item(recipe, irs)
        b = mix_item(recipe, irs)
        assert np.array_equal(a.mix.samples, b.mix.samples)


@pytest.fixture()
def decoded(monkeypatch):
    """The length of every span of samples the WAV decoder converts."""
    lengths = []
    decode = audio._decode

    def counting(path, data, sample_rate):
        lengths.append(len(data))
        return decode(path, data, sample_rate)

    monkeypatch.setattr(audio, "_decode", counting)
    return lengths


class TestGeneration:
    def test_recipes_realize_requested_ratios(self, corpus_sources, tmp_path):
        spec = make_corpus_spec(corpus_sources)
        recipes = generate_corpus(spec, 6, tmp_path / "corpus")
        irs = make_default_irs()
        for recipe in recipes:
            result = mix_item(recipe, irs)
            assert abs(measured_ser_db(result, recipe) - recipe.ser_db) < 0.01
            assert abs(measured_snr_db(result, recipe) - recipe.snr_db) < 0.01

    def test_bit_identical_regeneration(self, corpus_sources, tmp_path):
        spec = make_corpus_spec(corpus_sources)
        generate_corpus(spec, 3, tmp_path / "a")
        generate_corpus(spec, 3, tmp_path / "b")
        for name in sorted(os.listdir(tmp_path / "a")):
            with open(tmp_path / "a" / name, "rb") as fa, \
                 open(tmp_path / "b" / name, "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_written_mix_equals_mix_item(self, corpus_sources, tmp_path):
        spec = make_corpus_spec(corpus_sources)
        recipes = generate_corpus(spec, 3, tmp_path / "c")
        irs = make_default_irs()
        for recipe in recipes:
            on_disk = read_wav(tmp_path / "c" / f"{recipe.item_id}.mix.wav").samples
            rebuilt = mix_item(recipe, irs).mix.samples.astype(np.float32)
            assert np.array_equal(on_disk, rebuilt), recipe.item_id

    def test_same_bytes_for_any_core_count(self, corpus_sources, tmp_path, monkeypatch):
        spec = make_corpus_spec(corpus_sources)
        contents = {}
        for cores in (1, 2, 4):
            monkeypatch.setattr(corpus, "usable_cores", lambda: cores)
            out = tmp_path / f"cores{cores}"
            generate_corpus(spec, 7, out)
            contents[cores] = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert len(contents[1]) == 4 * 7 + 1
        assert contents[2] == contents[1]
        assert contents[4] == contents[1]

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_no_thread_outlives_the_call(self, corpus_sources, tmp_path, monkeypatch, fails):
        draw = corpus._draw_recipe
        alive = []

        def watched(spec, index, *args):
            alive.append(len(threading.enumerate()))
            if fails and index == 1:
                raise InputError("item 1 fails")
            return draw(spec, index, *args)

        monkeypatch.setattr(corpus, "usable_cores", lambda: 4)
        monkeypatch.setattr(corpus, "_draw_recipe", watched)
        before = threading.enumerate()
        for n_items in (7, 2):
            alive.clear()
            if fails:
                with pytest.raises(InputError, match="item 1 fails"):
                    generate_corpus(make_corpus_spec(corpus_sources), n_items, tmp_path / "c")
            else:
                generate_corpus(make_corpus_spec(corpus_sources), n_items, tmp_path / "c")
            assert threading.enumerate() == before
            # the calling thread and one helper per further core, at most one per item
            assert max(alive) <= len(before) + min(4, n_items) - 1

    def test_each_item_read_and_convolved_once(self, corpus_sources, tmp_path,
                                               monkeypatch, decoded):
        calls = {"read": 0, "open": 0, "convolve": 0}
        lock = threading.Lock()  # items run on several threads

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                with lock:
                    calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(corpus, "read_wav", counted("read", corpus.read_wav))
        monkeypatch.setattr(corpus, "open_wav", counted("open", corpus.open_wav))
        monkeypatch.setattr(corpus, "fftconvolve",
                            counted("convolve", corpus.fftconvolve))
        n_items = 4
        generate_corpus(make_corpus_spec(corpus_sources), n_items, tmp_path / "c")
        # per item: the speech file read whole, music and noise each opened
        # once and decoded over the item's span only; speech and music
        # convolved once each
        assert calls == {"read": n_items, "open": 2 * n_items, "convolve": 2 * n_items}
        assert decoded == [2 * FS] * (3 * n_items)

    def test_decoded_samples_do_not_grow_with_source_length(self, tmp_path, decoded):
        item = FS // 4
        paths = {}
        for name, samples in (("speech", speech_like(0.25, seed=60)),
                              ("music", music_like(50 * 0.25, seed=61)),
                              ("noise", stationary_noise(50 * 0.25, seed=62))):
            paths[name] = str(tmp_path / f"{name}.wav")
            write_wav(paths[name], AudioBuffer(samples, FS))
        spec = CorpusSpec(speech_files=(paths["speech"],), music_files=(paths["music"],),
                          noise_files={"babble": (paths["noise"],)}, master_seed=9)
        n_items = 3
        recipes = generate_corpus(spec, n_items, tmp_path / "c")
        assert sum(decoded) <= 3 * item * n_items
        decoded.clear()
        mix_item(recipes[-1], make_default_irs())
        assert sum(decoded) <= 3 * item

    def test_zero_items_empty_manifest(self, corpus_sources, tmp_path):
        spec = make_corpus_spec(corpus_sources)
        recipes = generate_corpus(spec, 0, tmp_path / "empty")
        assert recipes == []
        manifest = read_manifest(tmp_path / "empty" / "manifest.json")
        assert manifest["items"] == []

    def test_negative_count_rejected(self, corpus_sources, tmp_path):
        with pytest.raises(ConfigError, match="count"):
            generate_corpus(make_corpus_spec(corpus_sources), -3, tmp_path / "neg")
        assert not (tmp_path / "neg").exists()

    def test_point_range_collapses_draws(self, corpus_sources, tmp_path):
        spec = make_corpus_spec(corpus_sources, ser_range_db=(-12.0, -12.0))
        recipes = generate_corpus(spec, 4, tmp_path / "point")
        assert all(r.ser_db == -12.0 for r in recipes)

    def test_manifest_lists_all_files(self, corpus_sources, tmp_path):
        spec = make_corpus_spec(corpus_sources)
        generate_corpus(spec, 2, tmp_path / "m")
        manifest = read_manifest(tmp_path / "m" / "manifest.json")
        for entry in manifest["items"]:
            for key in ("mix", "speech", "speech_dry", "reference"):
                assert os.path.exists(tmp_path / "m" / entry["files"][key])

    def test_insufficient_material_rejected(self, tmp_path):
        short = tmp_path / "short.wav"
        long_speech = tmp_path / "long_speech.wav"
        write_wav(short, AudioBuffer(speech_like(0.5, seed=40), FS))
        write_wav(long_speech, AudioBuffer(speech_like(2.0, seed=41), FS))
        spec = CorpusSpec(
            speech_files=(str(long_speech),),
            music_files=(str(short),),
            noise_files={"babble": (str(short),)},
            master_seed=1)
        with pytest.raises(InputError, match="shorter than speech"):
            generate_corpus(spec, 1, tmp_path / "bad")

    def test_ir_at_another_rate_rejected(self, corpus_sources, tmp_path):
        ir = np.zeros(64)
        ir[0] = 1.0
        for fs in (16000, 8000, 48000):
            write_wav(tmp_path / f"ir{fs}.wav", AudioBuffer(ir, fs))
        for other in ("ir8000.wav", "ir48000.wav"):
            spec = make_corpus_spec(corpus_sources, ir_files=("ir16000.wav", other))
            with pytest.raises(InputError, match=other):
                generate_corpus(spec, 4, tmp_path / "out", base_dir=str(tmp_path))
        # with every response at 16 kHz the same spec is accepted
        spec = make_corpus_spec(corpus_sources, ir_files=("ir16000.wav",))
        generate_corpus(spec, 2, tmp_path / "ok", base_dir=str(tmp_path))
        assert read_manifest(tmp_path / "ok" / "manifest.json")["sample_rate"] == FS

    def test_empty_ir_list_rejected(self):
        with pytest.raises(ConfigError, match="empty impulse-response list"):
            corpus.load_irs([])

    def test_unknown_noise_type_rejected(self, corpus_sources):
        with pytest.raises(ConfigError, match="traffic"):
            make_corpus_spec(corpus_sources,
                             noise_files={"traffic": tuple(corpus_sources["noise"])})

    def test_spec_validation(self, corpus_sources):
        for empty, what in (({"speech_files": ()}, "speech"), ({"music_files": ()}, "music"),
                            ({"noise_files": {}}, "background noise"),
                            ({"noise_files": {"babble": ()}}, "background noise")):
            with pytest.raises(ConfigError, match=f"at least one {what} file"):
                make_corpus_spec(corpus_sources, **empty)
        with pytest.raises(ConfigError):
            make_corpus_spec(corpus_sources, ser_range_db=(-5.0, -10.0))
        with pytest.raises(ConfigError):
            make_corpus_spec(corpus_sources, sigma3=-0.1)
        nan, inf = float("nan"), float("inf")
        for bad in ({"ser_range_db": (nan, -10.0)}, {"ser_range_db": (-15.0, nan)},
                    {"snr_range_db": (-10.0, inf)}, {"snr_range_db": (-inf, 10.0)},
                    {"sigma3": nan}, {"sigma3": inf}, {"master_seed": -1}):
            with pytest.raises(ConfigError):
                make_corpus_spec(corpus_sources, **bad)
        # one path where a sequence of paths belongs would be read a character at a time
        path = corpus_sources["speech"][0]
        for field, bad in (("speech_files", {"speech_files": path}),
                           ("music_files", {"music_files": path.encode()}),
                           ("ir_files", {"ir_files": path}),
                           ("noise_files['babble']", {"noise_files": {"babble": path}})):
            with pytest.raises(ConfigError, match=re.escape(field)):
                make_corpus_spec(corpus_sources, **bad)

    def test_uniformity_of_draws(self, tmp_path):
        # short sources keep a thousand draws cheap
        from echoforge.corpus import _draw_recipe

        paths = {"speech": [], "music": [], "noise": []}
        for i in range(2):
            p = tmp_path / f"sp{i}.wav"
            write_wav(p, AudioBuffer(speech_like(0.2, seed=50 + i), FS))
            paths["speech"].append(str(p))
        for i in range(1):
            p = tmp_path / f"mu{i}.wav"
            write_wav(p, AudioBuffer(speech_like(1.0, seed=60 + i), FS))
            paths["music"].append(str(p))
            q = tmp_path / f"no{i}.wav"
            write_wav(q, AudioBuffer(speech_like(1.0, seed=70 + i), FS))
            paths["noise"].append(str(q))
        spec = make_corpus_spec(paths, ser_range_db=(-15.0, -10.0))
        irs = make_default_irs(length=256)
        sers = np.array([
            _draw_recipe(spec, i, irs, ".")[0].ser_db for i in range(1000)])
        uniform = (sers - (-15.0)) / 5.0
        sorted_u = np.sort(uniform)
        n = len(sorted_u)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(grid - sorted_u)),
                 np.max(np.abs(sorted_u - (grid - 1 / n))))
        critical_1pct = 1.6276 / np.sqrt(n)
        assert ks < critical_1pct
