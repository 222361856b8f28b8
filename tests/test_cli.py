import argparse
import json
import os
import re
import threading

import numpy as np
import pytest
from scipy.io import wavfile

from echoforge import corpus as corpusmod
from echoforge.audio import AudioBuffer, read_wav, write_wav
from echoforge.cli import (build_parser, load_corpus_spec, load_run_config,
                           load_tune_config, main)
from echoforge.config import read_config
from echoforge.params import default_params
from echoforge.stft import N_BINS
from conftest import music_like, speech_like

FS = 16000
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture()
def wav_pair(tmp_path):
    mic = tmp_path / "mic.wav"
    ref = tmp_path / "ref.wav"
    write_wav(mic, AudioBuffer(speech_like(1.0, seed=80, rms=0.05)
                               + music_like(1.0, seed=81, rms=0.1)))
    write_wav(ref, AudioBuffer(music_like(1.0, seed=81, rms=0.1)))
    return str(mic), str(ref)


class TestEnhance:
    def test_happy_path(self, wav_pair, tmp_path):
        mic, ref = wav_pair
        out = str(tmp_path / "out.wav")
        assert main(["enhance", mic, ref, out]) == 0
        enhanced = read_wav(out)
        assert len(enhanced) == len(read_wav(mic))
        manifest = json.loads((tmp_path / "out.segments.json").read_text())
        assert "segments" in manifest

    def test_missing_reference_exits_2_naming_path(self, wav_pair, tmp_path, capsys):
        mic, _ = wav_pair
        missing = str(tmp_path / "nope.wav")
        code = main(["enhance", mic, missing, str(tmp_path / "out.wav")])
        assert code == 2
        assert "nope.wav" in capsys.readouterr().err

    def test_bad_thresholds_exit_3_naming_fields(self, wav_pair, tmp_path, capsys):
        mic, ref = wav_pair
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ns.theta1_db = 6.0\nns.theta2_db = -6.0\n")
        code = main(["enhance", mic, ref, str(tmp_path / "out.wav"),
                     "--config", str(cfg)])
        assert code == 3
        assert "theta" in capsys.readouterr().err

    def test_unknown_config_key_exit_3(self, wav_pair, tmp_path, capsys):
        mic, ref = wav_pair
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("raec1.warp = 1.0\n")
        code = main(["enhance", mic, ref, str(tmp_path / "out.wav"),
                     "--config", str(cfg)])
        assert code == 3
        assert "raec1.warp" in capsys.readouterr().err

    def test_stft_key_exit_3_naming_it(self, wav_pair, tmp_path, capsys):
        mic, ref = wav_pair
        cfg = tmp_path / "clock.cfg"
        cfg.write_text("stft.hop = 128\n")
        code = main(["enhance", mic, ref, str(tmp_path / "out.wav"),
                     "--config", str(cfg)])
        assert code == 3
        assert "stft.hop" in capsys.readouterr().err

    def test_48k_input_exit_2_naming_rate(self, tmp_path, capsys):
        mic, ref = tmp_path / "mic48k.wav", tmp_path / "ref48k.wav"
        write_wav(mic, AudioBuffer(speech_like(1.0, fs=48000, seed=83), 48000))
        write_wav(ref, AudioBuffer(music_like(1.0, fs=48000, seed=84), 48000))
        out = tmp_path / "out.wav"
        assert main(["enhance", str(mic), str(ref), str(out)]) == 2
        err = capsys.readouterr().err
        assert "48000 Hz" in err and str(mic) in err
        assert not out.exists()

    def test_8k_reference_exit_2_naming_path(self, wav_pair, tmp_path, capsys):
        mic, _ = wav_pair
        ref = tmp_path / "ref8k.wav"
        write_wav(ref, AudioBuffer(music_like(1.0, fs=8000, seed=85), 8000))
        out = tmp_path / "out.wav"
        assert main(["enhance", str(mic), str(ref), str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{ref}: expected 16000 Hz, got 8000 Hz" in err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["mic", "ref"])
    def test_nonfinite_input_exit_2_naming_path(self, wav_pair, tmp_path, capsys, which):
        paths = dict(zip(("mic", "ref"), wav_pair))
        samples = read_wav(paths[which]).samples.copy()
        samples[len(samples) // 2] = np.nan
        bad = tmp_path / f"{which}_nan.wav"
        wavfile.write(bad, FS, samples.astype(np.float32))
        paths[which] = str(bad)
        out = tmp_path / "out.wav"
        assert main(["enhance", paths["mic"], paths["ref"], str(out)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "NaN" in err
        assert not out.exists()

    def test_diagnostics_side_file(self, wav_pair, tmp_path):
        mic, ref = wav_pair
        out = str(tmp_path / "out.wav")
        assert main(["enhance", mic, ref, out, "--diagnostics"]) == 0
        assert os.path.exists(str(tmp_path / "out.diag.f32"))

    def test_cap_at_unity_key_clamps_the_written_mask(self, wav_pair, tmp_path):
        mic, ref = wav_pair
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("ns.cap_at_unity = true\n")

        def zeta(name, *config):
            assert main(["enhance", mic, ref, str(tmp_path / f"{name}.wav"),
                         "--diagnostics", *config]) == 0
            diag = np.fromfile(tmp_path / f"{name}.diag.f32", dtype="<f4")
            return diag.reshape(-1, 3, N_BINS)[:, 2]

        assert zeta("plain").max() > 1.0
        capped = zeta("capped", "--config", str(cfg))
        assert capped.size and capped.max() <= 1.0


class TestMetrics:
    def test_identity_reports_zero(self, wav_pair, capsys):
        mic, _ = wav_pair
        assert main(["metrics", mic, mic]) == 0
        out = capsys.readouterr().out
        assert "erle_db_overall = 0.00" in out

    def test_length_mismatch_exit_2(self, wav_pair, tmp_path, capsys):
        mic, _ = wav_pair
        short = tmp_path / "short.wav"
        write_wav(short, AudioBuffer(speech_like(0.5, seed=82)))
        assert main(["metrics", mic, str(short)]) == 2

    @pytest.mark.parametrize("window", ["0", "-1", "nan", "inf"])
    def test_window_outside_domain_exit_3(self, wav_pair, capsys, window):
        mic, _ = wav_pair
        assert main(["metrics", mic, mic, "--window", window]) == 3
        captured = capsys.readouterr()
        assert "erle_db_window" not in captured.out
        assert "window" in captured.err

    def test_window_longer_than_the_signal_reads_one_window(self, wav_pair, capsys):
        mic, _ = wav_pair
        assert main(["metrics", mic, mic, "--window", "1e308"]) == 0
        out = capsys.readouterr().out
        assert "erle_db_window_0 = 0.00" in out
        assert "erle_db_window_1" not in out

    def test_rate_mismatch_exit_2_naming_both(self, tmp_path, capsys):
        # same length, so only the rate tells them apart
        samples = speech_like(0.5, seed=83, rms=0.05)
        a, b = tmp_path / "a16k.wav", tmp_path / "b48k.wav"
        write_wav(a, AudioBuffer(samples, FS))
        write_wav(b, AudioBuffer(samples, 48000))
        assert main(["metrics", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert "erle_db_overall" not in captured.out
        for named in (str(a), "16000 Hz", str(b), "48000 Hz"):
            assert named in captured.err


def _write_sources(tmp_path, fs=FS):
    paths = {}
    for name, maker, dur, seed in (("sp", speech_like, 1.0, 501),
                                   ("mu", music_like, 4.0, 502),
                                   ("no", speech_like, 4.0, 503)):
        p = tmp_path / f"{name}.wav"
        write_wav(p, AudioBuffer(maker(dur, fs=fs, seed=seed, rms=0.08), fs))
        paths[name] = p.name  # relative to the config dir
    return paths


class TestCorpusCommand:
    def test_generates_constant_ser_manifest(self, tmp_path):
        paths = _write_sources(tmp_path)
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(
            f"corpus.speech = {paths['sp']}\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n"
            "corpus.ser_min = -12\ncorpus.ser_max = -12\n"
            "corpus.snr_min = 5\ncorpus.snr_max = 5\n"
            "corpus.sigma3 = 0.01\ncorpus.seed = 5\n")
        out = tmp_path / "corpus_out"
        assert main(["corpus", str(cfg), "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["items"]) == 3
        assert all(item["ser_db"] == -12.0 for item in manifest["items"])

    def test_ir_at_another_rate_exit_2(self, tmp_path, capsys):
        paths = _write_sources(tmp_path)
        write_wav(tmp_path / "ir48k.wav", AudioBuffer([1.0, 0.5, 0.25], 48000))
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(
            f"corpus.speech = {paths['sp']}\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n"
            "corpus.irs = ir48k.wav\n")
        assert main(["corpus", str(cfg), "1", "--out", str(tmp_path / "x")]) == 2
        assert "ir48k.wav" in capsys.readouterr().err
        # the responses are loaded before the output directory is made
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seed", [3, 0], ids=["earlier-item-written",
                                                  "later-item-written-first"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
    def test_failed_item_removes_only_what_it_wrote(self, tmp_path, capsys,
                                                     monkeypatch, existing, seed):
        # At seed 3, item 0 draws the 16 kHz speech file and item 1 the
        # 48 kHz one, so item 0's files are written before item 1 fails.
        # At seed 0 the draws are swapped: on two workers, item 0 is held
        # until the other worker has written item 1, and then fails.
        paths = _write_sources(tmp_path)
        write_wav(tmp_path / "sp48k.wav", AudioBuffer(np.zeros(48000), 48000))
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(
            f"corpus.speech = {paths['sp']}, sp48k.wav\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n"
            f"corpus.seed = {seed}\n")
        out = tmp_path / "x"
        if existing:
            out.mkdir()
            (out / "notes.txt").write_text("kept")
        written = []
        write = corpusmod.write_wav
        other_written = threading.Event()

        def spy(path, buffer):
            written.append(path)
            write(path, buffer)
            if len(written) == 4:
                other_written.set()

        monkeypatch.setattr(corpusmod, "write_wav", spy)
        if seed == 0:
            draw = corpusmod._draw_recipe

            def held(spec, index, *args):
                if index == 0:
                    assert other_written.wait(timeout=30)
                return draw(spec, index, *args)

            monkeypatch.setattr(corpusmod, "usable_cores", lambda: 2)
            monkeypatch.setattr(corpusmod, "_draw_recipe", held)
        assert main(["corpus", str(cfg), "2", "--out", str(out)]) == 2
        assert "sp48k.wav" in capsys.readouterr().err
        assert len(written) == 4
        assert not any(os.path.exists(p) for p in written)
        if existing:
            assert sorted(os.listdir(out)) == ["notes.txt"]
            assert (out / "notes.txt").read_text() == "kept"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("name, named", [("sp", "speech signal is silent"),
                                             ("mu", "excerpt [0, 16000) is silent"),
                                             ("no", "excerpt [0, 16000) is silent")])
    def test_silent_source_exit_2_naming_file(self, tmp_path, capsys, name, named):
        # a silent source as long as the 1 s speech, so its excerpt starts at 0
        paths = _write_sources(tmp_path)
        write_wav(tmp_path / paths[name], AudioBuffer(np.zeros(FS), FS))
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(
            f"corpus.speech = {paths['sp']}\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n")
        out = tmp_path / "x"
        assert main(["corpus", str(cfg), "1", "--out", str(out)]) == 2
        assert f"{tmp_path / paths[name]}: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_all_zero_ir_exit_2_naming_file(self, tmp_path, capsys):
        paths = _write_sources(tmp_path)
        write_wav(tmp_path / "ir.wav", AudioBuffer([1.0, 0.5, 0.25], FS))
        write_wav(tmp_path / "zero_ir.wav", AudioBuffer(np.zeros(3), FS))
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(
            f"corpus.speech = {paths['sp']}\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n"
            "corpus.irs = ir.wav, zero_ir.wav\n")
        out = tmp_path / "x"
        assert main(["corpus", str(cfg), "1", "--out", str(out)]) == 2
        assert f"{tmp_path / 'zero_ir.wav'}: impulse response is all zero" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_unknown_noise_type_exit_3(self, tmp_path, capsys):
        paths = _write_sources(tmp_path)
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(
            f"corpus.speech = {paths['sp']}\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n"
            f"corpus.noise.traffic = {paths['no']}\n")
        out = tmp_path / "x"
        assert main(["corpus", str(cfg), "1", "--out", str(out)]) == 3
        assert "corpus.noise.traffic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["corpus.ser_mn = -99", "corpus.sample_rate = 8000"])
    def test_unknown_key_exit_3_naming_it(self, tmp_path, capsys, line):
        paths = _write_sources(tmp_path)
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(
            f"corpus.speech = {paths['sp']}\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n"
            f"{line}\n")
        out = tmp_path / "x"
        assert main(["corpus", str(cfg), "1", "--out", str(out)]) == 3
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["corpus.ser_min = nan", "corpus.snr_max = inf",
                                      "corpus.sigma3 = nan", "corpus.sigma3 = inf",
                                      "corpus.seed = -1"])
    def test_value_outside_domain_exit_3_naming_key(self, tmp_path, capsys, line):
        paths = _write_sources(tmp_path)
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(
            f"corpus.speech = {paths['sp']}\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n"
            f"{line}\n")
        out = tmp_path / "x"
        assert main(["corpus", str(cfg), "1", "--out", str(out)]) == 3
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_negative_count_exit_3(self, tmp_path, capsys):
        paths = _write_sources(tmp_path)
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(
            f"corpus.speech = {paths['sp']}\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n")
        out = tmp_path / "x"
        assert main(["corpus", str(cfg), "-3", "--out", str(out)]) == 3
        assert "count" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_sample_exit_2_only_inside_drawn_excerpt(self, tmp_path, capsys):
        # the finite-sample check covers the samples that enter an item
        paths = _write_sources(tmp_path)
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(
            f"corpus.speech = {paths['sp']}\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n"
            "corpus.seed = 4\n")
        assert main(["corpus", str(cfg), "1", "--out", str(tmp_path / "clean")]) == 0
        item = json.loads((tmp_path / "clean" / "manifest.json").read_text())["items"][0]
        music_path = tmp_path / paths["mu"]
        music = read_wav(music_path).samples
        start, stop = item["music_offset"], item["music_offset"] + FS
        outside = stop if stop < len(music) else start - 1
        for index, code in ((outside, 0), (start + FS // 2, 2)):
            samples = music.copy()
            samples[index] = np.nan
            wavfile.write(music_path, FS, samples.astype(np.float32))
            out = tmp_path / f"out{index}"
            assert main(["corpus", str(cfg), "1", "--out", str(out)]) == code
        mix = "item0000.mix.wav"
        assert (tmp_path / f"out{outside}" / mix).read_bytes() == \
            (tmp_path / "clean" / mix).read_bytes()
        err = capsys.readouterr().err
        assert str(music_path) in err and "NaN" in err
        assert not out.exists()

    def test_missing_spec_exit_2(self, tmp_path):
        assert main(["corpus", str(tmp_path / "nope.cfg"), "1",
                     "--out", str(tmp_path / "x")]) == 2


def _smoke_corpus(tmp_path):
    """A two-item corpus at a fixed SER and SNR; returns its directory."""
    paths = _write_sources(tmp_path)
    corpus_cfg = tmp_path / "corpus.cfg"
    corpus_cfg.write_text(
        f"corpus.speech = {paths['sp']}\n"
        f"corpus.music = {paths['mu']}\n"
        f"corpus.noise.babble = {paths['no']}\n"
        "corpus.ser_min = -10\ncorpus.ser_max = -10\n"
        "corpus.snr_min = 10\ncorpus.snr_max = 10\n"
        "corpus.sigma3 = 0.005\ncorpus.seed = 6\n")
    corpus_dir = tmp_path / "cc"
    assert main(["corpus", str(corpus_cfg), "2", "--out", str(corpus_dir)]) == 0
    return corpus_dir


class TestTuneCommand:
    def test_degenerate_tune_round_trips_config(self, tmp_path, wav_pair):
        corpus_dir = _smoke_corpus(tmp_path)
        ga_cfg = tmp_path / "ga.cfg"
        ga_cfg.write_text(
            "ga.population = 4\nga.elite = 1\nga.generations = 1\n"
            "ga.mutation_rate = 0\nga.crossover_rate = 0\nga.seed = 9\n"
            "bounds.raec1.mu.min = 0.3\nbounds.raec1.mu.max = 0.7\n")
        best = tmp_path / "best.cfg"
        assert main(["tune", str(corpus_dir / "manifest.json"),
                     "--ga-config", str(ga_cfg), "--out", str(best),
                     "--seed-incumbent"]) == 0

        values = read_config(best)
        assert 0.3 <= float(values["raec1.mu"]) <= 0.7
        # the tuned config must be directly consumable by enhance
        mic, ref = wav_pair
        assert main(["enhance", mic, ref, str(tmp_path / "o.wav"),
                     "--config", str(best)]) == 0

    def test_jobs_leave_config_and_history_unchanged(self, tmp_path, capsys):
        corpus_dir = _smoke_corpus(tmp_path)
        capsys.readouterr()
        ga_cfg = tmp_path / "ga.cfg"
        ga_cfg.write_text("ga.population = 4\nga.elite = 1\nga.generations = 2\nga.seed = 5\n")
        written = []
        for jobs in ("1", "2"):
            best = tmp_path / f"best{jobs}.cfg"
            assert main(["tune", str(corpus_dir / "manifest.json"), "--ga-config", str(ga_cfg),
                         "--out", str(best), "--jobs", jobs]) == 0
            history = capsys.readouterr().out.split("best parameters written")[0]
            written.append((best.read_bytes(), history))
        assert written[0] == written[1]
        assert written[0][1].startswith(" gen ")
        assert load_tune_config(ga_cfg, 2)[0].jobs == 2

    def test_incumbent_outside_bounds_exit_3_naming_gene(self, tmp_path, capsys):
        corpus_dir = _smoke_corpus(tmp_path)
        ga_cfg = tmp_path / "ga.cfg"
        ga_cfg.write_text("ga.population = 2\nga.elite = 1\nga.generations = 1\n"
                          "bounds.raec1.mu.min = 0.05\nbounds.raec1.mu.max = 0.3\n")
        best = tmp_path / "best.cfg"
        code = main(["tune", str(corpus_dir / "manifest.json"), "--ga-config", str(ga_cfg),
                     "--out", str(best), "--seed-incumbent"])
        assert code == 3
        assert "raec1.mu = 0.5 outside" in capsys.readouterr().err
        assert not best.exists()

    def test_every_candidate_failing_exit_2_writes_no_out(self, tmp_path, capsys):
        corpus_dir = _smoke_corpus(tmp_path)
        ga_cfg = tmp_path / "ga.cfg"
        ga_cfg.write_text("ga.population = 2\nga.elite = 1\nga.generations = 1\n")
        best = tmp_path / "best.cfg"
        code = main(["tune", str(corpus_dir / "manifest.json"), "--ga-config", str(ga_cfg),
                     "--out", str(best), "--objective-cmd", "false",
                     "--exchange-dir", str(tmp_path / "exchange")])
        assert code == 2
        assert "no candidate could be scored" in capsys.readouterr().err
        assert not best.exists()

    @pytest.mark.parametrize("text", ["not json {", "{}", '{"items": {}}', '{"items": []}',
                                      '{"items": [{"item_id": 0}]}',
                                      '{"items": [{"files": {"mix": "m.wav"}}]}'])
    def test_malformed_manifest_exit_2_naming_path(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert main(["tune", str(manifest), "--out", str(tmp_path / "best.cfg")]) == 2
        assert str(manifest) in capsys.readouterr().err
        assert not (tmp_path / "best.cfg").exists()

    def test_corpus_at_8k_exit_2_naming_file(self, tmp_path, capsys):
        paths = _write_sources(tmp_path)
        corpus_cfg = tmp_path / "corpus.cfg"
        corpus_cfg.write_text(
            f"corpus.speech = {paths['sp']}\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n")
        corpus_dir = tmp_path / "cc"
        assert main(["corpus", str(corpus_cfg), "2", "--out", str(corpus_dir)]) == 0
        write_wav(corpus_dir / "item0001.ref.wav",
                  AudioBuffer(music_like(1.0, fs=8000, seed=85), 8000))
        best = tmp_path / "best.cfg"
        code = main(["tune", str(corpus_dir / "manifest.json"), "--out", str(best)])
        assert code == 2
        err = capsys.readouterr().err
        assert "item0001.ref.wav: expected 16000 Hz, got 8000 Hz" in err
        assert not best.exists()

    @pytest.mark.parametrize("damage", ["missing", "not-riff"])
    def test_unreadable_item_exit_2_naming_path(self, tmp_path, capsys, damage):
        # one bad item of two fails the run; it is not skipped
        paths = _write_sources(tmp_path)
        corpus_cfg = tmp_path / "corpus.cfg"
        corpus_cfg.write_text(
            f"corpus.speech = {paths['sp']}\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n")
        corpus_dir = tmp_path / "cc"
        assert main(["corpus", str(corpus_cfg), "2", "--out", str(corpus_dir)]) == 0
        bad = corpus_dir / "item0001.mix.wav"
        if damage == "missing":
            bad.unlink()
        else:
            bad.write_bytes(b"not a wave file")
        ga_cfg = tmp_path / "ga.cfg"
        ga_cfg.write_text("ga.population = 2\nga.elite = 1\nga.generations = 1\n")
        best = tmp_path / "best.cfg"
        code = main(["tune", str(corpus_dir / "manifest.json"), "--ga-config", str(ga_cfg),
                     "--out", str(best)])
        assert code == 2
        assert str(bad) in capsys.readouterr().err
        assert not best.exists()

    def test_target_length_differing_from_its_mix_exit_2_naming_both(self, tmp_path, capsys):
        # rejected when the items load, before any candidate runs
        corpus_dir = _smoke_corpus(tmp_path)
        target = corpus_dir / "item0001.speech.wav"
        write_wav(target, AudioBuffer(speech_like(0.75, seed=86)))
        ga_cfg = tmp_path / "ga.cfg"
        ga_cfg.write_text("ga.population = 2\nga.elite = 1\nga.generations = 1\n")
        best = tmp_path / "best.cfg"
        code = main(["tune", str(corpus_dir / "manifest.json"), "--ga-config", str(ga_cfg),
                     "--out", str(best)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(target) in err and str(corpus_dir / "item0001.mix.wav") in err
        assert not best.exists()

    def test_bad_bounds_key_exit_3(self, tmp_path, capsys):
        ga_cfg = tmp_path / "ga.cfg"
        ga_cfg.write_text("bounds.raec1.mu = 0.3\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"items": []}))
        code = main(["tune", str(manifest), "--ga-config", str(ga_cfg),
                     "--out", str(tmp_path / "b.cfg")])
        assert code == 3

    @pytest.mark.parametrize("line,key", [
        ("ga.populaton = 2", "ga.populaton"),
        ("ga.jobs = 2", "ga.jobs"),
        ("bounds.raec1.frame_size.min = 100", "bounds.raec1.frame_size.min"),
        ("bounds.vad.hangover.min = 2.5", "bounds.vad.hangover.min"),
        ("ga.seed = -1", "ga.seed"),
        ("ga.mutation_scale = nan", "ga.mutation_scale"),
    ])
    def test_bad_ga_config_exit_3_naming_key(self, tmp_path, capsys, line, key):
        ga_cfg = tmp_path / "ga.cfg"
        ga_cfg.write_text(line + "\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"items": []}))
        code = main(["tune", str(manifest), "--ga-config", str(ga_cfg),
                     "--out", str(tmp_path / "b.cfg")])
        assert code == 3
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_non_finite_timeout_exit_3(self, tmp_path, capsys, timeout):
        corpus_dir = _smoke_corpus(tmp_path)
        best = tmp_path / "best.cfg"
        code = main(["tune", str(corpus_dir / "manifest.json"), "--out", str(best),
                     "--objective-cmd", "true {dir}", "--timeout", timeout])
        assert code == 3
        assert "timeout" in capsys.readouterr().err
        assert not best.exists()

    def test_unsplittable_objective_cmd_exit_3_naming_it(self, tmp_path, capsys):
        corpus_dir = _smoke_corpus(tmp_path)
        best = tmp_path / "best.cfg"
        template = "scorer '{dir}"  # unclosed quote
        code = main(["tune", str(corpus_dir / "manifest.json"), "--out", str(best),
                     "--objective-cmd", template])
        assert code == 3
        assert repr(template) in capsys.readouterr().err
        assert not best.exists()

    def test_theta_bounds_without_an_ordered_pair_exit_3(self, tmp_path, capsys):
        ga_cfg = tmp_path / "ga.cfg"
        ga_cfg.write_text("bounds.ns.theta1_db.min = 5\nbounds.ns.theta2_db.max = 0\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"items": []}))
        code = main(["tune", str(manifest), "--ga-config", str(ga_cfg),
                     "--out", str(tmp_path / "b.cfg")])
        assert code == 3
        err = capsys.readouterr().err
        assert "bounds.ns.theta1_db.min" in err and "bounds.ns.theta2_db.max" in err


@pytest.mark.parametrize("command", ["enhance", "corpus", "tune"])
def test_config_not_utf8_exit_2_naming_path(tmp_path, wav_pair, capsys, command):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"raec1.mu = 0.5 # caf\xe9\n")
    mic, ref = wav_pair
    argv = {"enhance": ["enhance", mic, ref, str(tmp_path / "o.wav"), "--config", str(cfg)],
            "corpus": ["corpus", str(cfg), "1", "--out", str(tmp_path / "c")],
            "tune": ["tune", str(tmp_path / "m.json"), "--ga-config", str(cfg),
                     "--out", str(tmp_path / "b.cfg")]}[command]
    assert main(argv) == 2
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enhance", "corpus", "tune"])
def test_config_with_byte_order_mark_accepted(tmp_path, wav_pair, command):
    # some editors start a UTF-8 file with the byte-order mark EF BB BF
    cfg = tmp_path / "bom.cfg"
    mic, ref = wav_pair
    if command == "enhance":
        text = "raec1.mu = 0.5\n"
        argv = ["enhance", mic, ref, str(tmp_path / "o.wav"), "--config", str(cfg)]
    elif command == "corpus":
        paths = _write_sources(tmp_path)
        text = (f"corpus.speech = {paths['sp']}\ncorpus.music = {paths['mu']}\n"
                f"corpus.noise.babble = {paths['no']}\n")
        argv = ["corpus", str(cfg), "1", "--out", str(tmp_path / "c")]
    else:
        text = "ga.population = 2\nga.elite = 1\nga.generations = 1\n"
        argv = ["tune", str(_smoke_corpus(tmp_path) / "manifest.json"),
                "--ga-config", str(cfg), "--out", str(tmp_path / "b.cfg")]
    cfg.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert main(argv) == 0


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [
        ["corpus", "corpus.cfg", "3", "--out", "x", "--seed", "3"],
        ["tune", "manifest.json", "--out", "b.cfg", "--seed", "3"],
        ["tune", "manifest.json", "--out", "b.cfg", "--seed"],
    ], ids=["corpus-seed", "tune-seed", "tune-seed-bare"])
    def test_seed_flags_rejected(self, capsys, argv):
        # the seeds are corpus.seed and ga.seed; a bare --seed is not
        # read as an abbreviation of --seed-incumbent
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


def _readme_usage_options():
    """The `--` options on each subcommand's lines of the README's
    "Command line" block; continuation lines belong to the command above."""
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"^## Command line\n+```\n(.*?)^```", fh.read(), re.M | re.S)
    options = {}
    for line in block.group(1).splitlines():
        words = line.split()
        if words[:1] == ["echoforge"]:
            command = options.setdefault(words[1], set())
        command.update(re.findall(r"(--[a-z][a-z-]*)", line))
    return options


class TestReadmeUsage:
    def test_usage_lines_match_the_parser(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        parser_options = {
            name: {s for a in p._actions for s in a.option_strings
                   if s.startswith("--") and s != "--help"}
            for name, p in subparsers.choices.items()}
        assert _readme_usage_options() == parser_options


def _readme_config_blocks():
    """The README's fenced config examples, keyed by the reader they are for."""
    with open(README, encoding="utf-8") as fh:
        fences = re.findall(r"^```\n(.*?)^```", fh.read(), re.M | re.S)
    blocks = {}
    for text in fences:
        keys = [line.split("=")[0].strip() for line in text.splitlines()
                if line.split("#")[0].strip()]
        if not all(re.fullmatch(r"[a-z0-9_.]+", k) for k in keys):
            continue  # a shell or Python example
        kind = keys[0].split(".")[0]
        blocks[kind if kind in ("corpus", "ga") else "run"] = text
    return blocks


class TestReadmeConfigBlocks:
    """Every key in the README's config examples is one its reader accepts."""

    def test_all_three_blocks_found(self):
        assert set(_readme_config_blocks()) == {"run", "corpus", "ga"}

    @pytest.mark.parametrize("kind,reader", [
        ("run", load_run_config),
        ("corpus", load_corpus_spec),
        ("ga", load_tune_config),
    ])
    def test_block_is_accepted(self, tmp_path, kind, reader):
        path = tmp_path / f"{kind}.cfg"
        path.write_text(_readme_config_blocks()[kind])
        reader(str(path))

    def test_run_block_states_the_schema_defaults(self, tmp_path):
        # the run block documents the defaults: every schema parameter it
        # names is set to its SCHEMA default
        path = tmp_path / "run.cfg"
        path.write_text(_readme_config_blocks()["run"])
        defaults = default_params()
        named = {key: float(value) for key, value in read_config(str(path)).items()
                 if key in defaults}
        assert named
        assert named == {key: defaults[key] for key in named}
