import json
import os
import re

import numpy as np
import pytest

from echoforge import corpus as corpusmod
from echoforge.audio import AudioBuffer, read_wav, write_wav
from echoforge.cli import load_corpus_spec, load_run_config, load_tune_config, main
from echoforge.config import read_config
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
        manifest = json.load(open(str(tmp_path / "out.segments.json")))
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
        assert "48000 Hz" in capsys.readouterr().err
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
        manifest = json.load(open(out / "manifest.json"))
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

    @pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
    def test_failed_item_removes_only_what_it_wrote(self, tmp_path, capsys,
                                                     monkeypatch, existing):
        # At seed 3, item 0 draws the 16 kHz speech file and item 1 the
        # 48 kHz one, so item 0's files are written before item 1 fails.
        paths = _write_sources(tmp_path)
        write_wav(tmp_path / "sp48k.wav", AudioBuffer(np.zeros(48000), 48000))
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text(
            f"corpus.speech = {paths['sp']}, sp48k.wav\n"
            f"corpus.music = {paths['mu']}\n"
            f"corpus.noise.babble = {paths['no']}\n"
            "corpus.seed = 3\n")
        out = tmp_path / "x"
        if existing:
            out.mkdir()
            (out / "notes.txt").write_text("kept")
        written = []
        write = corpusmod.write_wav

        def spy(path, buffer):
            written.append(path)
            return write(path, buffer)

        monkeypatch.setattr(corpusmod, "write_wav", spy)
        assert main(["corpus", str(cfg), "2", "--out", str(out)]) == 2
        assert "sp48k.wav" in capsys.readouterr().err
        assert len(written) == 4
        assert not any(os.path.exists(p) for p in written)
        if existing:
            assert sorted(os.listdir(out)) == ["notes.txt"]
            assert (out / "notes.txt").read_text() == "kept"
        else:
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

    def test_missing_spec_exit_2(self, tmp_path):
        assert main(["corpus", str(tmp_path / "nope.cfg"), "1",
                     "--out", str(tmp_path / "x")]) == 2


class TestTuneCommand:
    def test_degenerate_tune_round_trips_config(self, tmp_path, wav_pair):
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
