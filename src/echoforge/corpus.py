"""Synthetic noisy-corpus generation.

Each item mixes, sample-wise,

    mix = speech_reverb + sigma1 * echo + sigma2 * background + sigma3 * pink

where the echo is a music excerpt convolved with a unit-energy impulse
response, speech is convolved with its own independently drawn response,
and the gains realize speech-to-echo and speech-to-noise ratios drawn
uniformly from configured dB ranges. Every random choice is derived from
the master seed through per-item spawn keys and recorded in a recipe, so
a corpus regenerates bit-identically and any single item can be rebuilt
from its recipe alone.

Energies are measured over the full file extent. Both the reverberant
speech (the component actually present in the mix) and the dry source
are written, so either can serve as the training target.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np
from scipy.signal import fftconvolve, lfilter

from .audio import AudioBuffer, read_wav, write_wav
from .errors import ConfigError, InputError
from .stft import SAMPLE_RATE

# Pole-zero pinking filter (Paul Kellet's economy coefficients, as used in
# the classic spectral-audio literature); -3 dB/octave within ~0.05 dB over
# the audio band.
PINK_B = (0.049922035, -0.095993537, 0.050612699, -0.004408786)
PINK_A = (1.0, -2.494956002, 2.017265875, -0.522189400)

DEFAULT_IR_SEED = 0x1A7E
NOISE_TYPES = ("babble", "factory", "music")


@dataclass(frozen=True)
class CorpusSpec:
    speech_files: tuple
    music_files: tuple
    noise_files: dict            # type name -> tuple of paths
    ir_files: tuple = ()         # empty -> built-in synthetic set
    ser_range_db: tuple = (-15.0, -10.0)
    snr_range_db: tuple = (-10.0, 10.0)
    sigma3: float = 0.1
    master_seed: int = 0

    def __post_init__(self):
        if not self.speech_files:
            raise ConfigError("corpus needs at least one speech file")
        if not self.music_files:
            raise ConfigError("corpus needs at least one music file")
        for key in self.noise_files:
            if key not in NOISE_TYPES:
                raise ConfigError(
                    f"unknown noise type {key!r}; expected one of {NOISE_TYPES}")
        if not any(self.noise_files.get(t) for t in self.noise_files):
            raise ConfigError("corpus needs at least one background noise file")
        for rng_name, rng in (("ser", self.ser_range_db), ("snr", self.snr_range_db)):
            if rng[0] > rng[1]:
                raise ConfigError(f"{rng_name} range has lo > hi: {rng}")
        if self.sigma3 < 0:
            raise ConfigError(f"sigma3 must be >= 0, got {self.sigma3}")


@dataclass(frozen=True)
class MixtureRecipe:
    item_id: str
    speech_path: str
    music_path: str
    music_offset: int
    noise_type: str
    noise_path: str
    noise_offset: int
    ir_index_speech: int
    ir_index_music: int
    ser_db: float
    snr_db: float
    sigma1: float
    sigma2: float
    sigma3: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MixtureRecipe":
        return cls(**d)


@dataclass
class MixResult:
    mix: AudioBuffer
    speech_reverb: AudioBuffer
    speech_dry: AudioBuffer
    reference: AudioBuffer       # dry music excerpt, the far-end signal
    echo: AudioBuffer            # reverberant music, pre-sigma1
    background: AudioBuffer      # noise excerpt, pre-sigma2
    pink: AudioBuffer


def normalize_ir(ir: AudioBuffer) -> AudioBuffer:
    """Scale an impulse response to unit energy."""
    energy = ir.energy()
    if energy <= 0.0:
        raise InputError("cannot normalize an all-zero impulse response")
    return AudioBuffer(ir.samples / np.sqrt(energy), ir.sample_rate)


def gain_for_ser(speech: AudioBuffer, echo: AudioBuffer, ser_db: float) -> float:
    """Echo gain realizing 10*log10(E_s / (g^2 E_d)) = ser_db."""
    e_s = speech.energy()
    e_d = echo.energy()
    if e_s <= 0.0:
        raise InputError("silent speech signal")
    if e_d <= 0.0:
        raise InputError("silent echo signal")
    return float(np.sqrt(e_s / e_d) * 10.0 ** (-ser_db / 20.0))


def gain_for_snr(speech: AudioBuffer, noise: AudioBuffer, snr_db: float) -> float:
    """Noise gain realizing the requested speech-to-noise ratio."""
    return gain_for_ser(speech, noise, snr_db)


def pink_noise(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Approximately -3 dB/octave noise from pole-zero filtered white noise."""
    white = rng.standard_normal(n_samples)
    pink = lfilter(PINK_B, PINK_A, white)
    rms = np.sqrt(np.mean(pink**2)) if n_samples else 1.0
    return pink / max(rms, 1e-12)


def make_default_irs(count: int = 12, length: int = 1024,
                     seed: int = DEFAULT_IR_SEED) -> list:
    """Synthetic exponentially decaying impulse responses, unit energy.

    A direct-path spike followed by a noise tail whose decay time varies
    per response. Stands in for measured rooms; user-provided WAV
    responses are preferred for realism.
    """
    rng = np.random.default_rng(seed)
    irs = []
    for _ in range(count):
        decay_ms = rng.uniform(20.0, 120.0)
        tau = decay_ms / 1000.0 * SAMPLE_RATE / np.log(1000.0)  # RT60-ish decay
        t = np.arange(length)
        tail = rng.standard_normal(length) * np.exp(-t / tau)
        tail[0] = 3.0  # direct path dominates
        irs.append(normalize_ir(AudioBuffer(tail, SAMPLE_RATE)))
    return irs


def _read_source(path) -> AudioBuffer:
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing source file: {path}")
    buf = read_wav(path)
    if buf.sample_rate != SAMPLE_RATE:
        raise InputError(f"{path}: expected {SAMPLE_RATE} Hz, got {buf.sample_rate} Hz")
    return buf


def _excerpt(buf: AudioBuffer, path, offset: int, length: int) -> AudioBuffer:
    if offset + length > len(buf):
        raise ConfigError(
            f"{path}: excerpt [{offset}, {offset + length}) exceeds file "
            f"length {len(buf)}")
    return AudioBuffer(buf.samples[offset : offset + length], buf.sample_rate)


def _resolve(base_dir, path):
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _reverberate(dry: AudioBuffer, ir: AudioBuffer) -> AudioBuffer:
    return AudioBuffer(fftconvolve(dry.samples, ir.samples)[:len(dry)], dry.sample_rate)


def _sum(recipe: MixtureRecipe, speech_dry: AudioBuffer, speech_reverb: AudioBuffer,
         music: AudioBuffer, echo: AudioBuffer, noise: AudioBuffer) -> MixResult:
    # The one place the mix is summed; its operand order fixes the bits on disk.
    sr = speech_dry.sample_rate
    pink = pink_noise(len(speech_dry), np.random.default_rng(recipe.seed))
    mix = (speech_reverb.samples
           + recipe.sigma1 * echo.samples
           + recipe.sigma2 * noise.samples
           + recipe.sigma3 * pink)
    return MixResult(
        mix=AudioBuffer(mix, sr),
        speech_reverb=speech_reverb,
        speech_dry=speech_dry,
        reference=music,
        echo=echo,
        background=noise,
        pink=AudioBuffer(pink, sr),
    )


def mix_item(recipe: MixtureRecipe, irs: list, base_dir: str = ".") -> MixResult:
    """Rebuild one corpus item deterministically from its recipe."""
    speech_dry = _read_source(_resolve(base_dir, recipe.speech_path))
    length = len(speech_dry)
    music_path = _resolve(base_dir, recipe.music_path)
    music = _excerpt(_read_source(music_path), music_path, recipe.music_offset, length)
    noise_path = _resolve(base_dir, recipe.noise_path)
    noise = _excerpt(_read_source(noise_path), noise_path, recipe.noise_offset, length)
    return _sum(recipe, speech_dry, _reverberate(speech_dry, irs[recipe.ir_index_speech]),
                music, _reverberate(music, irs[recipe.ir_index_music]), noise)


def measured_ser_db(result: MixResult, recipe: MixtureRecipe) -> float:
    """Re-measure the realized speech-to-echo ratio of a mixed item."""
    return 10.0 * np.log10(
        result.speech_reverb.energy()
        / (recipe.sigma1**2 * result.echo.energy()))


def measured_snr_db(result: MixResult, recipe: MixtureRecipe) -> float:
    return 10.0 * np.log10(
        result.speech_reverb.energy()
        / (recipe.sigma2**2 * result.background.energy()))


def _draw_recipe(spec: CorpusSpec, index: int, irs: list, base_dir: str):
    """Draw item `index` and mix it; returns (recipe, MixResult).

    Each source file is read once: the offsets need the file lengths and
    the gains need the reverberant components, which then go into the mix.
    """
    ss = np.random.SeedSequence(spec.master_seed, spawn_key=(index,))
    rng = np.random.default_rng(ss)
    item_seed = int(ss.generate_state(1, dtype=np.uint64)[0])

    ser_db = float(rng.uniform(*spec.ser_range_db))
    snr_db = float(rng.uniform(*spec.snr_range_db))
    speech_path = spec.speech_files[rng.integers(len(spec.speech_files))]
    music_path = spec.music_files[rng.integers(len(spec.music_files))]
    types = [t for t in NOISE_TYPES if spec.noise_files.get(t)]
    noise_type = types[rng.integers(len(types))]
    noise_path = spec.noise_files[noise_type][
        rng.integers(len(spec.noise_files[noise_type]))]
    ir_index_speech = int(rng.integers(len(irs)))
    ir_index_music = int(rng.integers(len(irs)))

    speech_dry = _read_source(_resolve(base_dir, speech_path))
    music_src = _read_source(_resolve(base_dir, music_path))
    noise_src = _read_source(_resolve(base_dir, noise_path))
    length, music_len, noise_len = len(speech_dry), len(music_src), len(noise_src)
    if music_len < length:
        raise ConfigError(f"{music_path}: shorter than speech item ({music_len} < {length})")
    if noise_len < length:
        raise ConfigError(f"{noise_path}: shorter than speech item ({noise_len} < {length})")
    music_offset = int(rng.integers(music_len - length + 1))
    noise_offset = int(rng.integers(noise_len - length + 1))

    music = _excerpt(music_src, music_path, music_offset, length)
    noise = _excerpt(noise_src, noise_path, noise_offset, length)
    speech_reverb = _reverberate(speech_dry, irs[ir_index_speech])
    echo = _reverberate(music, irs[ir_index_music])
    recipe = MixtureRecipe(
        item_id=f"item{index:04d}", speech_path=speech_path,
        music_path=music_path, music_offset=music_offset,
        noise_type=noise_type, noise_path=noise_path, noise_offset=noise_offset,
        ir_index_speech=ir_index_speech, ir_index_music=ir_index_music,
        ser_db=ser_db, snr_db=snr_db,
        sigma1=gain_for_ser(speech_reverb, echo, ser_db),
        sigma2=gain_for_snr(speech_reverb, noise, snr_db),
        sigma3=spec.sigma3, seed=item_seed,
    )
    return recipe, _sum(recipe, speech_dry, speech_reverb, music, echo, noise)


def generate_corpus(spec: CorpusSpec, n_items: int, out_dir,
                    base_dir: str = ".") -> list:
    """Draw, mix and write n_items; returns the recipes.

    Writes <id>.mix.wav, <id>.speech.wav (reverberant target),
    <id>.speech_dry.wav, <id>.ref.wav (far-end reference) and a
    manifest.json listing every recipe, all float32 mono WAV. Every
    source file and impulse response must be at SAMPLE_RATE. The responses
    are loaded before anything is written; if an item then fails, the files
    this call wrote are removed, and out_dir too if this call created it.
    """
    irs = load_irs(spec.ir_files, base_dir) if spec.ir_files else make_default_irs()
    created = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    try:
        recipes = []
        entries = []
        for i in range(n_items):
            recipe, result = _draw_recipe(spec, i, irs, base_dir)
            paths = {
                "mix": f"{recipe.item_id}.mix.wav",
                "speech": f"{recipe.item_id}.speech.wav",
                "speech_dry": f"{recipe.item_id}.speech_dry.wav",
                "reference": f"{recipe.item_id}.ref.wav",
            }
            for key, buf in (("mix", result.mix), ("speech", result.speech_reverb),
                             ("speech_dry", result.speech_dry),
                             ("reference", result.reference)):
                written.append(os.path.join(out_dir, paths[key]))
                write_wav(written[-1], buf)
            recipes.append(recipe)
            entries.append({**recipe.to_dict(), "files": paths})
        manifest = {
            "sample_rate": SAMPLE_RATE,
            "master_seed": spec.master_seed,
            "sigma3": spec.sigma3,
            "ir_files": list(spec.ir_files),
            "items": entries,
        }
        written.append(os.path.join(out_dir, "manifest.json"))
        with open(written[-1], "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
    except BaseException:
        for path in written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        if created:
            with contextlib.suppress(OSError):
                os.rmdir(out_dir)
        raise
    return recipes


def load_irs(ir_files, base_dir: str = ".") -> list:
    """Load and unit-energy-normalize user impulse responses, each at SAMPLE_RATE."""
    irs = [normalize_ir(_read_source(_resolve(base_dir, path))) for path in ir_files]
    if not irs:
        raise ConfigError("empty impulse-response list")
    return irs


def read_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
