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

import collections
import contextlib
import json
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np
from scipy.signal import fftconvolve, lfilter

from .audio import AudioBuffer, WavFile, open_wav, read_wav, write_wav
from .errors import ConfigError, InputError
from .stft import SAMPLE_RATE

# Pole-zero pinking filter (Paul Kellet's economy coefficients, as used in
# the classic spectral-audio literature); -3 dB/octave within ~0.05 dB over
# the audio band.
PINK_B = (0.049922035, -0.095993537, 0.050612699, -0.004408786)
PINK_A = (1.0, -2.494956002, 2.017265875, -0.522189400)

DEFAULT_IR_COUNT = 12
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
        for name, value in (("speech_files", self.speech_files),
                            ("music_files", self.music_files), ("ir_files", self.ir_files),
                            *((f"noise_files[{k!r}]", v) for k, v in self.noise_files.items())):
            if isinstance(value, (str, bytes)):
                raise ConfigError(f"{name} must be a sequence of paths, got a single "
                                  f"string {value!r}")
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
            if not all(math.isfinite(v) for v in rng):
                raise ConfigError(f"{rng_name} range must be finite, got {rng}")
            if rng[0] > rng[1]:
                raise ConfigError(f"{rng_name} range has lo > hi: {rng}")
        if not 0 <= self.sigma3 < math.inf:
            raise ConfigError(f"sigma3 must be finite and >= 0, got {self.sigma3}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")


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


@dataclass
class MixResult:
    mix: AudioBuffer
    speech_reverb: AudioBuffer
    speech_dry: AudioBuffer
    reference: AudioBuffer       # dry music excerpt, the far-end signal
    echo: AudioBuffer            # reverberant music, pre-sigma1
    background: AudioBuffer      # noise excerpt, pre-sigma2


def normalize_ir(ir: AudioBuffer, name: str = "impulse response") -> AudioBuffer:
    """Scale an impulse response to unit energy; an all-zero one is an
    InputError that gives its name."""
    energy = ir.energy()
    if energy <= 0.0:
        raise InputError(f"{name} is all zero")
    return AudioBuffer(ir.samples / np.sqrt(energy), ir.sample_rate)


def gain_for_ser(e_s: float, e_d: float, ser_db: float,
                 names=("speech signal", "echo signal")) -> float:
    """Gain g realizing 10*log10(e_s / (g^2 e_d)) = ser_db for a speech
    energy e_s and an echo energy e_d; the same formula gives the noise gain
    for a speech-to-noise ratio. A zero energy is an InputError that gives
    its entry of names, the signal being silent."""
    if e_s <= 0.0:
        raise InputError(f"{names[0]} is silent")
    if e_d <= 0.0:
        raise InputError(f"{names[1]} is silent")
    return float(np.sqrt(e_s / e_d) * 10.0 ** (-ser_db / 20.0))


def pink_noise(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Approximately -3 dB/octave noise from pole-zero filtered white noise."""
    white = rng.standard_normal(n_samples)
    pink = lfilter(PINK_B, PINK_A, white)
    rms = np.sqrt(np.mean(pink**2)) if n_samples else 1.0
    return pink / max(rms, 1e-12)


def make_default_irs(length: int = 1024) -> list:
    """DEFAULT_IR_COUNT synthetic exponentially decaying impulse responses,
    unit energy, drawn from DEFAULT_IR_SEED.

    A direct-path spike followed by a noise tail whose decay time varies
    per response. Stands in for measured rooms; user-provided WAV
    responses are preferred for realism.
    """
    rng = np.random.default_rng(DEFAULT_IR_SEED)
    irs = []
    for _ in range(DEFAULT_IR_COUNT):
        decay_ms = rng.uniform(20.0, 120.0)
        tau = decay_ms / 1000.0 * SAMPLE_RATE / np.log(1000.0)  # RT60-ish decay
        t = np.arange(length)
        tail = rng.standard_normal(length) * np.exp(-t / tau)
        tail[0] = 3.0  # direct path dominates
        irs.append(normalize_ir(AudioBuffer(tail, SAMPLE_RATE)))
    return irs


def _at_sample_rate(path, source):
    """source (an AudioBuffer or WavFile) if it is at SAMPLE_RATE, else
    InputError naming the path."""
    if source.sample_rate != SAMPLE_RATE:
        raise InputError(f"{path}: expected {SAMPLE_RATE} Hz, got {source.sample_rate} Hz")
    return source


def read_source(path) -> AudioBuffer:
    """Read and decode a whole WAV that must be at SAMPLE_RATE; InputError
    naming the path if it is at another rate."""
    return _at_sample_rate(path, read_wav(path))


def open_source(path) -> WavFile:
    """Open a WAV that must be at SAMPLE_RATE, as `read_source` checks it,
    without decoding any sample yet."""
    return _at_sample_rate(path, open_wav(path))


def _resolve(base_dir, path):
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _reverberate(dry: AudioBuffer, ir: AudioBuffer) -> AudioBuffer:
    return AudioBuffer(fftconvolve(dry.samples, ir.samples)[:len(dry)], dry.sample_rate)


def _sum(recipe: MixtureRecipe, speech_dry: AudioBuffer, speech_reverb: AudioBuffer,
         music: AudioBuffer, echo: AudioBuffer, noise: AudioBuffer) -> MixResult:
    # The one place the mix is summed; its operand order fixes the bits on disk.
    pink = pink_noise(len(speech_dry), np.random.default_rng(recipe.seed))
    mix = (speech_reverb.samples
           + recipe.sigma1 * echo.samples
           + recipe.sigma2 * noise.samples
           + recipe.sigma3 * pink)
    return MixResult(
        mix=AudioBuffer(mix, speech_dry.sample_rate),
        speech_reverb=speech_reverb,
        speech_dry=speech_dry,
        reference=music,
        echo=echo,
        background=noise,
    )


def mix_item(recipe: MixtureRecipe, irs: list, base_dir: str = ".") -> MixResult:
    """Rebuild one corpus item deterministically from its recipe."""
    speech_dry = read_source(_resolve(base_dir, recipe.speech_path))
    length = len(speech_dry)
    music = open_source(_resolve(base_dir, recipe.music_path)).read(
        recipe.music_offset, recipe.music_offset + length)
    noise = open_source(_resolve(base_dir, recipe.noise_path)).read(
        recipe.noise_offset, recipe.noise_offset + length)
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

    Each source file is opened once. The speech file is decoded whole, as
    it is the item. The music and noise offsets need only the file lengths,
    which come from the WAV headers, so of those files only the excerpts
    are decoded; the gains need the reverberant components, which then go
    into the mix.
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

    speech_dry = read_source(_resolve(base_dir, speech_path))
    music_src = open_source(_resolve(base_dir, music_path))
    noise_src = open_source(_resolve(base_dir, noise_path))
    length, music_len, noise_len = len(speech_dry), len(music_src), len(noise_src)
    for src, src_len in ((music_src, music_len), (noise_src, noise_len)):
        if src_len < length:
            raise InputError(f"{src.path}: shorter than speech item ({src_len} < {length})")
    music_offset = int(rng.integers(music_len - length + 1))
    noise_offset = int(rng.integers(noise_len - length + 1))

    music = music_src.read(music_offset, music_offset + length)
    noise = noise_src.read(noise_offset, noise_offset + length)
    speech_reverb = _reverberate(speech_dry, irs[ir_index_speech])
    echo = _reverberate(music, irs[ir_index_music])
    # what a silent-signal error names
    speech_name = f"{_resolve(base_dir, speech_path)}: speech signal"
    music_name = f"{music_src.path}: excerpt [{music_offset}, {music_offset + length})"
    noise_name = f"{noise_src.path}: excerpt [{noise_offset}, {noise_offset + length})"
    speech_energy = speech_reverb.energy()
    recipe = MixtureRecipe(
        item_id=f"item{index:04d}", speech_path=speech_path,
        music_path=music_path, music_offset=music_offset,
        noise_type=noise_type, noise_path=noise_path, noise_offset=noise_offset,
        ir_index_speech=ir_index_speech, ir_index_music=ir_index_music,
        ser_db=ser_db, snr_db=snr_db,
        sigma1=gain_for_ser(speech_energy, echo.energy(), ser_db, (speech_name, music_name)),
        sigma2=gain_for_ser(speech_energy, noise.energy(), snr_db, (speech_name, noise_name)),
        sigma3=spec.sigma3, seed=item_seed,
    )
    return recipe, _sum(recipe, speech_dry, speech_reverb, music, echo, noise)


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity set where the
    platform has one (Linux), else every core of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_item(spec: CorpusSpec, index: int, irs: list, base_dir: str, out_dir,
                written: list) -> tuple:
    """Draw, mix and write item `index`; returns (recipe, manifest entry).
    Each path goes on `written` before its file is opened."""
    recipe, result = _draw_recipe(spec, index, irs, base_dir)
    paths = {
        "mix": f"{recipe.item_id}.mix.wav",
        "speech": f"{recipe.item_id}.speech.wav",
        "speech_dry": f"{recipe.item_id}.speech_dry.wav",
        "reference": f"{recipe.item_id}.ref.wav",
    }
    for key, buf in (("mix", result.mix), ("speech", result.speech_reverb),
                     ("speech_dry", result.speech_dry), ("reference", result.reference)):
        path = os.path.join(out_dir, paths[key])
        written.append(path)
        write_wav(path, buf)
    return recipe, {**asdict(recipe), "files": paths}


def generate_corpus(spec: CorpusSpec, n_items: int, out_dir,
                    base_dir: str = ".") -> list:
    """Draw, mix and write n_items; returns the recipes.

    Writes <id>.mix.wav, <id>.speech.wav (reverberant target),
    <id>.speech_dry.wav, <id>.ref.wav (far-end reference) and a
    manifest.json listing every recipe, all float32 mono WAV. Every
    source file and impulse response must be at SAMPLE_RATE.

    Items are built concurrently, one worker per usable core and at most
    one per item: the calling thread and up to usable_cores() - 1 helper
    threads take item indices in ascending order. Each item depends only on
    its spawn key and the manifest lists the items by index, so every file
    is byte-identical for any core count.

    The responses are loaded before anything is written. If an item then
    fails, no further item starts; once the items in flight have finished,
    the files this call wrote are removed, out_dir too if this call
    created it, and the error of the lowest failed item index is raised,
    the one a one-at-a-time run would raise. No helper thread outlives the
    call.
    """
    if n_items < 0:
        raise ConfigError(f"item count must be >= 0, got {n_items}")
    irs = load_irs(spec.ir_files, base_dir) if spec.ir_files else make_default_irs()
    created = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    written = []                  # every path a worker has opened for writing
    built = [None] * n_items      # (recipe, manifest entry) by item index
    failures = {}                 # item index -> its exception
    pending = collections.deque(range(n_items))  # indices not yet started

    def work():
        # Take the lowest index not yet started until none is left; a
        # failure cancels every item not yet started.
        while True:
            try:
                index = pending.popleft()
            except IndexError:
                return
            try:
                built[index] = _write_item(spec, index, irs, base_dir, out_dir, written)
            except Exception as exc:
                failures[index] = exc
                pending.clear()
                return

    helpers = []
    try:
        try:
            for k in range(min(usable_cores(), n_items) - 1):
                thread = threading.Thread(target=work, name=f"corpus-item-worker-{k}")
                thread.start()
                helpers.append(thread)
            work()
        finally:
            pending.clear()  # an interrupt of this thread stops the helpers too
            for thread in helpers:
                thread.join()
        if failures:
            raise failures[min(failures)]
        manifest = {
            "sample_rate": SAMPLE_RATE,
            "master_seed": spec.master_seed,
            "sigma3": spec.sigma3,
            "ir_files": list(spec.ir_files),
            "items": [entry for _, entry in built],
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
    return [recipe for recipe, _ in built]


def load_irs(ir_files, base_dir: str = ".") -> list:
    """Load and unit-energy-normalize user impulse responses, each at SAMPLE_RATE."""
    paths = [_resolve(base_dir, path) for path in ir_files]
    irs = [normalize_ir(read_source(path), f"{path}: impulse response") for path in paths]
    if not irs:
        raise ConfigError("empty impulse-response list")
    return irs


def read_manifest(path) -> dict:
    """Read a corpus manifest.json. InputError naming the path if it is not
    JSON, has no `items` list, or an item lacks the `files` paths of its
    mix, speech and reference."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"{path}: not a JSON manifest ({exc})") from exc
    items = manifest.get("items") if isinstance(manifest, dict) else None
    if not isinstance(items, list):
        raise InputError(f"{path}: no 'items' list")
    for i, entry in enumerate(items):
        files = entry.get("files") if isinstance(entry, dict) else None
        if not (isinstance(files, dict) and all(
                isinstance(files.get(key), str) for key in ("mix", "speech", "reference"))):
            raise InputError(f"{path}: item {i} has no 'files' with mix, speech "
                             "and reference paths")
    return manifest
