"""Mono audio buffers and RIFF WAV input/output.

Samples are kept as float64 in full scale [-1, 1). Reading accepts mono
16-bit, 24-bit and 32-bit PCM, mapped to float by division by 2**15 and
2**31 (scipy returns 24-bit PCM left-justified in 32-bit integers), and
32-bit and 64-bit float, read as-is. Writing is always 32-bit float.

`open_wav` reads only the header and memory-maps the samples, so a caller
that needs a span of a long file decodes just that span. 24-bit PCM, which
scipy cannot map, is read into memory undecoded instead. `read_wav`
decodes a whole file. Both decode through one function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .errors import InputError

# Container sample type -> the divisor that maps it to full scale.
_FULL_SCALE = {np.dtype(np.int16): 2.0**15, np.dtype(np.int32): 2.0**31,
               np.dtype(np.float32): 1.0, np.dtype(np.float64): 1.0}


@dataclass(frozen=True)
class AudioBuffer:
    """A mono sampled signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InputError(f"expected mono signal, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise InputError("samples contain NaN or Inf")
        if self.sample_rate <= 0:
            raise InputError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def energy(self) -> float:
        return float(np.sum(self.samples**2))


@dataclass(frozen=True, eq=False)
class WavFile:
    """A mono WAV file opened by `open_wav`: its rate and length come from
    the header, and its samples are decoded only by `read`. The map is
    released with the object (a numpy memmap has no close), and no decoded
    buffer refers to it."""

    path: object
    sample_rate: int
    data: np.ndarray             # container samples, memory-mapped where scipy can

    def __len__(self) -> int:
        return len(self.data)

    def read(self, start: int = 0, stop: int | None = None) -> AudioBuffer:
        """Decode samples [start, stop), by default the whole file.

        A span outside the file raises InputError naming the path.
        """
        stop = len(self.data) if stop is None else stop
        if not 0 <= start <= stop <= len(self.data):
            raise InputError(f"{self.path}: span [{start}, {stop}) lies outside "
                             f"its {len(self.data)} samples")
        return _decode(self.path, self.data[start:stop], self.sample_rate)


def _decode(path, data: np.ndarray, sample_rate: int) -> AudioBuffer:
    """The one conversion from container samples to full-scale float64.

    InputError naming the path for a sample that is NaN or Inf.
    """
    samples = np.array(data, dtype=np.float64)
    scale = _FULL_SCALE[data.dtype]
    if scale != 1.0:
        samples /= scale
    try:
        return AudioBuffer(samples, sample_rate)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def open_wav(path) -> WavFile:
    """Open a mono WAV file (16/24/32-bit PCM or 32/64-bit float).

    A missing file raises FileNotFoundError, a file that is not such a WAV
    InputError; both name the path.
    """
    try:
        try:
            rate, data = wavfile.read(path, mmap=True)
        except ValueError:
            # scipy maps only 1, 2, 4 and 8-byte containers over a complete
            # data chunk; anything else, such as 24-bit PCM, is read into memory.
            rate, data = wavfile.read(path)
    except ValueError as exc:  # scipy cannot parse the RIFF structure
        raise InputError(f"{path}: not a readable WAV file ({exc})") from exc
    if data.ndim != 1:
        raise InputError(f"{path}: expected mono, got {data.shape[1]} channels")
    if data.dtype not in _FULL_SCALE:
        raise InputError(f"{path}: unsupported sample format {data.dtype}")
    return WavFile(path, int(rate), data)


def read_wav(path) -> AudioBuffer:
    """Read and decode a whole mono WAV file; errors as for `open_wav`."""
    return open_wav(path).read()


def write_wav(path, buffer: AudioBuffer) -> None:
    """Write a mono 32-bit float WAV file (no clipping, so amplitudes above 1
    from heavily scaled mixtures survive)."""
    wavfile.write(path, buffer.sample_rate, buffer.samples.astype(np.float32))
