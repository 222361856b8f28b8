"""Mono audio buffers and RIFF WAV input/output.

Samples are kept as float64 in full scale [-1, 1). Reading accepts mono
16-bit and 32-bit PCM, mapped to float by division by 2**15 and 2**31,
and 32-bit and 64-bit float, read as-is. Writing is always 32-bit float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .errors import InputError


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


def read_wav(path) -> AudioBuffer:
    """Read a mono WAV file (16/32-bit PCM or 32/64-bit float).

    A missing file raises FileNotFoundError, a file that is not such a WAV
    InputError; both name the path.
    """
    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:  # scipy cannot parse the RIFF structure
        raise InputError(f"{path}: not a readable WAV file ({exc})") from exc
    if data.ndim != 1:
        raise InputError(f"{path}: expected mono, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise InputError(f"{path}: unsupported sample format {data.dtype}")
    return AudioBuffer(samples, int(rate))


def write_wav(path, buffer: AudioBuffer) -> None:
    """Write a mono 32-bit float WAV file (no clipping, so amplitudes above 1
    from heavily scaled mixtures survive)."""
    wavfile.write(path, buffer.sample_rate, buffer.samples.astype(np.float32))
