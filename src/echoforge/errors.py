"""Exception types shared across the package, and the finiteness check
that every stage's parameter dataclass makes first."""

import math
import numbers
from dataclasses import fields


class EchoforgeError(Exception):
    """Base class for all package errors."""


class ConfigError(EchoforgeError):
    """Invalid configuration: bad value, unknown key, inconsistent bounds."""


class InputError(EchoforgeError):
    """Invalid runtime input: shape mismatch, non-finite samples, silent signal."""


def require_finite(params) -> None:
    """ConfigError naming the first numeric field of a parameter dataclass
    that is NaN or infinite, so that the stage's own range checks, which
    NaN passes and infinity can meet, see finite values only."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
