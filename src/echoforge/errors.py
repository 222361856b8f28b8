"""Exception types shared across the package, the field helper that
declares a stage parameter as a gene, and the check that every stage's
parameter dataclass makes first."""

import math
import numbers
from dataclasses import field, fields


class EchoforgeError(Exception):
    """Base class for all package errors."""


class ConfigError(EchoforgeError):
    """Invalid configuration: bad value, unknown key, inconsistent bounds."""


class InputError(EchoforgeError):
    """Invalid runtime input: shape mismatch, non-finite samples, silent signal."""


def gene(default, low, high, kind=None, db=False):
    """A stage dataclass field that is also a gene of `params.SCHEMA`.

    default, low and high are the gene's. kind is "log" or "pow2" when the
    gene is one; otherwise the field's annotation gives it, "int" for an
    int field and "real" for any other. A db gene is declared in dB, named
    `<field>_db`, and its field holds the linear ratio 10 ** (v / 10).
    """
    value = 10.0 ** (default / 10.0) if db else default
    return field(default=value, metadata={"gene": (default, low, high, kind, db)})


def require_finite(params) -> None:
    """ConfigError naming the first field of a parameter dataclass that is
    numeric but NaN or infinite, or annotated int but not an integer, so
    that the stage's own range checks, which NaN passes and infinity can
    meet, see finite values only, and its arrays integral sizes."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
        if f.type == "int" and not isinstance(value, numbers.Integral):
            raise ConfigError(f"{f.name} must be an integer, got {value}")
