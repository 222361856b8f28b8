"""Exception types shared across the package, the field helper that
declares a stage parameter as a gene with its dB and power-of-two rules,
and the checks that every stage's parameter dataclass makes."""

import math
import numbers
from dataclasses import field, fields


class EchoforgeError(Exception):
    """Base class for all package errors."""


class ConfigError(EchoforgeError):
    """Invalid configuration: bad value, unknown key, inconsistent bounds."""


class InputError(EchoforgeError):
    """Invalid runtime input: shape mismatch, non-finite samples, silent signal."""


def db_ratio(v: float) -> float:
    """The linear power ratio of v dB."""
    return 10.0 ** (v / 10.0)


def is_pow2(n) -> bool:
    """Whether n, a finite int or float, is a positive integral power of two."""
    return int(n) == n > 0 and (int(n) & (int(n) - 1)) == 0


def gene(default, low, high, kind=None, db=False):
    """A stage dataclass field that is also a gene of `params.SCHEMA`.

    default, low and high are the gene's. kind is "log" or "pow2" when the
    gene is one, and no other; otherwise the field's annotation gives it,
    "int" for an int field and "real" for any other. A db gene is declared
    in dB, named `<field>_db`, and its field holds `db_ratio` of it.
    """
    if kind not in (None, "log", "pow2"):
        raise ConfigError(f"unknown gene kind {kind!r}; expected 'log' or 'pow2'")
    value = db_ratio(default) if db else default
    return field(default=value, metadata={"gene": (default, low, high, kind, db)})


def require_finite(params) -> None:
    """ConfigError naming the first field of a parameter dataclass that is
    numeric but NaN or infinite, or annotated int but not an integer, so
    that the stage's own range checks, which NaN passes and infinity can
    meet, see finite values only, and its arrays integral sizes. An int,
    however large, is finite."""
    for f in fields(params):
        value = getattr(params, f.name)
        if (isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral)
                and not math.isfinite(value)):
            raise ConfigError(f"{f.name} must be finite, got {value}")
        if f.type == "int" and not isinstance(value, numbers.Integral):
            raise ConfigError(f"{f.name} must be an integer, got {value}")


def require_unit(params, *names, closed=False) -> None:
    """ConfigError naming the first of the named fields of params that is
    not in [0, 1), or not in [0, 1] when closed."""
    for name in names:
        value = getattr(params, name)
        if not (0.0 <= value <= 1.0 if closed else 0.0 <= value < 1.0):
            raise ConfigError(f"{name} must be in [0, 1{']' if closed else ')'}, got {value}")
