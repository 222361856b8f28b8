"""Plain-text configuration: one `key = value` per line, `#` comments.

Dotted key prefixes group stage parameters (`raec1.mu = 0.5`). The format
round-trips: a written config parses back to the same dictionary, which
is what makes tuner outputs directly reusable as enhance configs.
"""

from __future__ import annotations

import math

from .errors import ConfigError, InputError


def parse_config_text(text: str) -> dict:
    """Parse config text to an ordered {key: raw-string-value} dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_config(path) -> dict:
    """Parse a UTF-8 config file; a leading byte-order mark, as some
    editors write one, is not part of the first key."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_config_text(fh.read())
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def format_config(values: dict, header: str | None = None) -> str:
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    for key, value in values.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_config(path, values: dict, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(values, header))


def as_float(raw: str, key: str) -> float:
    """A finite number: no key of any config file takes NaN or Inf."""
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def as_int(raw: str, key: str) -> int:
    """A non-negative integer: every integer key is a count or a seed."""
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if value < 0:
        raise ConfigError(f"{key}: expected a non-negative integer, got {raw!r}")
    return value


def as_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def as_paths(raw: str) -> list[str]:
    """Comma-separated path list."""
    return [p.strip() for p in raw.split(",") if p.strip()]
