"""Exception types shared across the package."""


class EchoforgeError(Exception):
    """Base class for all package errors."""


class ConfigError(EchoforgeError):
    """Invalid configuration: bad value, unknown key, inconsistent bounds."""


class InputError(EchoforgeError):
    """Invalid runtime input: shape mismatch, non-finite samples, silent signal."""
