"""The full tunable parameter set: names, kinds, bounds, defaults.

Every stage parameter is a gene with a dotted name, ``<prefix>.<name>``,
so the same flat dictionary serves the config files, the CLI and the
genetic tuner. Kinds drive how the tuner samples and mutates a gene:
``real`` and ``int`` are uniform in the bound interval, ``log`` works in
log10 space, ``pow2`` walks power-of-two exponents. One rule builds the
stages: gene ``<prefix>.<name>`` sets field ``name`` of the prefix's stage
in STAGES, an ``int`` or ``pow2`` gene through ``int()``, and a
``<name>_db`` gene sets ``name`` to the linear ratio ``10 ** (v / 10)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dtp import DtpParams
from .errors import ConfigError
from .npe import NpeParams
from .raec import RaecParams
from .rpe import RpeParams
from .suppressor import SuppressorParams
from .vad import VadParams


@dataclass(frozen=True)
class Field:
    name: str
    kind: str
    default: float
    low: float
    high: float


def _raec_fields(prefix: str, partitions_default: int) -> list[Field]:
    return [
        Field(f"{prefix}.frame_size", "pow2", 256, 64, 1024),
        Field(f"{prefix}.partitions", "int", partitions_default, 1, 16),
        Field(f"{prefix}.iterations", "int", 2, 1, 4),
        Field(f"{prefix}.mu", "real", 0.5, 0.05, 1.9),
        Field(f"{prefix}.gamma", "real", 1.5, 0.5, 4.0),
        Field(f"{prefix}.alpha", "real", 0.9, 0.5, 0.995),
    ]


SCHEMA: tuple[Field, ...] = tuple(
    _raec_fields("raec1", 8)
    + _raec_fields("raec2", 4)
    + [
        Field("dtp.a01", "log", 0.01, 1e-4, 0.5),
        Field("dtp.a10", "log", 0.01, 1e-4, 0.5),
        Field("dtp.b01", "real", 0.1, 0.0, 1.0),
        Field("dtp.b10", "real", 0.1, 0.0, 1.0),
        Field("dtp.alpha", "real", 0.9, 0.5, 0.995),
        Field("dtp.beta", "real", 0.7, 0.0, 0.99),
        Field("dtp.k_begin", "int", 10, 0, 64),
        Field("dtp.k_end", "int", 109, 65, 256),
        Field("dtp.frame_duration", "real", 0.016, 0.004, 0.064),
        Field("dtp.tau", "log", 0.1, 0.01, 1.0),
        Field("rpe.partitions_high", "int", 4, 1, 8),
        Field("rpe.partitions_low", "int", 2, 1, 8),
        Field("rpe.alpha_high", "real", 0.92, 0.5, 0.995),
        Field("rpe.alpha_low", "real", 0.92, 0.5, 0.995),
        Field("npe.xi_h1_db", "real", 15.0, 5.0, 30.0),
        Field("npe.p_threshold", "real", 0.99, 0.8, 0.999),
        Field("npe.alpha_p", "real", 0.9, 0.5, 0.99),
        Field("npe.alpha_npe", "real", 0.9, 0.5, 0.95),
        Field("ns.alpha_dd", "real", 0.98, 0.8, 0.999),
        Field("ns.g_min", "real", 0.1, 0.0, 1.0),
        Field("ns.theta1_db", "real", -5.0, -30.0, 10.0),
        Field("ns.theta2_db", "real", 5.0, -10.0, 30.0),
        Field("ns.mask_alpha", "real", 0.5, 0.0, 2.0),
        Field("vad.threshold", "real", 38.55, 0.0, 200.0),
        Field("vad.hangover", "int", 8, 0, 32),
    ]
)

_BY_NAME = {f.name: f for f in SCHEMA}


def field(name: str) -> Field:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown parameter {name!r}") from None


def default_params() -> dict:
    return {f.name: f.default for f in SCHEMA}


def _is_pow2(n: float) -> bool:
    return float(n).is_integer() and int(n) > 0 and (int(n) & (int(n) - 1)) == 0


def validate_params(params: dict) -> None:
    """Reject unknown names, out-of-bound values, non-integral integers."""
    for name, value in params.items():
        f = _BY_NAME.get(name)
        if f is None:
            raise ConfigError(f"unknown parameter {name!r}")
        if not f.low <= value <= f.high:
            raise ConfigError(
                f"{name} = {value} outside bounds [{f.low}, {f.high}]")
        if f.kind == "int" and not float(value).is_integer():
            raise ConfigError(f"{name} must be an integer, got {value}")
        if f.kind == "pow2" and not _is_pow2(value):
            raise ConfigError(f"{name} must be a power of two, got {value}")


@dataclass(frozen=True)
class PipelineParams:
    raec1: RaecParams
    raec2: RaecParams
    dtp: DtpParams
    rpe: RpeParams
    npe: NpeParams
    suppressor: SuppressorParams
    vad: VadParams


# gene prefix -> (PipelineParams field, stage class)
STAGES = {
    "raec1": ("raec1", RaecParams),
    "raec2": ("raec2", RaecParams),
    "dtp": ("dtp", DtpParams),
    "rpe": ("rpe", RpeParams),
    "npe": ("npe", NpeParams),
    "ns": ("suppressor", SuppressorParams),
    "vad": ("vad", VadParams),
}

# The suppressor's mask thresholds, in dB; the first must lie below the second.
THETA_PAIR = ("ns.theta1_db", "ns.theta2_db")


def build_pipeline_params(overrides: dict | None = None,
                          cap_at_unity: bool = False) -> PipelineParams:
    """Assemble stage parameter objects from a flat (partial) dictionary.

    Values are validated twice: against the schema bounds here and by each
    stage's own constructor (which names the offending field).
    `cap_at_unity` is the suppressor's listening switch: a run setting,
    not a schema parameter, so the tuner never samples it.
    """
    p = default_params()
    if overrides:
        validate_params(overrides)
        p.update(overrides)
    low, high = THETA_PAIR
    if 10.0 ** (p[low] / 10.0) >= 10.0 ** (p[high] / 10.0):
        raise ConfigError(
            f"need theta1 < theta2, got {low}={p[low]} >= {high}={p[high]}")
    kwargs = {prefix: {} for prefix in STAGES}
    kwargs["ns"]["cap_at_unity"] = cap_at_unity
    for f in SCHEMA:
        prefix, name = f.name.split(".")
        value = int(p[f.name]) if f.kind in ("int", "pow2") else p[f.name]
        if name.endswith("_db"):
            name, value = name.removesuffix("_db"), 10.0 ** (value / 10.0)
        kwargs[prefix][name] = value
    return PipelineParams(**{attr: cls(**kwargs[prefix])
                             for prefix, (attr, cls) in STAGES.items()})
