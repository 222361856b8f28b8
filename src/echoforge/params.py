"""The full tunable parameter set: names, kinds, bounds, defaults.

Every stage parameter is a gene with a dotted name, ``<prefix>.<name>``,
so the same flat dictionary serves the config files, the CLI and the
genetic tuner. Each gene is declared once, on its stage dataclass field
(`errors.gene`), with its default, its bounds and, when it is one, its
``log`` or ``pow2`` kind; SCHEMA is derived from those fields in STAGES
order, then field order, and that order is the order the tuner draws
genes in. Kinds drive how the tuner samples and mutates a gene: ``real``
and ``int`` are uniform in the bound interval, ``log`` works in log10
space, ``pow2`` walks power-of-two exponents. One rule builds the stages:
gene ``<prefix>.<name>`` sets field ``name`` of the prefix's stage in
STAGES, an ``int`` or ``pow2`` gene through ``int()``, and a
``<name>_db`` gene sets ``name`` to the linear ratio ``10 ** (v / 10)``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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

# Gene defaults that are not their stage field's: the second canceller
# stage is the short, fast half of a long-slow/short-fast pair (raec.py):
# one partition at twice stage 1's step. It retracks a changed echo path
# sooner than four partitions at stage 1's step, and the stacked filter
# holds 9 weight rows instead of 12.
_OWN_DEFAULTS = {"raec2.partitions": 1, "raec2.mu": 1.0}


def _genes(prefix: str, cls) -> list[Field]:
    genes = []
    for f in fields(cls):
        if "gene" not in f.metadata:
            continue
        default, low, high, kind, db = f.metadata["gene"]
        name = f"{prefix}.{f.name}" + ("_db" if db else "")
        genes.append(Field(name, kind or ("int" if f.type == "int" else "real"),
                           _OWN_DEFAULTS.get(name, default), low, high))
    return genes


SCHEMA: tuple[Field, ...] = tuple(
    g for prefix, (_, cls) in STAGES.items() for g in _genes(prefix, cls))

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
