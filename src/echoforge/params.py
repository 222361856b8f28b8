"""The full tunable parameter set: names, kinds, bounds, defaults.

Every stage parameter is a gene with a dotted name, ``<prefix>.<name>``,
so the same flat dictionary serves the config files, the CLI and the
genetic tuner. Each gene is declared once, on its stage dataclass field
(`errors.gene`), with its default, its bounds and, when it is one, its
``log`` or ``pow2`` kind. The fields of PipelineParams are the stages;
a field's metadata may give its gene prefix (``ns``, the suppressor's)
and gene defaults of its own (stage 2's). STAGES and SCHEMA are derived
from them; SCHEMA's order, stage then field, is the tuner's draw order.
Kinds drive how the tuner samples and mutates a gene: ``real`` and ``int``
are uniform in the bound interval, ``log`` works in log10 space, ``pow2``
walks power-of-two exponents. Gene ``<prefix>.<name>`` sets field ``name``
of its stage, through ``int()`` for an ``int`` or ``pow2`` gene; a
``<name>_db`` gene sets ``name`` to `errors.db_ratio`, ``10 ** (v / 10)``.
"""

import dataclasses
from dataclasses import dataclass, fields

from .dtp import DtpParams
from .errors import ConfigError, db_ratio, is_pow2
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
    # The second canceller stage is the short, fast half of a
    # long-slow/short-fast pair (raec.py): one partition at twice stage 1's
    # step. It retracks a changed echo path sooner than four partitions at
    # stage 1's step, and the stacked filter holds 9 weight rows instead of 12.
    raec2: RaecParams = dataclasses.field(metadata={"defaults": {"partitions": 1, "mu": 1.0}})
    dtp: DtpParams
    rpe: RpeParams
    npe: NpeParams
    suppressor: SuppressorParams = dataclasses.field(metadata={"prefix": "ns"})
    vad: VadParams


def _prefix(stage: dataclasses.Field) -> str:
    return stage.metadata.get("prefix", stage.name)


# gene prefix -> (PipelineParams field, stage class); without postponed
# annotations in this module, a field's type is its stage class
STAGES = {_prefix(stage): (stage.name, stage.type) for stage in fields(PipelineParams)}


def _genes(stage: dataclasses.Field) -> list[Field]:
    """The genes of one PipelineParams field, in its stage class's field order."""
    own_defaults = stage.metadata.get("defaults", {})
    genes = []
    for f in fields(stage.type):
        if "gene" not in f.metadata:
            continue
        default, low, high, kind, db = f.metadata["gene"]
        name = f"{_prefix(stage)}.{f.name}" + ("_db" if db else "")
        genes.append(Field(name, kind or ("int" if f.type == "int" else "real"),
                           own_defaults.get(f.name, default), low, high))
    return genes


SCHEMA: tuple[Field, ...] = tuple(
    g for stage in fields(PipelineParams) for g in _genes(stage))

_BY_NAME = {f.name: f for f in SCHEMA}


def field(name: str) -> Field:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown parameter {name!r}") from None


def default_params() -> dict:
    return {f.name: f.default for f in SCHEMA}


def validate_params(params: dict) -> None:
    """Reject unknown names, out-of-bound values, non-integral integers."""
    for name, value in params.items():
        f = field(name)
        if not f.low <= value <= f.high:
            raise ConfigError(f"{name} = {value} outside bounds [{f.low}, {f.high}]")
        if f.kind == "int" and not float(value).is_integer():
            raise ConfigError(f"{name} must be an integer, got {value}")
        if f.kind == "pow2" and not is_pow2(value):
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
    kwargs = {prefix: {} for prefix in STAGES}
    kwargs["ns"]["cap_at_unity"] = cap_at_unity
    for f in SCHEMA:
        prefix, name = f.name.split(".")
        value = int(p[f.name]) if f.kind in ("int", "pow2") else p[f.name]
        if name.endswith("_db"):
            name, value = name.removesuffix("_db"), db_ratio(value)
        kwargs[prefix][name] = value
    if kwargs["ns"]["theta1"] >= kwargs["ns"]["theta2"]:
        low, high = THETA_PAIR
        raise ConfigError(f"need theta1 < theta2, got {low}={p[low]} >= {high}={p[high]}")
    return PipelineParams(**{attr: cls(**kwargs[prefix])
                             for prefix, (attr, cls) in STAGES.items()})
