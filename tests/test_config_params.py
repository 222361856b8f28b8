from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from echoforge.config import (as_bool, as_float, as_int, as_paths,
                              format_config, parse_config_text)
from echoforge.dtp import DtpParams
from echoforge.errors import ConfigError, gene
from echoforge.npe import NpeParams
from echoforge.params import (SCHEMA, STAGES, PipelineParams, build_pipeline_params,
                              default_params, field, validate_params)
from echoforge.raec import RaecParams
from echoforge.rpe import RpeParams
from echoforge.suppressor import SuppressorParams
from echoforge.tuner import default_bounds, sample_uniform
from echoforge.vad import VadParams


class TestConfigFormat:
    def test_parse_basic(self):
        text = """
        # a comment
        raec1.mu = 0.5
        dtp.k_begin = 10   # trailing comment
        stft.window = sqrt-hann
        """
        values = parse_config_text(text)
        assert values == {"raec1.mu": "0.5", "dtp.k_begin": "10",
                          "stft.window": "sqrt-hann"}

    def test_round_trip(self):
        values = {"raec1.mu": 0.5125, "vad.hangover": 8, "flag": True}
        parsed = parse_config_text(format_config(values, header="hi\nthere"))
        assert parsed == {"raec1.mu": "0.5125", "vad.hangover": "8",
                          "flag": "true"}
        assert as_float(parsed["raec1.mu"], "raec1.mu") == 0.5125
        assert as_bool(parsed["flag"], "flag") is True

    def test_bad_lines_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a line without equals")
        with pytest.raises(ConfigError):
            parse_config_text("= value")
        with pytest.raises(ConfigError):
            parse_config_text("a = 1\na = 2")

    def test_coercions(self):
        assert as_int("42", "k") == 42
        assert as_paths("a.wav, b.wav ,") == ["a.wav", "b.wav"]
        with pytest.raises(ConfigError):
            as_int("x", "k")
        with pytest.raises(ConfigError):
            as_float("x", "k")
        for raw in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match="k: expected a finite number"):
                as_float(raw, "k")
        with pytest.raises(ConfigError, match="k: expected a non-negative integer"):
            as_int("-1", "k")
        with pytest.raises(ConfigError):
            as_bool("maybe", "k")


class TestParamSchema:
    def test_defaults_are_feasible(self):
        validate_params(default_params())

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="raec1.turbo"):
            validate_params({"raec1.turbo": 1.0})

    def test_out_of_bounds_rejected_with_field_name(self):
        with pytest.raises(ConfigError, match="raec1.mu"):
            validate_params({"raec1.mu": 5.0})

    def test_integrality_enforced(self):
        with pytest.raises(ConfigError, match="vad.hangover"):
            validate_params({"vad.hangover": 2.5})
        with pytest.raises(ConfigError, match="raec1.frame_size"):
            validate_params({"raec1.frame_size": 300})

    def test_every_field_has_usable_bounds(self):
        for f in SCHEMA:
            assert f.low <= f.default <= f.high, f.name
            assert f.kind in ("real", "int", "log", "pow2"), f.name
            if f.kind == "log":
                assert f.low > 0, f.name

    def test_unknown_gene_kind_rejected(self):
        # at import of the stage that declares it, before the tuner draws it
        with pytest.raises(ConfigError, match="unknown gene kind 'cubic'"):
            gene(1.0, 0.0, 2.0, "cubic")

    def test_field_lookup(self):
        assert field("ns.g_min").kind == "real"
        with pytest.raises(ConfigError):
            field("nope")

    def test_search_space_pinned(self):
        # the GA draws genes in this order, by these kinds and bounds
        rows = [(f.name, f.kind, f.default, f.low, f.high) for f in SCHEMA]
        assert rows == SEARCH_SPACE
        assert [tuple(map(type, row)) for row in rows] == \
            [tuple(map(type, row)) for row in SEARCH_SPACE]


# SCHEMA as a table: name, kind, default, low, high, each value of its type.
SEARCH_SPACE = [
    ('raec1.frame_size', 'pow2', 256, 64, 1024),
    ('raec1.partitions', 'int', 8, 1, 16),
    ('raec1.iterations', 'int', 2, 1, 4),
    ('raec1.mu', 'real', 0.5, 0.05, 1.9),
    ('raec1.gamma', 'real', 1.5, 0.5, 4.0),
    ('raec1.alpha', 'real', 0.9, 0.5, 0.995),
    ('raec2.partitions', 'int', 1, 1, 16),
    ('raec2.mu', 'real', 1.0, 0.05, 1.9),
    ('raec2.gamma', 'real', 1.5, 0.5, 4.0),
    ('raec2.alpha', 'real', 0.9, 0.5, 0.995),
    ('dtp.a01', 'log', 0.01, 0.0001, 0.5),
    ('dtp.a10', 'log', 0.01, 0.0001, 0.5),
    ('dtp.b01', 'real', 0.1, 0.0, 1.0),
    ('dtp.b10', 'real', 0.1, 0.0, 1.0),
    ('dtp.alpha', 'real', 0.9, 0.5, 0.995),
    ('dtp.beta', 'real', 0.7, 0.0, 0.99),
    ('dtp.k_begin', 'int', 10, 0, 64),
    ('dtp.k_end', 'int', 109, 65, 256),
    ('dtp.tau', 'log', 0.1, 0.01, 1.0),
    ('rpe.partitions_high', 'int', 4, 1, 8),
    ('rpe.partitions_low', 'int', 2, 1, 8),
    ('rpe.alpha_high', 'real', 0.92, 0.5, 0.995),
    ('rpe.alpha_low', 'real', 0.92, 0.5, 0.995),
    ('npe.xi_h1_db', 'real', 15.0, 5.0, 30.0),
    ('npe.p_threshold', 'real', 0.99, 0.8, 0.999),
    ('npe.alpha_p', 'real', 0.9, 0.5, 0.99),
    ('npe.alpha_npe', 'real', 0.9, 0.5, 0.95),
    ('ns.alpha_dd', 'real', 0.98, 0.8, 0.999),
    ('ns.g_min', 'real', 0.1, 0.0, 1.0),
    ('ns.theta1_db', 'real', -5.0, -30.0, 10.0),
    ('ns.theta2_db', 'real', 5.0, -10.0, 30.0),
    ('ns.mask_alpha', 'real', 0.5, 0.0, 2.0),
    ('vad.threshold', 'real', 38.55, 0.0, 200.0),
    ('vad.hangover', 'int', 8, 0, 32),
]


STAGE_CLASSES = (RaecParams, DtpParams, RpeParams, NpeParams, SuppressorParams, VadParams)
# Every float and every int field of the six stage dataclasses, by (class, field name).
STAGE_FLOAT_FIELDS = [(cls, f.name) for cls in STAGE_CLASSES
                      for f in fields(cls) if f.type == "float"]
STAGE_INT_FIELDS = [(cls, f.name) for cls in STAGE_CLASSES
                    for f in fields(cls) if f.type == "int"]


class TestStageParamsFinite:
    def test_every_stage_has_float_fields(self):
        assert {cls for cls, _ in STAGE_FLOAT_FIELDS} == {
            RaecParams, DtpParams, RpeParams, NpeParams, SuppressorParams, VadParams}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cls, name", STAGE_FLOAT_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in STAGE_FLOAT_FIELDS])
    def test_non_finite_value_rejected_by_name(self, cls, name, value):
        # in library use too, not only through the schema bounds
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            cls(**{name: value})


class TestStageParamsInteger:
    def test_every_int_field_listed(self):
        assert len(STAGE_INT_FIELDS) == 8

    @pytest.mark.parametrize("cls, name, value", [(RaecParams, "frame_size", 2**1100),
                                                  (VadParams, "hangover", 10**400)],
                             ids=["RaecParams.frame_size", "VadParams.hangover"])
    def test_int_too_large_for_a_float_accepted(self, cls, name, value):
        # an int is finite however large: no OverflowError from the float check
        assert getattr(cls(**{name: value}), name) == value

    @pytest.mark.parametrize("cls, name", STAGE_INT_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in STAGE_INT_FIELDS])
    def test_non_integral_value_rejected_by_name(self, cls, name):
        # in library use too: the stage would otherwise build and then fail
        # with TypeError on an array size, or run on a fractional count
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got 2.5$"):
            cls(**{name: 2.5})


class TestBuildPipelineParams:
    def test_defaults_build(self):
        params = build_pipeline_params()
        assert params.raec1.partitions == 8
        assert params.raec2.partitions == 1
        assert params.raec2.mu == 1.0
        assert params.suppressor.theta1 == pytest.approx(10 ** -0.5)

    def test_schema_defaults_equal_stage_defaults(self):
        # SCHEMA takes each default from its stage field, raec2's partitions and mu aside
        assert build_pipeline_params() == PipelineParams(
            RaecParams(), RaecParams(partitions=1, mu=1.0), DtpParams(), RpeParams(),
            NpeParams(), SuppressorParams(), VadParams())

    def test_overrides_apply(self):
        params = build_pipeline_params({"raec1.mu": 0.25, "vad.hangover": 3,
                                        "raec1.frame_size": 128, "raec1.iterations": 3})
        assert params.raec1.mu == 0.25
        assert params.vad.hangover == 3
        # stage 2 takes stage 1's block size and iteration count
        assert (params.raec2.frame_size, params.raec2.iterations) == (128, 3)

    def test_threshold_order_checked_by_name(self):
        with pytest.raises(ConfigError, match="theta"):
            build_pipeline_params({"ns.theta1_db": 6.0, "ns.theta2_db": -6.0})

    def test_db_fields_converted(self):
        params = build_pipeline_params({"npe.xi_h1_db": 20.0})
        assert params.npe.xi_h1 == pytest.approx(100.0)


def _explicit_build(p: dict, cap_at_unity: bool = False) -> PipelineParams:
    """Reference: every gene written out by hand, as the builder once was."""
    def raec(prefix: str) -> RaecParams:
        # stage 2 runs on stage 1's block size and iteration count
        return RaecParams(
            frame_size=int(p["raec1.frame_size"]),
            partitions=int(p[f"{prefix}.partitions"]),
            iterations=int(p["raec1.iterations"]),
            mu=p[f"{prefix}.mu"],
            gamma=p[f"{prefix}.gamma"],
            alpha=p[f"{prefix}.alpha"],
        )

    theta1 = 10.0 ** (p["ns.theta1_db"] / 10.0)
    theta2 = 10.0 ** (p["ns.theta2_db"] / 10.0)
    if theta1 >= theta2:
        raise ConfigError(
            f"need theta1 < theta2, got ns.theta1_db={p['ns.theta1_db']}"
            f" >= ns.theta2_db={p['ns.theta2_db']}")
    return PipelineParams(
        raec1=raec("raec1"),
        raec2=raec("raec2"),
        dtp=DtpParams(
            a01=p["dtp.a01"], a10=p["dtp.a10"],
            b01=p["dtp.b01"], b10=p["dtp.b10"],
            alpha=p["dtp.alpha"], beta=p["dtp.beta"],
            k_begin=int(p["dtp.k_begin"]), k_end=int(p["dtp.k_end"]),
            tau=p["dtp.tau"],
        ),
        rpe=RpeParams(
            partitions_high=int(p["rpe.partitions_high"]),
            partitions_low=int(p["rpe.partitions_low"]),
            alpha_high=p["rpe.alpha_high"], alpha_low=p["rpe.alpha_low"],
        ),
        npe=NpeParams(
            xi_h1=10.0 ** (p["npe.xi_h1_db"] / 10.0),
            p_threshold=p["npe.p_threshold"],
            alpha_p=p["npe.alpha_p"], alpha_npe=p["npe.alpha_npe"],
        ),
        suppressor=SuppressorParams(
            alpha_dd=p["ns.alpha_dd"], g_min=p["ns.g_min"],
            theta1=theta1, theta2=theta2, mask_alpha=p["ns.mask_alpha"],
            cap_at_unity=cap_at_unity,
        ),
        vad=VadParams(
            threshold=p["vad.threshold"], hangover=int(p["vad.hangover"]),
        ),
    )


def _built(p: dict, cap_at_unity: bool, build):
    """repr of the built stages (it shows each value's type), or the error."""
    try:
        return repr(build(p, cap_at_unity=cap_at_unity))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


class TestSchemaRule:
    @pytest.mark.parametrize("cap_at_unity", [False, True])
    def test_defaults_match_explicit_mapping(self, cap_at_unity):
        p = default_params()
        assert build_pipeline_params(p, cap_at_unity) == _explicit_build(p, cap_at_unity)
        assert _built(p, cap_at_unity, build_pipeline_params) == \
            _built(p, cap_at_unity, _explicit_build)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_uniform_draws_match_explicit_mapping(self, seed):
        rng = np.random.default_rng(seed)
        bounds = default_bounds()
        infeasible = 0
        for i in range(5000):
            p = sample_uniform(bounds, rng)
            if i % 2:  # as a config file gives them: every value a float
                p = {name: float(v) for name, v in p.items()}
            cap_at_unity = i % 4 >= 2
            want = _built(p, cap_at_unity, _explicit_build)
            assert _built(p, cap_at_unity, build_pipeline_params) == want, p
            infeasible += want.startswith("ConfigError")
        # about one draw in eight has an unordered theta pair
        assert 400 < infeasible < 850

    def test_every_stage_field_is_set_by_one_gene(self):
        set_by = Counter()
        for f in SCHEMA:
            prefix, name = f.name.split(".")
            set_by[STAGES[prefix][0], name.removesuffix("_db")] += 1
        stage_fields = {(attr, stage_field.name) for attr, cls in STAGES.values()
                        for stage_field in fields(cls)}
        # stage 1's genes set stage 2's block size and iteration count
        shared = {("raec2", "frame_size"), ("raec2", "iterations")}
        assert set(set_by) == stage_fields - {("suppressor", "cap_at_unity")} - shared
        assert set(set_by.values()) == {1}
        assert [attr for attr, _ in STAGES.values()] == \
            [f.name for f in fields(PipelineParams)]
