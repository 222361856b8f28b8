import pytest

from echoforge.config import (as_bool, as_float, as_int, as_paths,
                              format_config, parse_config_text)
from echoforge.dtp import DtpParams
from echoforge.errors import ConfigError
from echoforge.npe import NpeParams
from echoforge.params import (SCHEMA, PipelineParams, build_pipeline_params,
                              default_params, field, validate_params)
from echoforge.raec import RaecParams
from echoforge.rpe import RpeParams
from echoforge.suppressor import SuppressorParams
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

    def test_field_lookup(self):
        assert field("ns.g_min").kind == "real"
        with pytest.raises(ConfigError):
            field("nope")


class TestBuildPipelineParams:
    def test_defaults_build(self):
        params = build_pipeline_params()
        assert params.raec1.partitions == 8
        assert params.raec2.partitions == 4
        assert params.suppressor.theta1 == pytest.approx(10 ** -0.5)

    def test_schema_defaults_equal_stage_defaults(self):
        # each default is written twice: in SCHEMA and in its stage dataclass
        assert build_pipeline_params() == PipelineParams(
            RaecParams(), RaecParams(partitions=4), DtpParams(), RpeParams(),
            NpeParams(), SuppressorParams(), VadParams())

    def test_overrides_apply(self):
        params = build_pipeline_params({"raec1.mu": 0.25, "vad.hangover": 3})
        assert params.raec1.mu == 0.25
        assert params.vad.hangover_frames == 3

    def test_threshold_order_checked_by_name(self):
        with pytest.raises(ConfigError, match="theta"):
            build_pipeline_params({"ns.theta1_db": 6.0, "ns.theta2_db": -6.0})

    def test_db_fields_converted(self):
        params = build_pipeline_params({"npe.xi_h1_db": 20.0})
        assert params.npe.xi_h1 == pytest.approx(100.0)
