"""Tests for the experiment config file format."""

import dataclasses
import json
import math

import pytest

from resnav.config import (
    EXP_FORMAT,
    EvaluationConfig,
    ExperimentConfig,
    WorldsConfig,
    config_from_dict,
    config_to_dict,
    config_to_json,
    load_config,
    save_config,
)
from resnav.env import EpisodeConfig, SensorConfig
from resnav.errors import ConfigurationError
from resnav.prior import PriorParams
from resnav.td3 import Td3Config

# every float field of the config dataclasses besides WorldGenParams (tests/test_worldgen.py)
FLOAT_FIELDS = [(cls, f.name) for cls in (EpisodeConfig, SensorConfig, PriorParams, EvaluationConfig, Td3Config)
                for f in dataclasses.fields(cls) if isinstance(f.default, float)]


class TestRoundTrip:
    def test_defaults_round_trip(self):
        config = ExperimentConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_json_text_round_trip(self):
        config = ExperimentConfig(mode="end_to_end", seeds=(3, 4), out_dir="runs/x")
        text = config_to_json(config)
        assert config_from_dict(json.loads(text)) == config

    def test_file_round_trip_is_byte_stable(self, tmp_path):
        path = tmp_path / "exp.json"
        config = ExperimentConfig()
        save_config(config, path)
        first = path.read_bytes()
        save_config(load_config(path), path)
        assert path.read_bytes() == first

    def test_nondefault_values_propagate(self):
        data = {
            "format": EXP_FORMAT,
            "mode": "end_to_end",
            "seeds": [7],
            "episode": {"gamma": 0.95, "max_steps": 120},
            "sensor": {"n_rays": 90},
            "td3": {"hidden_sizes": [32, 32], "total_episodes": 50},
            "worldgen": {"n_obstacles_min": 0, "n_obstacles_max": 2},
        }
        config = config_from_dict(data)
        assert config.mode == "end_to_end"
        assert config.seeds == (7,)
        assert config.sensor.n_rays == 90
        assert config.td3.hidden_sizes == (32, 32)
        assert config.episode.max_steps == 120
        assert config.worldgen.n_obstacles_max == 2


class TestStrictness:
    def test_missing_format_rejected(self):
        with pytest.raises(ConfigurationError, match="format"):
            config_from_dict({"mode": "residual"})

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigurationError, match="format"):
            config_from_dict({"format": "exp/2"})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            config_from_dict({"format": EXP_FORMAT, "bogus": 1})

    def test_unknown_section_key_names_the_section(self):
        with pytest.raises(ConfigurationError, match="sensor"):
            config_from_dict({"format": EXP_FORMAT, "sensor": {"rays": 10}})

    def test_gamma_in_td3_section_rejected(self):
        with pytest.raises(ConfigurationError, match="episode.gamma"):
            config_from_dict({"format": EXP_FORMAT, "td3": {"gamma": 0.9}})

    def test_eval_grid_cell_in_td3_section_rejected(self):
        with pytest.raises(ConfigurationError, match="evaluation.grid_cell"):
            config_from_dict({"format": EXP_FORMAT, "td3": {"eval_grid_cell": 0.1}})

    @pytest.mark.parametrize("entry", ['"dt": NaN', '"d_threshold": Infinity', '"dt": -Infinity',
                                       '"d_threshold": 1e999'])
    def test_non_finite_number_names_the_file(self, tmp_path, entry):
        p = tmp_path / "x.json"
        p.write_text('{"format": "exp/1", "episode": {%s}}' % entry)
        with pytest.raises(ConfigurationError, match="x.json"):
            load_config(p)

    def test_non_object_root_names_the_file(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="x.json.*object"):
            load_config(p)

    @pytest.mark.parametrize("key, value, section", [
        ("sensor", {"n_rays": "abc"}, "sensor"),
        ("seeds", ["a"], "config"),
        ("td3", {"hidden_sizes": 5}, "td3"),
        ("episode", {"max_steps": None}, "episode"),
    ])
    def test_mistyped_value_names_the_section(self, key, value, section):
        with pytest.raises(ConfigurationError, match=f"^{section}: bad value"):
            config_from_dict({"format": EXP_FORMAT, key: value})

    def test_batch_larger_than_buffer_names_both_fields(self):
        with pytest.raises(ConfigurationError, match="batch_size=64 exceeds buffer_capacity=32"):
            config_from_dict({"format": EXP_FORMAT, "td3": {"batch_size": 64, "buffer_capacity": 32}})

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="expected an object"):
            config_from_dict({"format": EXP_FORMAT, "td3": 5})

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{nope")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path / "absent.json")


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ExperimentConfig(mode="gated")

    def test_empty_seeds(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            ExperimentConfig(seeds=())

    def test_duplicate_seeds(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            ExperimentConfig(seeds=(1, 1))

    def test_worlds_dirs_must_differ(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            WorldsConfig(train_dir="w", heldout_dir="w")

    def test_evaluation_validation(self):
        with pytest.raises(ConfigurationError):
            EvaluationConfig(n_episodes=0)
        with pytest.raises(ConfigurationError):
            EvaluationConfig(n_passes=1)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
    def test_non_finite_float_rejected_by_name(self, cls, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
            cls(**{name: value})
