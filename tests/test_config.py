"""Tests for the experiment config file format."""

import contextlib
import dataclasses
import json
import math
import re

import pytest

from resnav import td3
from resnav.cli import main
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
from resnav.td3 import Td3Config, critic_update
from resnav.worldgen import WorldGenParams

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

    @pytest.mark.parametrize("key, value, section, name", [
        ("sensor", {"n_rays": "abc"}, "sensor", "n_rays"),
        ("seeds", ["a"], "config", "seeds"),
        ("td3", {"hidden_sizes": 5}, "td3", "hidden_sizes"),
        ("episode", {"max_steps": None}, "episode", "max_steps"),
    ])
    def test_mistyped_value_names_the_section(self, key, value, section, name):
        with pytest.raises(ConfigurationError, match=f"^{section}: {name} must be "):
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

    @pytest.mark.parametrize("cls, name, value", [
        (EpisodeConfig, "max_steps", 2.5), (EvaluationConfig, "n_passes", 2.5), (ExperimentConfig, "seeds", [1.9]),
        (WorldsConfig, "seed_train", -1), (PriorParams, "k_att", True), (WorldsConfig, "train_dir", 5),
    ])
    def test_once_accepted_value_rejected_by_name(self, cls, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be "):
            cls(**{name: value})

    def test_fractional_seed_in_a_file_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="^config: seeds must be an integer, got 1.9"):
            config_from_dict({"format": EXP_FORMAT, "seeds": [1.9]})

    def test_int_in_a_float_field_is_kept_as_given(self):
        config = ExperimentConfig(episode=EpisodeConfig(d_threshold=1), td3=Td3Config(hidden_sizes=[8]))
        assert config.episode.d_threshold == 1 and type(config.episode.d_threshold) is int
        assert config.td3.hidden_sizes == (8,)
        assert json.loads(config_to_json(config))["episode"]["d_threshold"] == 1

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
    def test_non_finite_float_rejected_by_name(self, cls, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
            cls(**{name: value})


# Each value here is tried on every field of every config class; the values come from this
# list, not from the bounds the classes declare. A value must be rejected by a
# ConfigurationError that names the field, or leave a tiny gen-worlds/train/eval working.
EDGE_VALUES = (0, -1, math.inf, math.nan, 2.5, True, "")
SECTIONS = {EpisodeConfig: "episode", SensorConfig: "sensor", PriorParams: "prior", WorldGenParams: "worldgen",
            Td3Config: "td3", WorldsConfig: "worlds", EvaluationConfig: "evaluation"}
TINY = ExperimentConfig(
    seeds=(0,),
    out_dir="runs",
    worlds=WorldsConfig(n_train=1, n_heldout=1),
    worldgen=WorldGenParams(n_obstacles_min=1, n_obstacles_max=2),
    episode=EpisodeConfig(max_steps=20),
    td3=Td3Config(hidden_sizes=(8,), batch_size=2, buffer_capacity=64, warmup_steps=2, total_episodes=2,
                  eval_every=2, eval_episodes=1),
    evaluation=EvaluationConfig(n_episodes=2, n_passes=2),
)


def _edge_cases():
    for cls in (*SECTIONS, ExperimentConfig):
        for f in dataclasses.fields(cls):
            tuples = (*((v,) for v in EDGE_VALUES), ()) if isinstance(f.default, tuple) else ()
            for value in (*EDGE_VALUES, *tuples):
                yield cls, {f.name: value}
    for lo, hi in (("n_obstacles_min", "n_obstacles_max"), ("rect_side_min", "rect_side_max"),
                   ("circle_radius_min", "circle_radius_max")):
        a, b = getattr(TINY.worldgen, lo), getattr(TINY.worldgen, hi)
        yield from ((WorldGenParams, {lo: x, hi: y}) for x, y in ((a, a), (b, b), (b, a)))
    yield from ((Td3Config, {"batch_size": b, "buffer_capacity": c}) for b, c in ((4, 4), (8, 4)))
    yield WorldsConfig, {"train_dir": "w", "heldout_dir": "w"}
    yield ExperimentConfig, {"seeds": (1, 1)}


EDGE_CASES = list(_edge_cases())


def _names_a_field(message: str, names) -> bool:
    return any(re.search(rf"\b{name}\b", message) for name in names)


class TestEdgeValues:
    @pytest.mark.parametrize("cls, overrides", EDGE_CASES,
                             ids=[f"{c.__name__}.{'+'.join(f'{k}={v!r}' for k, v in o.items())}" for c, o in EDGE_CASES])
    def test_edge_value_is_rejected_by_name_or_runs(self, cls, overrides, tmp_path, monkeypatch, capsys):
        try:
            if cls is ExperimentConfig:
                config = dataclasses.replace(TINY, **overrides)
            else:
                section = dataclasses.replace(getattr(TINY, SECTIONS[cls]), **overrides)
                config = dataclasses.replace(TINY, **{SECTIONS[cls]: section})
        except ConfigurationError as exc:
            assert _names_a_field(str(exc), overrides), exc
            return
        monkeypatch.chdir(tmp_path)
        save_config(config, "exp.json")
        updates = []
        monkeypatch.setattr(td3, "critic_update", lambda *args: updates.append(1) or critic_update(*args))
        # a dropout-free actor leaves the gated controller nothing to gate, and it says so
        warns = (pytest.warns(UserWarning, match="dropout-free network") if config.td3.dropout_p == 0
                 else contextlib.nullcontext())
        with warns:
            for command in (["gen-worlds"], ["train"], ["eval", "--controllers", "prior,gated"]):
                if main([*command, "--config", "exp.json"]) != 0:
                    err = capsys.readouterr().err
                    assert err.startswith("error: ") and _names_a_field(err, overrides), err
                    return
        assert updates

