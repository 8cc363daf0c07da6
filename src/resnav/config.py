"""Experiment configuration: one JSON file describing a full study.

The file carries every knob for world generation, the sensor, episode
rules, the prior controller, TD3, and evaluation, so that runs are
reproducible from the file alone. Sections may be omitted (defaults
apply) but unknown keys are rejected everywhere. The discount factor
lives only in the episode section and the SPL planner's cell only in the
evaluation section; the trainer inherits both from there.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .env import EpisodeConfig, SensorConfig
from .errors import ConfigurationError, check_finite
from .fileio import read_json, write_atomically
from .prior import PriorParams
from .td3 import TRAIN_MODES, Td3Config
from .worldgen import WorldGenParams

EXP_FORMAT = "exp/1"


@dataclass(frozen=True)
class WorldsConfig:
    train_dir: str = "worlds/train"
    heldout_dir: str = "worlds/heldout"
    n_train: int = 10
    n_heldout: int = 5
    seed_train: int = 1000
    seed_heldout: int = 2000

    def __post_init__(self) -> None:
        if not self.train_dir or not self.heldout_dir:
            raise ConfigurationError("world directories must be non-empty paths")
        if self.train_dir == self.heldout_dir:
            raise ConfigurationError("train and heldout suites need distinct directories")
        if self.n_train < 1 or self.n_heldout < 1:
            raise ConfigurationError("suite sizes must be >= 1")


@dataclass(frozen=True)
class EvaluationConfig:
    n_episodes: int = 100
    n_passes: int = 100
    grid_cell: float = 0.05
    seed_base: int = 0

    def __post_init__(self) -> None:
        check_finite(self)
        if self.n_episodes < 1:
            raise ConfigurationError("evaluation n_episodes must be >= 1")
        if self.n_passes < 2:
            raise ConfigurationError("evaluation n_passes must be >= 2")
        if self.grid_cell <= 0:
            raise ConfigurationError("evaluation grid_cell must be positive")
        if self.seed_base < 0:
            raise ConfigurationError("evaluation seed_base must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "residual"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    out_dir: str = "runs/default"
    worlds: WorldsConfig = field(default_factory=WorldsConfig)
    worldgen: WorldGenParams = field(default_factory=WorldGenParams)
    sensor: SensorConfig = field(default_factory=SensorConfig)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    prior: PriorParams = field(default_factory=PriorParams)
    td3: Td3Config = field(default_factory=Td3Config)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.mode not in TRAIN_MODES:
            raise ConfigurationError(f"mode must be one of {tuple(TRAIN_MODES)}, got {self.mode!r}")
        if not self.seeds:
            raise ConfigurationError("seeds must be a non-empty list")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be distinct")
        if not self.out_dir:
            raise ConfigurationError("out_dir must be a non-empty path")


_SECTIONS = {
    "worlds": WorldsConfig,
    "worldgen": WorldGenParams,
    "sensor": SensorConfig,
    "episode": EpisodeConfig,
    "prior": PriorParams,
    "td3": Td3Config,
    "evaluation": EvaluationConfig,
}
_TOP_KEYS = {"format", "mode", "seeds", "out_dir", *_SECTIONS}
# (section, key) that no longer belong to that section -> where the setting lives now
_MOVED_KEYS = {
    ("td3", "gamma"): "episode.gamma",
    ("td3", "eval_grid_cell"): "evaluation.grid_cell",
}


def _check_keys(section: str, data: dict, allowed: set[str]) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigurationError(f"{section}: unknown key(s) {unknown}")


def _build(name: str, cls, data: dict) -> object:
    """cls(**data), with a mistyped value reported as a ConfigurationError naming the section."""
    try:
        return cls(**data)
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name}: bad value: {exc}") from exc


def _build_section(name: str, cls, data) -> object:
    if not isinstance(data, dict):
        raise ConfigurationError(f"{name}: expected an object, got {type(data).__name__}")
    for key in data:
        if (name, key) in _MOVED_KEYS:
            raise ConfigurationError(f"{name}: {key} is not accepted here; use {_MOVED_KEYS[name, key]}")
    _check_keys(name, data, {f.name for f in fields(cls)})
    return _build(name, cls, data)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError(f"config root must be an object, got {type(data).__name__}")
    if data.get("format") != EXP_FORMAT:
        raise ConfigurationError(f"unsupported config format {data.get('format')!r}")
    _check_keys("config", data, _TOP_KEYS)
    sections = {name: _build_section(name, cls, data.get(name, {})) for name, cls in _SECTIONS.items()}
    return _build("config", ExperimentConfig, {
        "mode": data.get("mode", "residual"),
        "seeds": data.get("seeds", (0, 1, 2, 3, 4)),
        "out_dir": data.get("out_dir", "runs/default"),
        **sections,
    })


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "format": EXP_FORMAT,
        "mode": config.mode,
        "seeds": list(config.seeds),
        "out_dir": config.out_dir,
        **{name: asdict(getattr(config, name)) for name in _SECTIONS},
    }


def config_to_json(config: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    write_atomically(path, config_to_json(config))


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    return config_from_dict(read_json(path))
