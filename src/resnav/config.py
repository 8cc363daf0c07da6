"""Experiment configuration: one JSON file describing a full study.

The file carries every knob for world generation, the sensor, episode
rules, the prior controller, TD3, and evaluation, so that runs are
reproducible from the file alone. Sections may be omitted (defaults
apply) but unknown keys are rejected everywhere. The discount factor
lives only in the episode section and the SPL planner's cell only in the
evaluation section; the trainer inherits both from there.

Every section, and the file's top level, is one validation table: each
field takes its type from its default and states its bounds on itself
(errors.bounded) and errors.check_fields checks them all. The file is
read by fileio.from_doc, each section as the dataclass of its field, and
a section's errors are prefixed with its name. Only rules that span
fields are written by hand.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from .env import EpisodeConfig, SensorConfig
from .errors import ConfigurationError, bounded, check_fields, require
from .fileio import from_doc, json_text, read_json, write_atomically
from .policy import TRAINING_MODES
from .prior import PriorParams
from .td3 import Td3Config
from .worldgen import WorldGenParams

EXP_FORMAT = "exp/1"


@dataclass(frozen=True)
class WorldsConfig:
    train_dir: str = "worlds/train"
    heldout_dir: str = "worlds/heldout"
    n_train: int = bounded(10, ge=1)
    n_heldout: int = bounded(5, ge=1)
    seed_train: int = bounded(1000, ge=0)
    seed_heldout: int = bounded(2000, ge=0)

    def __post_init__(self) -> None:
        check_fields(self)
        require(self.train_dir != self.heldout_dir, "train_dir and heldout_dir must be distinct directories")


@dataclass(frozen=True)
class EvaluationConfig:
    n_episodes: int = bounded(100, ge=1)
    n_passes: int = bounded(100, ge=2)
    grid_cell: float = bounded(0.05, gt=0.0)
    seed_base: int = bounded(0, ge=0)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "residual"
    seeds: tuple[int, ...] = bounded((0, 1, 2, 3, 4), ge=0)
    out_dir: str = "runs/default"
    worlds: WorldsConfig = field(default_factory=WorldsConfig)
    worldgen: WorldGenParams = field(default_factory=WorldGenParams)
    sensor: SensorConfig = field(default_factory=SensorConfig)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    prior: PriorParams = field(default_factory=PriorParams)
    td3: Td3Config = field(default_factory=Td3Config)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)

    def __post_init__(self) -> None:
        check_fields(self)
        require(self.mode in TRAINING_MODES, f"mode must be one of {tuple(TRAINING_MODES)}, got {self.mode!r}")
        require(len(set(self.seeds)) == len(self.seeds), f"seeds must be distinct, got {list(self.seeds)}")


# (section, key) that no longer belong to that section -> where the setting lives now
_MOVED_KEYS = {
    ("td3", "gamma"): "episode.gamma",
    ("td3", "eval_grid_cell"): "evaluation.grid_cell",
}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError(f"config root must be an object, got {type(data).__name__}")
    for (section, key), moved_to in _MOVED_KEYS.items():
        if isinstance(data.get(section), dict) and key in data[section]:
            raise ConfigurationError(f"{section}: {key} is not accepted here; use {moved_to}")
    return from_doc(ExperimentConfig, data, "config", EXP_FORMAT)


def config_to_dict(config: ExperimentConfig) -> dict:
    return {"format": EXP_FORMAT, **asdict(config)}


def config_to_json(config: ExperimentConfig) -> str:
    return json_text(config_to_dict(config))


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    write_atomically(path, config_to_json(config))


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    return read_json(path, config_from_dict)
