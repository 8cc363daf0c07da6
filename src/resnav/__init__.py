"""Point-goal navigation with a potential-field prior and a learned residual.

The package bundles a 2D kinematic simulator with a planar lidar, an
artificial-potential-field controller, TD3 training of a residual (or
end-to-end) actor on a sparse goal reward, an uncertainty gate that falls
back to the prior when Monte-Carlo dropout disagrees with itself, and an
evaluation harness reporting success rate, SPL against an A* oracle, and
actuation time.
"""

from .env import EpisodeConfig, NavEnv, SensorConfig, Terminal
from .errors import ConfigurationError, TrainingDiverged, UsageError
from .evaluation import EvalResult, evaluate, spl_term
from .grid import ShortestPathOracle, astar_path, astar_shortest, rasterize
from .nn import Adam, Mlp, load_checkpoint, mc_statistics, save_checkpoint
from .policy import (
    EndToEndPolicy,
    GatedResidualPolicy,
    PolicyMode,
    PriorPolicy,
    RandomPolicy,
    ResidualPolicy,
    make_policy,
)
from .prior import Action, PriorParams, compose_hybrid, prior_command
from .rollout import load_trajectory, run_episode, save_trajectory
from .td3 import Td3Config, train
from .world import Circle, Pose, Rect, WorldSpec, load_world, save_world, scan
from .worldgen import WorldGenParams, generate_suite, load_suite, write_suite

__all__ = [
    "Action",
    "Adam",
    "Circle",
    "ConfigurationError",
    "EndToEndPolicy",
    "EpisodeConfig",
    "EvalResult",
    "GatedResidualPolicy",
    "Mlp",
    "NavEnv",
    "PolicyMode",
    "Pose",
    "PriorParams",
    "PriorPolicy",
    "RandomPolicy",
    "Rect",
    "ResidualPolicy",
    "SensorConfig",
    "ShortestPathOracle",
    "Td3Config",
    "Terminal",
    "TrainingDiverged",
    "UsageError",
    "WorldGenParams",
    "WorldSpec",
    "astar_path",
    "astar_shortest",
    "compose_hybrid",
    "evaluate",
    "generate_suite",
    "load_checkpoint",
    "load_suite",
    "load_trajectory",
    "load_world",
    "make_policy",
    "mc_statistics",
    "prior_command",
    "rasterize",
    "run_episode",
    "save_checkpoint",
    "save_trajectory",
    "save_world",
    "scan",
    "spl_term",
    "train",
    "write_suite",
]
