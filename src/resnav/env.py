"""Point-goal navigation episodes over a WorldSpec.

Builds the policy observation, advances the unicycle, and classifies
terminal outcomes. Every observation is 21-dim and ends with the prior's
command for the current state (prior_of reads it); an end-to-end controller
reads its first E2E_OBS_DIM entries, without those two slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, UsageError, check_finite
from .prior import Action, PriorParams, prior_command
from .world import (
    Pose,
    WorldSpec,
    collides,
    normalize_angle,
    point_clear,
    sample_in_shape,
    scan,
    step_kinematics,
)

N_BINS = 15
RESIDUAL_OBS_DIM = 21
E2E_OBS_DIM = 19
_MAX_RESET_ATTEMPTS = 1000
# Reset seeds at and above this offset are reserved for evaluation, so the
# goals seen by any evaluation pass are disjoint from the training draws.
EVAL_SEED_OFFSET = 2**62

# Observation layout; the end-to-end prefix stops after IDX_PREV_OMEGA.
IDX_ANGLE_TO_GOAL = 15
IDX_DIST_TO_GOAL = 16
IDX_PREV_V = 17
IDX_PREV_OMEGA = 18
IDX_PRIOR_V = 19
IDX_PRIOR_OMEGA = 20


class Terminal(Enum):
    GOAL = "goal"
    COLLISION = "collision"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class EpisodeConfig:
    d_threshold: float = 0.2  # m, success iff distance to goal < this
    max_steps: int = 300
    gamma: float = 0.99
    dt: float = 0.1  # s

    def __post_init__(self) -> None:
        check_finite(self)
        if self.d_threshold <= 0.0:
            raise ConfigurationError(f"d_threshold must be positive, got {self.d_threshold}")
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class SensorConfig:
    n_rays: int = 180
    max_range: float = 5.0  # m

    def __post_init__(self) -> None:
        check_finite(self)
        if self.n_rays < N_BINS or self.n_rays % N_BINS != 0:
            raise ConfigurationError(
                f"n_rays must be >= {N_BINS} and divisible by {N_BINS}, got {self.n_rays}"
            )
        if self.max_range <= 0.0:
            raise ConfigurationError(f"max_range must be positive, got {self.max_range}")


@dataclass
class StepResult:
    observation: np.ndarray  # slots IDX_PREV_V/IDX_PREV_OMEGA hold the executed, clipped command
    reward: float  # sparse: 1.0 on the step that reaches the goal, else 0.0
    terminal: Terminal | None


def discounted_return(steps: int, terminal: Terminal | None, gamma: float) -> float:
    """Return of an episode of `steps` steps: the one goal reward, discounted to its step."""
    return gamma ** (steps - 1) if terminal is Terminal.GOAL else 0.0


def prior_of(observation: np.ndarray) -> Action:
    """The prior's command for the observed state, read from its two slots."""
    return Action(float(observation[IDX_PRIOR_V]), float(observation[IDX_PRIOR_OMEGA]))


def goal_polar(pose: Pose, goal: tuple[float, float]) -> tuple[float, float]:
    """Angle to the goal (rad, robot frame) and distance to it (m)."""
    angle = normalize_angle(math.atan2(goal[1] - pose.y, goal[0] - pose.x) - pose.theta)
    return angle, math.hypot(goal[0] - pose.x, goal[1] - pose.y)


def build_observation(
    ranges: np.ndarray,
    max_range: float,
    goal: tuple[float, float],
    prev_action: Action,
    prior_action: Action,
) -> np.ndarray:
    """Assemble the policy observation vector; goal is goal_polar's (angle, distance).

    Layout: 15 laser bins (min range per bin / max_range), angle to goal
    (rad, robot frame), distance to goal (m), previous executed (v, omega),
    then the prior command (v, omega). SensorConfig admits only ray counts
    that split into the 15 bins.
    """
    bins = ranges.reshape(N_BINS, -1).min(axis=1) / max_range
    tail = [*goal, prev_action.v, prev_action.omega, prior_action.v, prior_action.omega]
    return np.concatenate([bins, np.array(tail, dtype=np.float64)])


class NavEnv:
    """Episode runner binding a world, a sensor model, and the prior.

    Besides the live state it keeps the episode's start pose and the
    distance driven since reset (path_length, m).
    """

    def __init__(
        self,
        world: WorldSpec,
        episode: EpisodeConfig | None = None,
        sensor: SensorConfig | None = None,
        prior_params: PriorParams | None = None,
    ) -> None:
        self.world = world
        self.episode = episode or EpisodeConfig()
        self.sensor = sensor or SensorConfig()
        self.prior_params = prior_params or PriorParams()
        if self.prior_params.d_influence > self.sensor.max_range:
            raise ConfigurationError(
                f"prior d_influence={self.prior_params.d_influence} exceeds "
                f"laser max_range={self.sensor.max_range}"
            )
        self._pose: Pose | None = None
        self.start: Pose | None = None
        self.path_length = 0.0
        self._goal: tuple[float, float] | None = None
        self._steps = 0
        self._terminal: Terminal | None = Terminal.TIMEOUT  # force reset before stepping
        self._prev_action = Action(0.0, 0.0)

    @property
    def pose(self) -> Pose:
        if self._pose is None:
            raise UsageError("reset the environment before reading its state")
        return self._pose

    @property
    def goal(self) -> tuple[float, float]:
        if self._goal is None:
            raise UsageError("reset the environment before reading its state")
        return self._goal

    @property
    def steps(self) -> int:
        return self._steps

    def reset(self, seed: int) -> np.ndarray:
        """Sample a collision-free start pose and goal, return the first observation."""
        rng = np.random.default_rng(seed)
        self._pose = Pose(*self._sample_clear(self.world.start_region, rng), rng.uniform(-math.pi, math.pi))
        self.start = self._pose
        self._goal = self._sample_clear(self.world.goal_region, rng)
        self._steps = 0
        self.path_length = 0.0
        self._terminal = None
        self._prev_action = Action(0.0, 0.0)
        return self._observe(goal_polar(self._pose, self._goal))

    def _sample_clear(self, region, rng: np.random.Generator) -> tuple[float, float]:
        for _ in range(_MAX_RESET_ATTEMPTS):
            x, y = sample_in_shape(region, rng)
            if point_clear(self.world, x, y, self.world.robot_radius):
                return (x, y)
        raise UsageError(
            f"could not sample a collision-free point in {region} "
            f"after {_MAX_RESET_ATTEMPTS} attempts"
        )

    def step(self, action: Action) -> StepResult:
        if self._terminal is not None:
            raise UsageError("episode already terminated; call reset before stepping")
        v = min(max(action.v, -1.0), 1.0)
        omega = min(max(action.omega, -1.0), 1.0)
        prev = self._pose
        self._pose = step_kinematics(prev, v, omega, self.episode.dt)
        self._steps += 1
        self.path_length += math.hypot(self._pose.x - prev.x, self._pose.y - prev.y)

        polar = goal_polar(self._pose, self._goal)
        if polar[1] < self.episode.d_threshold:
            self._terminal = Terminal.GOAL
        elif collides(self._pose, self.world):
            self._terminal = Terminal.COLLISION
        elif self._steps >= self.episode.max_steps:
            self._terminal = Terminal.TIMEOUT

        self._prev_action = Action(v, omega)
        reward = 1.0 if self._terminal is Terminal.GOAL else 0.0
        return StepResult(self._observe(polar), reward, self._terminal)

    def _observe(self, polar: tuple[float, float]) -> np.ndarray:
        ranges = scan(self._pose, self.sensor.n_rays, self.sensor.max_range, self.world)
        prior = prior_command(ranges, polar[0], self.prior_params)
        return build_observation(ranges, self.sensor.max_range, polar, self._prev_action, prior)
