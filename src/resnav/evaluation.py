"""Controller evaluation: success rate, path efficiency, actuation time.

Every controller sees the same episode list (same worlds, same reset
seeds, hence identical start and goal draws), so the comparison is
paired. Path efficiency weights each success by the ratio of the
planner's shortest path to the driven path; failures contribute zero.
eval_seed and score_episode define a paired episode's seed and score for
every caller: paired_episodes (which runs evaluate and the trainer's
periodic evaluation alike) and `resnav rollout`.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .env import EVAL_SEED_OFFSET, EpisodeConfig, NavEnv, SensorConfig
from .errors import ConfigurationError
from .fileio import write_rows
from .grid import ShortestPathOracle
from .prior import PriorParams
from .rollout import run_episode
from .world import WorldSpec


@dataclass(frozen=True)
class EpisodeMetrics:
    mode: str
    episode: int
    seed: int
    world: int
    success: bool
    steps: int
    actuation_s: float
    path_length_m: float
    shortest_m: float
    spl_term: float | None  # None when the planner gave no usable length


def spl_term(success: bool, path_m: float, shortest_m: float) -> float | None:
    """One episode's efficiency-weighted success, None if not computable."""
    if not math.isfinite(shortest_m) or shortest_m <= 0.0:
        return None
    return float(success) * shortest_m / max(path_m, shortest_m)


def eval_seed(seed_base: int, i: int) -> int:
    """Reset seed of paired episode i; the offset keeps it clear of every training draw."""
    return EVAL_SEED_OFFSET + seed_base + i


def score_episode(label: str, i: int, seed: int, world_index: int, env: NavEnv, success: bool,
                  oracle: ShortestPathOracle) -> EpisodeMetrics:
    """Metrics of the episode env has just finished, against oracle's shortest path."""
    shortest = oracle.shortest(env.world, env.start.position(), env.goal)
    return EpisodeMetrics(
        mode=label, episode=i, seed=seed, world=world_index, success=success, steps=env.steps,
        actuation_s=env.steps * env.episode.dt, path_length_m=env.path_length, shortest_m=shortest,
        spl_term=spl_term(success, env.path_length, shortest),
    )


@dataclass
class ModeResult:
    mode: str
    episodes: list[EpisodeMetrics]

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    @property
    def success_rate(self) -> float:
        return _mean([e.success for e in self.episodes])

    @property
    def spl(self) -> float:
        return _mean([e.spl_term for e in self.episodes if e.spl_term is not None])

    @property
    def mean_actuation_s(self) -> float:
        return _mean([e.actuation_s for e in self.episodes])


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class EvalResult:
    results: dict[str, ModeResult]

    def __getitem__(self, label: str) -> ModeResult:
        return self.results[label]

    def report(self) -> str:
        lines = [f"{'controller':<14}{'episodes':>9}{'success':>9}{'spl':>8}{'actuation_s':>13}"]
        for label, res in self.results.items():
            lines.append(
                f"{label:<14}{res.n_episodes:>9d}{res.success_rate:>9.3f}"
                f"{res.spl:>8.3f}{res.mean_actuation_s:>13.2f}"
            )
        return "\n".join(lines) + "\n"

    def write_episode_csv(self, path: str | Path) -> None:
        write_rows(path, EpisodeMetrics, (e for res in self.results.values() for e in res.episodes))


def paired_episodes(label: str, envs: list[NavEnv], n_episodes: int, seed_base: int,
                    oracle: ShortestPathOracle, episode: Callable[[NavEnv, int], bool]) -> ModeResult:
    """Score episode(env, seed), which returns success, on each paired episode in turn.

    Episode i runs on envs[i % len(envs)] from eval_seed(seed_base, i).
    """
    result = ModeResult(mode=label, episodes=[])
    for i in range(n_episodes):
        env = envs[i % len(envs)]
        seed = eval_seed(seed_base, i)
        result.episodes.append(score_episode(label, i, seed, i % len(envs), env, episode(env, seed), oracle))
    return result


def evaluate(
    worlds: list[WorldSpec],
    policies: dict[str, object],
    n_episodes: int,
    seed_base: int = 0,
    episode_config: EpisodeConfig | None = None,
    sensor_config: SensorConfig | None = None,
    prior_params: PriorParams | None = None,
    oracle: ShortestPathOracle | None = None,
) -> EvalResult:
    """Run each policy over the same paired episode set and aggregate.

    Episode i draws its start and goal from eval_seed(seed_base, i) on
    world i % len(worlds). Every controller drives the same environment
    per world, one controller after another.
    """
    if not worlds:
        raise ConfigurationError("evaluation needs at least one world")
    if not policies:
        raise ConfigurationError("evaluation needs at least one controller")
    if n_episodes < 1:
        raise ConfigurationError("n_episodes must be >= 1")
    oracle = oracle or ShortestPathOracle()
    envs = [NavEnv(w, episode_config, sensor_config, prior_params) for w in worlds]
    results = {
        label: paired_episodes(label, envs, n_episodes, seed_base, oracle,
                               lambda env, seed, policy=policy: run_episode(env, policy, seed).success)
        for label, policy in policies.items()
    }
    dropped = sum(e.spl_term is None for res in results.values() for e in res.episodes)
    if dropped:
        warnings.warn(
            f"{dropped} episode(s) had no usable shortest path and were "
            "excluded from the efficiency average",
            stacklevel=2,
        )
    return EvalResult(results=results)
