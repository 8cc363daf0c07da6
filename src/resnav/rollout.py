"""Single-episode execution and trajectory files.

A trajectory is a CSV (one row per control step, plus a t=0 row for the
start pose) and a JSON sidecar carrying episode metadata and the full
world description, so a trajectory file is replottable on its own.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .env import IDX_PREV_OMEGA, IDX_PREV_V, NavEnv, StepResult, Terminal, discounted_return, prior_of
from .errors import ConfigurationError, UsageError, check_item
from .fileio import from_doc, read_json, read_rows, write_json, write_rows
from .policy import PolicyOutput, controller_of
from .world import WorldSpec, world_from_dict, world_to_dict

TRAJ_FORMAT = "traj/1"


@dataclass(frozen=True)
class TrajectoryRow:
    t: int
    x: float
    y: float
    theta: float
    v_exec: float | None = None
    omega_exec: float | None = None
    v_prior: float | None = None
    omega_prior: float | None = None
    mu_dv: float | None = None
    mu_dw: float | None = None
    var_dv: float | None = None
    var_dw: float | None = None
    epsilon: float | None = None
    used_prior_only: bool | None = None
    reward: float | None = None


@dataclass
class EpisodeRecord:
    mode: str
    seed: int
    terminal: Terminal
    success: bool
    steps: int
    path_length_m: float
    discounted_return: float
    start: tuple[float, float]
    goal: tuple[float, float]
    rows: list[TrajectoryRow] = field(repr=False, default_factory=list, init=False)


def policy_rng(seed: int) -> np.random.Generator:
    """Action-noise stream for an episode, decoupled from the reset draw.

    The environment consumes the bare seed so that start and goal pairs
    line up across controllers; this stream feeds the controller itself.
    """
    return np.random.default_rng([seed, 1])


def drive(env: NavEnv, policy, seed: int) -> Iterator[tuple[np.ndarray, PolicyOutput, StepResult]]:
    """Reset `env` with `seed` and step `policy` until the episode ends.

    Yields (observation, output, result) after every step, where observation
    is what the policy acted on. The env is left on the step just yielded,
    so its pose, start and path_length can be read between steps and after
    the last one.
    """
    obs = env.reset(seed)
    rng = policy_rng(seed)
    while True:
        out = policy.act(obs, rng)
        result = env.step(out.action)
        yield obs, out, result
        if result.terminal is not None:
            return
        obs = result.observation


def run_episode(env: NavEnv, policy, seed: int) -> EpisodeRecord:
    """Roll one episode of `policy` in `env`, recording every step; rows hold the prior's command
    when the controller's table entry says so (Controller.records_prior)."""
    name, controller = controller_of(policy)
    rows: list[TrajectoryRow] = []
    for obs, out, result in drive(env, policy, seed):
        prior = prior_of(obs) if controller.records_prior else None
        rows.append(TrajectoryRow(
            t=env.steps,
            x=env.pose.x, y=env.pose.y, theta=env.pose.theta,
            v_exec=float(result.observation[IDX_PREV_V]),
            omega_exec=float(result.observation[IDX_PREV_OMEGA]),
            v_prior=prior.v if prior is not None else None,
            omega_prior=prior.omega if prior is not None else None,
            mu_dv=float(out.residual_mean[0]) if out.residual_mean is not None else None,
            mu_dw=float(out.residual_mean[1]) if out.residual_mean is not None else None,
            var_dv=float(out.residual_variance[0]) if out.residual_variance is not None else None,
            var_dw=float(out.residual_variance[1]) if out.residual_variance is not None else None,
            epsilon=out.epsilon,
            used_prior_only=out.used_prior_only,
            reward=result.reward,
        ))
    start = env.start
    record = EpisodeRecord(
        mode=name,
        seed=seed,
        terminal=result.terminal,
        success=result.terminal is Terminal.GOAL,
        steps=env.steps,
        path_length_m=env.path_length,
        discounted_return=discounted_return(env.steps, result.terminal, env.episode.gamma),
        start=start.position(),
        goal=env.goal,
    )
    record.rows = [TrajectoryRow(t=0, x=start.x, y=start.y, theta=start.theta), *rows]
    return record


def meta_path_for(path: str | Path) -> Path:
    return Path(path).with_suffix(".meta.json")


def save_trajectory(record: EpisodeRecord, env: NavEnv, path: str | Path) -> None:
    """Write the step CSV and its .meta.json sidecar next to it.

    The sidecar holds every init field of the record (all but its rows),
    the goal radius and the world.
    """
    path = Path(path)
    write_rows(path, TrajectoryRow, record.rows)
    write_json(meta_path_for(path), {
        **{f.name: getattr(record, f.name) for f in fields(record) if f.init},
        "format": TRAJ_FORMAT,
        "terminal": record.terminal.value,
        "goal_radius": env.episode.d_threshold,
        "world": world_to_dict(env.world),
    })


def load_trajectory(path: str | Path) -> tuple[EpisodeRecord, WorldSpec, float | None]:
    """The EpisodeRecord a trajectory CSV and its sidecar were written from, its world and its goal radius."""
    path = Path(path)
    rows = read_rows(path, TrajectoryRow)
    if not rows or rows[0].t != 0:
        raise ConfigurationError(f"{path}: trajectory must begin with a t=0 start row")
    for i, row in enumerate(rows):
        if row.t != i:
            raise ConfigurationError(f"{path}: step numbers must be consecutive, row {i} has t={row.t}")

    meta_file = meta_path_for(path)
    if not meta_file.exists():
        raise UsageError(f"missing trajectory sidecar {meta_file}")
    record, world, goal_radius = read_json(meta_file, _read_sidecar)
    record.rows = rows
    return record, world, goal_radius


def _read_sidecar(doc: dict) -> tuple[EpisodeRecord, WorldSpec, float | None]:
    goal_radius, world = doc.pop("goal_radius", None), doc.pop("world", None)
    if goal_radius is not None:
        check_item("goal_radius", goal_radius, float, {"gt": 0.0})
    return from_doc(EpisodeRecord, doc, "episode", TRAJ_FORMAT), world_from_dict(world), goal_radius
