"""Single-episode execution and trajectory files.

A trajectory is a CSV (one row per control step, plus a t=0 row for the
start pose) and a JSON sidecar carrying episode metadata and the full
world description, so a trajectory file is replottable on its own.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .env import IDX_PREV_OMEGA, IDX_PREV_V, NavEnv, StepResult, Terminal, discounted_return, prior_of
from .errors import ConfigurationError, UsageError
from .fileio import read_json, write_atomically
from .policy import PolicyMode, PolicyOutput
from .world import WorldSpec, finite_number, world_from_dict, world_to_dict

TRAJ_FORMAT = "traj/1"
_TRAJ_TYPES = {"t": int, "used_prior_only": bool}
_BOOLS = {"true": True, "false": False}


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


TRAJ_COLUMNS = tuple(f.name for f in fields(TrajectoryRow))


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
    rows: list[TrajectoryRow] = field(repr=False, default_factory=list)


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
    """Roll one episode of `policy` in `env`, recording every step; end-to-end rows record no prior."""
    rows: list[TrajectoryRow] = []
    for obs, out, result in drive(env, policy, seed):
        prior = None if policy.mode is PolicyMode.END_TO_END else prior_of(obs)
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
    return EpisodeRecord(
        mode=policy.mode.value,
        seed=seed,
        terminal=result.terminal,
        success=result.terminal is Terminal.GOAL,
        steps=env.steps,
        path_length_m=env.path_length,
        discounted_return=discounted_return(env.steps, result.terminal, env.episode.gamma),
        start=start.position(),
        goal=env.goal,
        rows=[TrajectoryRow(t=0, x=start.x, y=start.y, theta=start.theta), *rows],
    )


def csv_cell(value) -> str:
    """One CSV field: empty for None, true/false for bools, repr for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str | Path, columns, rows) -> None:
    """A header line, then one line of csv_cell values per row; replaced atomically."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(columns)
    writer.writerows([csv_cell(v) for v in row] for row in rows)
    write_atomically(path, text.getvalue())


def meta_path_for(path: str | Path) -> Path:
    return Path(path).with_suffix(".meta.json")


def save_trajectory(record: EpisodeRecord, env: NavEnv, path: str | Path) -> None:
    """Write the step CSV and its .meta.json sidecar next to it."""
    path = Path(path)
    write_csv(path, TRAJ_COLUMNS, map(astuple, record.rows))
    meta = {
        "format": TRAJ_FORMAT,
        "mode": record.mode,
        "seed": record.seed,
        "terminal": record.terminal.name.lower(),
        "success": record.success,
        "steps": record.steps,
        "path_length_m": record.path_length_m,
        "discounted_return": record.discounted_return,
        "start": list(record.start),
        "goal": list(record.goal),
        "goal_radius": env.episode.d_threshold,
        "world": world_to_dict(env.world),
    }
    write_atomically(meta_path_for(path), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_csv(path: str | Path, columns, types: dict, required: int = 0) -> list[tuple]:
    """The rows of a CSV written by write_csv, one tuple of typed cells per line.

    The header must equal columns. types maps a column to int or bool
    (true/false); other columns are float. An empty cell reads as None,
    except in the first `required` columns, where it is an error.
    """
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"no such file: {path}")
    kinds = [types.get(name, float) for name in columns]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(columns):
            raise ConfigurationError(f"{path}: unexpected header {header}")
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(columns):
                raise ConfigurationError(f"{path}:{lineno}: expected {len(columns)} fields, got {len(rec)}")
            row = []
            for i, (name, kind, raw) in enumerate(zip(columns, kinds, rec)):
                if raw == "":
                    if i < required:
                        raise ConfigurationError(f"{path}:{lineno}: missing {name}")
                    row.append(None)
                    continue
                try:
                    row.append(_BOOLS[raw] if kind is bool else kind(raw))
                except (KeyError, ValueError) as exc:
                    raise ConfigurationError(f"{path}:{lineno}: bad {name} field {raw!r}") from exc
            rows.append(tuple(row))
    return rows


def load_trajectory(path: str | Path) -> tuple[list[TrajectoryRow], dict, WorldSpec]:
    """Read a trajectory CSV plus sidecar; validates both, returns rows, sidecar and its world."""
    path = Path(path)
    rows = [TrajectoryRow(*cells) for cells in read_csv(path, TRAJ_COLUMNS, _TRAJ_TYPES, required=4)]
    if not rows or rows[0].t != 0:
        raise ConfigurationError(f"{path}: trajectory must begin with a t=0 start row")
    for i, row in enumerate(rows):
        if row.t != i:
            raise ConfigurationError(f"{path}: step numbers must be consecutive, row {i} has t={row.t}")

    meta_file = meta_path_for(path)
    if not meta_file.exists():
        raise UsageError(f"missing trajectory sidecar {meta_file}")
    meta = read_json(meta_file, required=("world", "start", "goal"))
    if meta.get("format") != TRAJ_FORMAT:
        raise ConfigurationError(f"{meta_file}: unsupported format {meta.get('format')!r}")
    # materialize the embedded world to catch stale or hand-edited sidecars
    try:
        world = world_from_dict(meta["world"])
        for key in ("start", "goal"):
            point = meta[key]
            if not (isinstance(point, list) and len(point) == 2):
                raise ConfigurationError(f"{key} must be a pair of numbers, got {point!r}")
            for value in point:
                finite_number(value, key)
        if meta.get("goal_radius") is not None:
            finite_number(meta["goal_radius"], "goal_radius")
    except ConfigurationError as exc:
        raise ConfigurationError(f"{meta_file}: {exc}") from exc
    return rows, meta, world
