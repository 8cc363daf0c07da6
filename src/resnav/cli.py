"""Command-line entry points.

Subcommands cover the full workflow: init-config, gen-worlds, train,
eval, rollout, plot. Every command takes an experiment config file so
that runs are reproducible from the file alone.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import platform
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config, save_config
from .env import NavEnv
from .errors import ConfigurationError, TrainingDiverged, UsageError
from .evaluation import eval_seed, evaluate
from .fileio import read_rows, write_atomically
from .grid import ShortestPathOracle, astar_path, nearest_free_cell, planner_grid
from .nn import load_checkpoint
from .plots import plot_components, plot_trajectory, plot_training
from .policy import CONTROLLERS, TRAINING_MODES, make_policy
from .rollout import load_trajectory, run_episode, save_trajectory
from .td3 import TrainLogRow, train
from .world import WorldSpec
from .worldgen import generate_suite, load_suite, write_suite

_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3
_THRESHOLD_BYTES = 64 << 20


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resnav",
        description="train and evaluate hybrid prior-plus-residual navigation controllers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-config", help="write a default experiment config")
    p.add_argument("--out", required=True, help="path of the config file to create")

    p = sub.add_parser("gen-worlds", help="generate the training and held-out world suites")
    p.add_argument("--config", required=True)

    p = sub.add_parser("train", help="train one run (one mode, one seed)")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=tuple(TRAINING_MODES), default=None,
                   help="override the config's training mode")
    p.add_argument("--seed", type=int, default=None, help="override the first config seed")
    p.add_argument("--out", default=None, help="run directory (default: out_dir/<mode>/seed<N>)")
    p.add_argument("--resume", action="store_true", help="continue from the run's snapshot")

    p = sub.add_parser("eval", help="evaluate controllers on a world suite")
    p.add_argument("--config", required=True)
    p.add_argument("--controllers", default=",".join(CONTROLLERS),
                   help="comma list out of: " + ",".join(CONTROLLERS))
    p.add_argument("--seed", type=int, default=None,
                   help="which training seed's checkpoints to load (default: first config seed)")
    p.add_argument("--worlds", choices=("train", "heldout"), default="heldout")
    p.add_argument("--episodes", type=int, default=None, help="override evaluation.n_episodes")
    p.add_argument("--single-pass", action="store_true",
                   help="skip averaging in the residual controller")
    p.add_argument("--out", default=None, help="directory for report.txt and episodes.csv")

    p = sub.add_parser("rollout", help="run one episode and save its trajectory")
    p.add_argument("--config", required=True)
    p.add_argument("--controller", choices=tuple(CONTROLLERS), default="gated")
    p.add_argument("--seed", type=int, default=None,
                   help="which training seed's checkpoint to load")
    p.add_argument("--episode-seed", type=int, default=0,
                   help="index into the held-out episode space")
    p.add_argument("--world-index", type=int, default=0)
    p.add_argument("--worlds", choices=("train", "heldout"), default="heldout")
    p.add_argument("--out", required=True, help="trajectory CSV path (sidecar goes next to it)")

    p = sub.add_parser("plot", help="render an SVG figure")
    kind = p.add_subparsers(dest="kind", required=True)

    q = kind.add_parser("trajectory", help="arena map with the driven path")
    q.add_argument("traj", help="trajectory CSV written by rollout")
    q.add_argument("--out", required=True)
    q.add_argument("--planner", action="store_true", help="overlay the grid planner's path")
    q.add_argument("--cell", type=float, default=0.05, help="planner cell size, m")

    q = kind.add_parser("components", help="per-step turn command decomposition")
    q.add_argument("traj", help="trajectory CSV written by rollout")
    q.add_argument("--out", required=True)

    q = kind.add_parser("training", help="cross-seed training curves")
    q.add_argument("runs", nargs="+", help="run directories or train_log.csv files")
    q.add_argument("--out", required=True)

    return parser


def _run_dir(config: ExperimentConfig, mode: str, seed: int) -> Path:
    return Path(config.out_dir) / mode / f"seed{seed}"


def _pick_suite(config: ExperimentConfig, which: str):
    directory = config.worlds.train_dir if which == "train" else config.worlds.heldout_dir
    return load_suite(directory)


def _build_policy(config: ExperimentConfig, name: str, seed: int, single_pass: bool = False):
    """The named controller, with the actor of this seed's run of its training mode if it loads one."""
    mode = CONTROLLERS[name].checkpoint
    if mode is None:
        return make_policy(name)
    ckpt = _run_dir(config, mode.name, seed) / "actor.ckpt"
    if not ckpt.exists():
        raise UsageError(f"no checkpoint at {ckpt}; run `resnav train` for mode {mode.name!r} first")
    return make_policy(name, *load_checkpoint(ckpt), n_passes=config.evaluation.n_passes, single_pass=single_pass)


def cmd_init_config(args) -> int:
    out = Path(args.out)
    if out.exists():
        raise UsageError(f"{out} already exists; remove it first")
    save_config(ExperimentConfig(), out)
    print(f"wrote {out}")
    return 0


def cmd_gen_worlds(args) -> int:
    config = load_config(args.config)
    for label, n, seed, directory in (
        ("train", config.worlds.n_train, config.worlds.seed_train, config.worlds.train_dir),
        ("heldout", config.worlds.n_heldout, config.worlds.seed_heldout, config.worlds.heldout_dir),
    ):
        worlds = generate_suite(config.worldgen, n, seed)
        paths = write_suite(worlds, directory)
        print(f"{label}: {len(paths)} worlds in {directory}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:  # checked by the config's own seed rule
        config = dataclasses.replace(config, seeds=(args.seed,))
    mode, seed = args.mode or config.mode, config.seeds[0]
    out = Path(args.out) if args.out else _run_dir(config, mode, seed)
    worlds = _pick_suite(config, "train")
    result = train(
        worlds, mode, config.td3,
        episode_config=config.episode, sensor_config=config.sensor,
        prior_params=config.prior, seed=seed, out_dir=out,
        resume_from=out if args.resume else None,
        oracle=ShortestPathOracle(config.evaluation.grid_cell),
    )
    last_eval = next((r for r in reversed(result.log) if r.eval_success is not None), None)
    if last_eval is not None:
        print(f"final greedy eval: success {last_eval.eval_success:.3f}, "
              f"spl {last_eval.eval_spl:.3f}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"log: {result.log_path}")
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.seeds[0]
    names = [n.strip() for n in args.controllers.split(",") if n.strip()]
    if not names:
        raise UsageError("no controllers given")
    for name in names:
        if name not in CONTROLLERS:
            raise UsageError(f"unknown controller {name!r}; pick from {', '.join(CONTROLLERS)}")
    policies = {name: _build_policy(config, name, seed, single_pass=args.single_pass) for name in names}
    worlds = _pick_suite(config, args.worlds)
    n_episodes = args.episodes if args.episodes is not None else config.evaluation.n_episodes
    result = evaluate(
        worlds, policies, n_episodes,
        seed_base=config.evaluation.seed_base,
        episode_config=config.episode, sensor_config=config.sensor,
        prior_params=config.prior,
        oracle=ShortestPathOracle(config.evaluation.grid_cell),
    )
    out = Path(args.out) if args.out else Path(config.out_dir) / f"eval_{args.worlds}_seed{seed}"
    report = result.report()
    write_atomically(out / "report.txt", report)
    result.write_episode_csv(out / "episodes.csv")
    print(report, end="")
    print(f"written: {out / 'report.txt'}, {out / 'episodes.csv'}")
    return 0


def cmd_rollout(args) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.seeds[0]
    policy = _build_policy(config, args.controller, seed)
    worlds = _pick_suite(config, args.worlds)
    if not 0 <= args.world_index < len(worlds):
        raise UsageError(f"world index {args.world_index} outside 0..{len(worlds) - 1}")
    env = NavEnv(worlds[args.world_index], config.episode, config.sensor, config.prior)
    record = run_episode(env, policy, eval_seed(config.evaluation.seed_base, args.episode_seed))
    out = Path(args.out)
    save_trajectory(record, env, out)
    print(f"{args.controller}: {record.terminal.name.lower()} after {record.steps} steps, "
          f"path {record.path_length_m:.2f} m")
    print(f"written: {out}")
    return 0


def _planner_overlay(world: WorldSpec, start: tuple[float, float], goal: tuple[float, float], cell: float):
    grid = planner_grid(world, cell)
    start_cell = nearest_free_cell(grid, *grid.cell_of(*start))
    goal_cell = nearest_free_cell(grid, *grid.cell_of(*goal))
    _length, cells = astar_path(grid, start_cell, goal_cell)
    return [grid.center_of(ix, iy) for ix, iy in cells]


def cmd_plot(args) -> int:
    if args.kind == "training":
        logs = []
        for run in args.runs:
            path = Path(run)
            if path.is_dir():
                path = path / "train_log.csv"
            if not path.exists():
                raise UsageError(f"no training log at {path}")
            logs.append(read_rows(path, TrainLogRow))
        plot_training(logs, args.out)
    else:
        record, world, goal_radius = load_trajectory(args.traj)
        if args.kind == "trajectory":
            planner = _planner_overlay(world, record.start, record.goal, args.cell) if args.planner else None
            plot_trajectory(record.rows, world, args.out, planner=planner, goal=record.goal, goal_radius=goal_radius)
        else:
            plot_components(record.rows, args.out)
    print(f"written: {args.out}")
    return 0


_COMMANDS = {
    "init-config": cmd_init_config,
    "gen-worlds": cmd_gen_worlds,
    "train": cmd_train,
    "eval": cmd_eval,
    "rollout": cmd_rollout,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


def keep_freed_heap() -> bool:
    """Raise glibc's heap-trim and mmap thresholds to 64 MiB for this process; True if both were set.

    Each training update frees and reallocates the same arrays. At glibc's
    default trim threshold the freed heap top is returned to the system
    after an update and faulted back in by the next one. Setting that
    threshold also pins the mmap threshold at 128 KiB, so the larger
    temporaries of a 256-wide network would still be mapped and unmapped on
    every update. Only the console script sets this: it owns its process, and
    library callers keep their allocator. Elsewhere than glibc it does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    results = [mallopt(param, _THRESHOLD_BYTES) for param in (_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD)]
    return all(r == 1 for r in results)


def entry() -> None:
    keep_freed_heap()
    sys.exit(main())


if __name__ == "__main__":
    entry()
