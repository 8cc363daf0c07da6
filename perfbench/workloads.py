"""The benchmark's workloads: inputs made from a seed, one repetition, checks.

Every world suite is generated here from the workload seed; resnav only
receives the generated worlds. The experiment parameters mirror the frozen
desk-scale experiment of tests/test_acceptance.py (ARENA, PRIOR and the
64x64 / batch 128 / sigma 0.2 TD3 settings).

Sizes are chosen so that one run's figures do not depend much on which
worlds its seed drew: per-step costs and episode lengths differ a lot from
world to world, so the held-out suite has 80 worlds with one or two
episodes each rather than the acceptance suite's 5 worlds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from resnav import evaluation, nn, policy, td3, worldgen
from resnav.env import RESIDUAL_OBS_DIM, EpisodeConfig, SensorConfig
from resnav.prior import PriorParams

ARENA = worldgen.WorldGenParams(
    width=6.0,
    height=6.0,
    n_obstacles_min=3,
    n_obstacles_max=5,
    goal_wall_offset=1.5,
    goal_strip_margin=1.2,
)
PRIOR = PriorParams(k_rep=0.15, d_influence=1.5)
EPISODE = EpisodeConfig()
SENSOR = SensorConfig()

N_TRAIN_WORLDS = 10
TRAIN = td3.Td3Config(
    hidden_sizes=(64, 64),
    batch_size=128,
    warmup_steps=128,
    exploration_noise_sigma=0.2,
    total_episodes=24,
    eval_every=12,
    eval_episodes=2,
)

N_HELDOUT_WORLDS = 80
GATED_EPISODES = 80
PRIOR_EPISODES = 160
MC_PASSES = 100
ACTOR_SIZES = (RESIDUAL_OBS_DIM, 64, 64, 2)
ACTOR_DROPOUT = 0.2
GATE_ORACLE_EPISODES = 3


@dataclass(frozen=True)
class Seeds:
    """Independent integer seeds derived from the workload seed."""

    train_suite: int
    heldout_suite: int
    run: int
    actor: int

    @classmethod
    def derive(cls, seed: int, variant: int = 0) -> Seeds:
        """The run's inputs (variant 0), or further input sets drawn from the same seed."""
        entropy = seed if variant == 0 else (seed, variant)
        return cls(*(int(s) for s in np.random.SeedSequence(entropy).generate_state(4)))


@dataclass
class Outcome:
    """What one repetition produced, read after its timed region."""

    env_steps: int
    fingerprint: tuple
    problems: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    root: str  # layer whose span is one repetition
    active: frozenset[str]  # layers a traced set-up plus repetition must call
    setup: Callable[[Seeds], dict]
    repeat: Callable[[dict, Seeds], object]
    inspect: Callable[[object, Path], Outcome]
    checks: Callable[[dict, Seeds], dict[str, list[str]]]


# ---------------------------------------------------------------------------
# train_residual


def _setup_train(seeds: Seeds) -> dict:
    return {"worlds": worldgen.generate_suite(ARENA, N_TRAIN_WORLDS, seeds.train_suite)}


def _repeat_train(state: dict, seeds: Seeds):
    return td3.train(state["worlds"], "residual", TRAIN, EPISODE, SENSOR, PRIOR, seed=seeds.run)


def _unit(x) -> bool:
    return x is None or 0.0 <= x <= 1.0


def _inspect_train(result, tmp: Path) -> Outcome:
    ckpt = tmp / "actor.ckpt"
    nn.save_checkpoint(result.actor, result.mode, ckpt)
    rows = tuple(astuple(r) for r in result.log)
    problems = []
    for r in result.log:
        if not 1 <= r.steps <= EPISODE.max_steps:
            problems.append(f"episode {r.episode}: {r.steps} steps outside [1, {EPISODE.max_steps}]")
        if not (math.isfinite(r.ret) and _unit(r.ret) and _unit(r.eval_success) and _unit(r.eval_spl)):
            problems.append(f"episode {r.episode}: return/eval figures outside [0, 1]: {r}")
        if not (math.isfinite(r.path_length_m) and r.path_length_m >= 0.0):
            problems.append(f"episode {r.episode}: bad path length {r.path_length_m}")
    if len(result.log) != TRAIN.total_episodes:
        problems.append(f"{len(result.log)} log rows, expected {TRAIN.total_episodes}")
    if not any(r.eval_spl is not None for r in result.log):
        problems.append("no periodic evaluation ran")
    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    return Outcome(sum(r.steps for r in result.log), (rows, digest), problems)


# ---------------------------------------------------------------------------
# eval_gated and eval_prior


def _actor(seeds: Seeds) -> nn.Mlp:
    """Freshly initialised, never trained: training changes cannot move it."""
    return nn.Mlp(list(ACTOR_SIZES), "tanh", ACTOR_DROPOUT, rng=np.random.default_rng(seeds.actor))


def _heldout(seeds: Seeds):
    return worldgen.generate_suite(ARENA, N_HELDOUT_WORLDS, seeds.heldout_suite)


def _setup_gated(seeds: Seeds) -> dict:
    actor = _actor(seeds)
    return {
        "worlds": _heldout(seeds),
        "actor": actor,
        "policies": {"gated": policy.GatedResidualPolicy(actor, n_passes=MC_PASSES)},
        "episodes": GATED_EPISODES,
    }


def _setup_prior(seeds: Seeds) -> dict:
    return {"worlds": _heldout(seeds), "policies": {"prior": policy.PriorPolicy()},
            "episodes": PRIOR_EPISODES}


def _evaluate(worlds, policies, n_episodes: int, seeds: Seeds):
    return evaluation.evaluate(
        worlds, policies, n_episodes, seed_base=seeds.run,
        episode_config=EPISODE, sensor_config=SENSOR, prior_params=PRIOR,
    )


def _repeat_eval(state: dict, seeds: Seeds):
    return _evaluate(state["worlds"], state["policies"], state["episodes"], seeds)


def _episode_key(e) -> tuple:
    return (e.world, e.seed, e.success, e.steps, e.path_length_m, e.shortest_m, e.spl_term)


def _inspect_eval(result, tmp: Path) -> Outcome:
    (mode,) = result.results.values()
    problems = []
    for e in mode.episodes:
        if not 1 <= e.steps <= EPISODE.max_steps:
            problems.append(f"episode {e.episode}: {e.steps} steps outside [1, {EPISODE.max_steps}]")
        if not _unit(e.spl_term):
            problems.append(f"episode {e.episode}: SPL term {e.spl_term} outside [0, 1]")
    return Outcome(sum(e.steps for e in mode.episodes),
                   tuple(_episode_key(e) for e in mode.episodes), problems)


def _no_checks(state: dict, seeds: Seeds) -> dict[str, list[str]]:
    return {}


def _gate_oracle(state: dict, seeds: Seeds) -> dict[str, list[str]]:
    """A gate that always fires must drive exactly the prior's episodes."""
    forced = policy.GatedResidualPolicy(state["actor"], n_passes=MC_PASSES, epsilon_override=1.0)
    result = _evaluate(state["worlds"], {"forced": forced, "prior": policy.PriorPolicy()},
                       GATE_ORACLE_EPISODES, seeds)
    problems = [
        f"episode {a.episode}: forced gate {_episode_key(a)} != prior {_episode_key(b)}"
        for a, b in zip(result["forced"].episodes, result["prior"].episodes)
        if _episode_key(a) != _episode_key(b)
    ]
    return {"gate_oracle": problems}


# ---------------------------------------------------------------------------

_SIM = frozenset({
    "world.scan", "world.raycast_angles", "prior.prior_command", "env.NavEnv.step",
    "env.NavEnv.reset", "grid.ShortestPathOracle.shortest", "grid.astar_shortest",
    "grid.rasterize", "worldgen.generate_suite",
})
_EVAL = _SIM | {"rollout.run_episode", "evaluation.evaluate"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_residual",
            root="td3.train",
            active=_SIM | {
                "nn.Mlp.draw_masks", "nn.Mlp.forward", "nn.Mlp.forward_trace", "nn.Mlp.backward",
                "nn.Adam.step", "nn.polyak_update", "td3.train", "td3.critic_update",
                "td3.actor_update", "td3.ReplayBuffer.add", "td3.ReplayBuffer.sample",
                "td3.greedy_episode",
            },
            setup=_setup_train,
            repeat=_repeat_train,
            inspect=_inspect_train,
            checks=_no_checks,
        ),
        Workload(
            name="eval_gated",
            root="evaluation.evaluate",
            active=_EVAL | {"nn.mc_statistics", "nn.Mlp.draw_masks", "nn.Mlp.forward",
                            "policy.GatedResidualPolicy.act"},
            setup=_setup_gated,
            repeat=_repeat_eval,
            inspect=_inspect_eval,
            checks=_gate_oracle,
        ),
        Workload(
            name="eval_prior",
            root="evaluation.evaluate",
            active=_EVAL | {"policy.PriorPolicy.act"},
            setup=_setup_prior,
            repeat=_repeat_eval,
            inspect=_inspect_eval,
            checks=_no_checks,
        ),
    )
}

