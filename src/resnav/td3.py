"""Twin-delayed deterministic policy gradient over the navigation residual.

Residual mode trains a correction on top of the potential-field prior: the
executed command is clip(prior + policy_output). End-to-end mode trains
the same architecture on the observation without the prior's two slots.
Rewards are the environment's sparse success signal; nothing is shaped.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .env import (E2E_OBS_DIM, EVAL_SEED_OFFSET, RESIDUAL_OBS_DIM, EpisodeConfig, NavEnv, SensorConfig,
                  Terminal, discounted_return, prior_of)
from .errors import ConfigurationError, TrainingDiverged, UsageError, check_finite
from .evaluation import paired_episodes
from .grid import ShortestPathOracle
from .fileio import read_json, write_atomically
from .nn import Adam, Mlp, load_checkpoint, polyak_update, save_checkpoint
from .policy import EndToEndPolicy, ResidualPolicy
from .prior import Action, PriorParams, compose_hybrid
from .rollout import drive, read_csv, write_csv
from .world import WorldSpec

ACTION_DIM = 2
#: training mode -> width of the observation prefix its actor reads
TRAIN_MODES = {"residual": RESIDUAL_OBS_DIM, "end_to_end": E2E_OBS_DIM}
TRAIN_LOG_COLUMNS = ("episode", "steps", "path_length_m", "success", "return", "eval_success", "eval_spl")
_LOG_TYPES = {"episode": int, "steps": int, "success": int}


@dataclass(frozen=True)
class Td3Config:
    tau: float = 0.005
    policy_delay: int = 2
    smoothing_noise_sigma: float = 0.2
    smoothing_noise_clip: float = 0.5
    exploration_noise_sigma: float = 0.1
    batch_size: int = 256
    buffer_capacity: int = 200_000
    warmup_steps: int = 1000
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    total_episodes: int = 1000
    eval_every: int = 10
    eval_episodes: int = 10
    hidden_sizes: tuple[int, ...] = (256, 256)
    dropout_p: float = 0.2

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        check_finite(self)
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigurationError(f"tau must be in [0, 1], got {self.tau}")
        for name in ("policy_delay", "batch_size", "buffer_capacity", "total_episodes",
                     "eval_every", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.batch_size > self.buffer_capacity:  # train would never make an update
            raise ConfigurationError(f"batch_size={self.batch_size} exceeds "
                                     f"buffer_capacity={self.buffer_capacity}")
        if self.warmup_steps < 0:
            raise ConfigurationError("warmup_steps must be >= 0")
        for name in ("actor_lr", "critic_lr"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("smoothing_noise_sigma", "smoothing_noise_clip", "exploration_noise_sigma"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be >= 0")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigurationError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigurationError(f"bad hidden sizes {self.hidden_sizes}")


class ReplayBuffer:
    """Fixed-capacity FIFO transition store with uniform sampling.

    A transition is one row [obs | action | reward | next_obs | done] of one array.
    """

    def __init__(self, capacity: int, obs_dim: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rows = np.zeros((capacity, 2 * obs_dim + ACTION_DIM + 2))
        self.obs_action, self.reward, self.next_obs, self.done = self._split(self.rows)
        self.obs, self.action = self.obs_action[:, :obs_dim], self.obs_action[:, obs_dim:]
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    @staticmethod
    def _split(rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Column views (obs_action, reward, next_obs, done) of transition rows."""
        d = (rows.shape[1] - ACTION_DIM - 2) // 2
        a = d + ACTION_DIM
        return rows[:, :a], rows[:, a], rows[:, a + 1:a + 1 + d], rows[:, -1]

    def add(self, obs, action, reward, next_obs, done: float) -> None:
        i = self._cursor
        self.obs[i] = obs
        self.action[i] = action
        self.reward[i] = reward
        self.next_obs[i] = next_obs
        self.done[i] = done
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int) -> tuple[np.ndarray, ...]:
        """(obs_action, reward, next_obs, done) views of batch_size rows drawn uniformly.

        obs_action is [obs | action], the critics' input, with no copy.
        """
        if self._size < 1:
            raise UsageError("cannot sample from an empty replay buffer")
        return self._split(self.rows[rng.integers(0, self._size, batch_size)])


def bootstrap_mask(terminal: Terminal | None) -> float:
    """1.0 when the state itself ended the episode, 0.0 when only the clock did.

    Hitting the step limit says nothing about the value of the final state,
    so the Bellman target keeps its bootstrap term there.
    """
    return 1.0 if terminal in (Terminal.GOAL, Terminal.COLLISION) else 0.0


@dataclass
class Td3Nets:
    """Actor and twin critics (Q1 is critics[0], Q2 critics[1]), their targets and optimisers.

    The learner is two float64 vectors laid out [actor | critic 1 | critic 2]:
    live holds the trained parameters and target their Polyak averages, and
    every network here is a view of its slice. The gradients are written into
    slices of one scratch vector with the same layout. The critics always step
    together, so one Adam covers their joint slice (critics_live, with
    gradient critics_grad); Adam and Polyak are elementwise, so the joint
    steps equal one step per network.
    """

    live: np.ndarray
    target: np.ndarray
    actor: Mlp
    actor_target: Mlp
    critics: tuple[Mlp, Mlp]
    critics_target: tuple[Mlp, Mlp]
    adam_actor: Adam
    adam_critics: Adam
    actor_grad: np.ndarray
    critic_grads: tuple[np.ndarray, np.ndarray]
    critics_live: np.ndarray
    critics_grad: np.ndarray

    @staticmethod
    def layer_sizes(observation_dim: int, config: Td3Config) -> tuple[list[int], list[int]]:
        """Layer sizes of the actor and of each critic."""
        return ([observation_dim, *config.hidden_sizes, ACTION_DIM],
                [observation_dim + ACTION_DIM, *config.hidden_sizes, 1])

    @classmethod
    def build(cls, observation_dim: int, config: Td3Config, rng: np.random.Generator) -> Td3Nets:
        actor_sizes, critic_sizes = cls.layer_sizes(observation_dim, config)
        actor = Mlp(actor_sizes, "tanh", config.dropout_p, rng=rng)
        critic1 = Mlp(critic_sizes, "identity", 0.0, rng=rng)
        critic2 = Mlp(critic_sizes, "identity", 0.0, rng=rng)
        return cls.from_networks(actor, critic1, critic2, config)

    @classmethod
    def from_networks(cls, actor: Mlp, critic1: Mlp, critic2: Mlp, config: Td3Config) -> Td3Nets:
        """Copies of the networks as live, targets equal to them, fresh optimiser state."""
        nets = (actor, critic1, critic2)
        live = np.concatenate([net.params for net in nets])
        target = live.copy()
        grad = np.empty_like(live)
        ends = np.cumsum([net.params.size for net in nets])[:-1]

        def views(flat: np.ndarray) -> list[Mlp]:
            out = [copy.copy(net) for net in nets]
            for view, part in zip(out, np.split(flat, ends)):
                view._bind(part)
            return out

        (a, c1, c2), (a_target, c1_target, c2_target) = views(live), views(target)
        actor_grad, *critic_grads = np.split(grad, ends)
        n = ends[0]
        return cls(
            live=live,
            target=target,
            actor=a,
            actor_target=a_target,
            critics=(c1, c2),
            critics_target=(c1_target, c2_target),
            adam_actor=Adam(a.params, config.actor_lr),
            adam_critics=Adam(live[n:], config.critic_lr),
            actor_grad=actor_grad,
            critic_grads=tuple(critic_grads),
            critics_live=live[n:],
            critics_grad=grad[n:],
        )


def critic_update(nets: Td3Nets, batch, config: Td3Config, gamma: float, rng: np.random.Generator) -> float:
    """One clipped-double-Q regression step on both critics with discount gamma; returns mean loss.

    batch is (obs_action, reward, next_obs, done), as ReplayBuffer.sample returns it.
    """
    obs_action, reward, next_obs, done = batch
    b = obs_action.shape[0]
    noise = rng.normal(0.0, config.smoothing_noise_sigma, (b, ACTION_DIM))
    np.clip(noise, -config.smoothing_noise_clip, config.smoothing_noise_clip, out=noise)
    next_action = nets.actor_target.forward(next_obs)
    next_action += noise
    np.clip(next_action, -1.0, 1.0, out=next_action)
    target_in = np.concatenate([next_obs, next_action], axis=1)
    q_next = np.minimum(*(target.forward(target_in)[:, 0] for target in nets.critics_target))
    y = reward + gamma * (1.0 - done) * q_next

    total = 0.0
    for critic, grad in zip(nets.critics, nets.critic_grads):
        q, trace = critic.forward_trace(obs_action)
        err = q[:, 0] - y
        critic.backward(trace, (2.0 / b) * err[:, None], input_grad=False, out=grad)
        err *= err
        total += float(np.add.reduce(err) / b)
    nets.adam_critics.step(nets.critics_live, nets.critics_grad)
    return total / 2.0


def actor_update(nets: Td3Nets, batch, config: Td3Config, rng: np.random.Generator) -> float:
    """Deterministic policy-gradient ascent on critic1, then Polyak on all targets.

    Only the observations of batch (obs_action without its action columns)
    are read. The actor runs with dropout live (masks from rng) when its
    dropout_p > 0.
    """
    obs = batch[0][:, :-ACTION_DIM]
    b = obs.shape[0]
    action, actor_trace = nets.actor.forward_trace(obs, rng=rng)
    q1 = nets.critics[0]
    q, q_trace = q1.forward_trace(np.concatenate([obs, action], axis=1))
    # loss = -mean(Q1); gradients flow through the action slice only
    d_input = q1.backward(q_trace, np.full((b, 1), -1.0 / b))
    nets.actor.backward(actor_trace, d_input[:, obs.shape[1]:], input_grad=False, out=nets.actor_grad)
    nets.adam_actor.step(nets.actor.params, nets.actor_grad)
    polyak_update(nets.target, nets.live, config.tau)
    return -float(np.add.reduce(q, None) / b)


@dataclass
class TrainLogRow:
    episode: int
    steps: int
    path_length_m: float
    success: int
    ret: float
    eval_success: float | None = None
    eval_spl: float | None = None


@dataclass
class TrainResult:
    actor: Mlp
    mode: str
    log: list[TrainLogRow]
    checkpoint_path: Path | None = None
    log_path: Path | None = None


def write_training_log(rows: list[TrainLogRow], path: str | Path) -> None:
    write_csv(path, TRAIN_LOG_COLUMNS, map(astuple, rows))


def read_training_log(path: str | Path) -> list[TrainLogRow]:
    return [TrainLogRow(*cells) for cells in read_csv(path, TRAIN_LOG_COLUMNS, _LOG_TYPES, required=5)]


def greedy_episode(env: NavEnv, actor: Mlp, mode: str, seed: int) -> bool:
    """Deterministic rollout (no noise, dropout off) used for periodic eval; True on success."""
    policy = ResidualPolicy(actor, single_pass=True) if mode == "residual" else EndToEndPolicy(actor)
    for _obs, _out, result in drive(env, policy, seed):
        pass
    return result.terminal is Terminal.GOAL


def _check_finite(out_dir: Path | None, name: str, loss: float, episode: int, step: int, seed: int) -> None:
    """Raise TrainingDiverged on a non-finite loss, leaving divergence.json in out_dir."""
    if not math.isfinite(loss):
        info = {"episode": episode, "step": step, f"{name}_loss": loss, "seed": seed}
        if out_dir is not None:
            write_atomically(out_dir / "divergence.json", json.dumps(info, indent=2, sort_keys=True) + "\n")
        raise TrainingDiverged(f"{name} loss diverged at episode {episode}", info)


def train(
    worlds: list[WorldSpec],
    mode: str,
    config: Td3Config,
    episode_config: EpisodeConfig | None = None,
    sensor_config: SensorConfig | None = None,
    prior_params: PriorParams | None = None,
    seed: int = 0,
    out_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
    oracle: ShortestPathOracle | None = None,
) -> TrainResult:
    """Run TD3 over a world suite; returns the trained actor and the episode log.

    The discount is episode_config.gamma, for the critic target and the
    logged return alike. The periodic greedy evaluation scores SPL against
    oracle (default: ShortestPathOracle(), a 0.05 m grid).

    Checkpoints land in out_dir: actor.ckpt and train_log.csv at the end
    plus a rolling snapshot (actor/critic1/critic2 and the log so far)
    every eval_every episodes. Resuming restarts from the snapshot networks
    with a fresh replay buffer and optimizer state, and train_log.csv
    keeps the snapshot's rows ahead of the new ones; TrainResult.log holds
    only the episodes this call ran.
    """
    if mode not in TRAIN_MODES:
        raise ConfigurationError(f"unknown training mode {mode!r}")
    if not worlds:
        raise ConfigurationError("training needs at least one world")
    episode_config = episode_config or EpisodeConfig()

    ss = np.random.SeedSequence(seed)
    rng_init, rng_episode, rng_explore, rng_batch, rng_update = (
        np.random.default_rng(s) for s in ss.spawn(5)
    )

    dim = TRAIN_MODES[mode]
    start_episode = 1
    history: list[TrainLogRow] = []
    if resume_from is not None:
        nets, start_episode, history = _load_snapshot(Path(resume_from), dim, config)
    else:
        nets = Td3Nets.build(dim, config, rng_init)

    envs = [NavEnv(w, episode_config, sensor_config, prior_params) for w in worlds]
    oracle = oracle or ShortestPathOracle()
    buffer = ReplayBuffer(config.buffer_capacity, dim)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    log: list[TrainLogRow] = []
    total_steps = 0
    for ep in range(start_episode, config.total_episodes + 1):
        env = envs[int(rng_episode.integers(len(envs)))]
        obs = env.reset(int(rng_episode.integers(EVAL_SEED_OFFSET)))[:dim]
        while True:
            if total_steps < config.warmup_steps:
                policy_action = rng_explore.uniform(-1.0, 1.0, ACTION_DIM)
            else:
                noise = rng_explore.normal(0.0, config.exploration_noise_sigma, ACTION_DIM)
                policy_action = np.clip(nets.actor.forward(obs) + noise, -1.0, 1.0)
            if mode == "residual":
                executed = compose_hybrid(prior_of(obs), policy_action)
            else:
                executed = Action(float(policy_action[0]), float(policy_action[1]))
            result = env.step(executed)
            next_obs = result.observation[:dim]
            buffer.add(obs, policy_action, result.reward, next_obs, bootstrap_mask(result.terminal))
            obs = next_obs
            total_steps += 1

            if total_steps >= config.warmup_steps and len(buffer) >= config.batch_size:
                batch = buffer.sample(rng_batch, config.batch_size)
                closs = critic_update(nets, batch, config, episode_config.gamma, rng_update)
                _check_finite(out_path, "critic", closs, ep, total_steps, seed)
                if nets.adam_critics.t % config.policy_delay == 0:
                    aloss = actor_update(nets, batch, config, rng_update)
                    _check_finite(out_path, "actor", aloss, ep, total_steps, seed)
            if result.terminal is not None:
                break

        row = TrainLogRow(
            episode=ep,
            steps=env.steps,
            path_length_m=env.path_length,
            success=int(result.terminal is Terminal.GOAL),
            ret=discounted_return(env.steps, result.terminal, episode_config.gamma),
        )
        log.append(row)
        if ep % config.eval_every == 0:
            greedy = paired_episodes(mode, envs, config.eval_episodes, seed * 100_000, oracle,
                                     lambda env, s: greedy_episode(env, nets.actor, mode, s))
            row.eval_success, row.eval_spl = greedy.success_rate, greedy.spl
            if out_path is not None:
                _save_snapshot(out_path, nets, mode, history + log)

    ckpt_path = log_path = None
    if out_path is not None:
        ckpt_path = out_path / "actor.ckpt"
        save_checkpoint(nets.actor, mode, ckpt_path)
        log_path = out_path / "train_log.csv"
        write_training_log(history + log, log_path)
    return TrainResult(actor=nets.actor, mode=mode, log=log, checkpoint_path=ckpt_path, log_path=log_path)


def _save_snapshot(out_dir: Path, nets: Td3Nets, mode: str, log: list[TrainLogRow]) -> None:
    snap = out_dir / "snapshot"
    snap.mkdir(exist_ok=True)
    save_checkpoint(nets.actor, mode, snap / "actor.ckpt")
    for k, critic in enumerate(nets.critics, start=1):
        save_checkpoint(critic, mode, snap / f"critic{k}.ckpt")
    write_training_log(log, snap / "train_log.csv")
    write_atomically(snap / "state.json", json.dumps({"episode": log[-1].episode, "mode": mode}) + "\n")


def _load_snapshot(run_dir: Path, dim: int, config: Td3Config) -> tuple[Td3Nets, int, list[TrainLogRow]]:
    """Networks, first episode to run, and the log rows up to the snapshot."""
    snap = run_dir / "snapshot"
    state_file = snap / "state.json"
    if not state_file.exists():
        raise ConfigurationError(f"no snapshot to resume from under {run_dir}")
    state = read_json(state_file, required=("episode",))
    episode = state["episode"]
    if isinstance(episode, bool) or not isinstance(episode, int) or episode < 0:
        raise ConfigurationError(f"{state_file}: episode must be an integer >= 0, got {episode!r}")
    actor, _ = load_checkpoint(snap / "actor.ckpt")
    critic1, _ = load_checkpoint(snap / "critic1.ckpt")
    critic2, _ = load_checkpoint(snap / "critic2.ckpt")
    actor_sizes, critic_sizes = Td3Nets.layer_sizes(dim, config)
    for name, net, sizes in (("actor", actor, actor_sizes), ("critic1", critic1, critic_sizes),
                             ("critic2", critic2, critic_sizes)):
        if net.layer_sizes != sizes:
            raise ConfigurationError(f"snapshot {name} has layer sizes {net.layer_sizes}, but {dim}-dim "
                                     f"observations and hidden_sizes={config.hidden_sizes} need {sizes}")
    if actor.dropout_p != config.dropout_p:
        raise ConfigurationError(f"snapshot actor has dropout_p={actor.dropout_p}, "
                                 f"the config has dropout_p={config.dropout_p}")
    log_file = snap / "train_log.csv"
    history = read_training_log(log_file) if log_file.exists() else []
    return Td3Nets.from_networks(actor, critic1, critic2, config), episode + 1, history
