"""Twin-delayed deterministic policy gradient over the navigation residual.

Residual mode trains a correction on top of the potential-field prior: the
executed command is clip(prior + policy_output). End-to-end mode trains
the same architecture on the observation without the prior's two slots.
Rewards are the environment's sparse success signal; nothing is shaped.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .env import EVAL_SEED_OFFSET, EpisodeConfig, NavEnv, SensorConfig, Terminal, discounted_return
from .errors import ConfigurationError, TrainingDiverged, UsageError, bounded, check_fields, require
from .evaluation import paired_episodes
from .grid import ShortestPathOracle
from .fileio import from_doc, read_json, read_rows, write_json, write_rows
from .nn import Adam, Mlp, load_checkpoint, polyak_update, save_checkpoint
from .policy import TRAINING_MODES, make_policy
from .prior import PriorParams
from .rollout import drive
from .world import WorldSpec

ACTION_DIM = 2
#: the learner's dtype: networks, gradients, optimiser state and replay rows
LEARNER_DTYPE = np.float32


@dataclass(frozen=True)
class Td3Config:
    tau: float = bounded(0.005, ge=0.0, le=1.0)
    policy_delay: int = bounded(2, ge=1)
    smoothing_noise_sigma: float = bounded(0.2, ge=0.0)
    smoothing_noise_clip: float = bounded(0.5, ge=0.0)
    exploration_noise_sigma: float = bounded(0.1, ge=0.0)
    batch_size: int = bounded(256, ge=1)
    buffer_capacity: int = bounded(200_000, ge=1)
    warmup_steps: int = bounded(1000, ge=0)
    actor_lr: float = bounded(3e-4, gt=0.0)
    critic_lr: float = bounded(3e-4, gt=0.0)
    total_episodes: int = bounded(1000, ge=1)
    eval_every: int = bounded(10, ge=1)
    eval_episodes: int = bounded(10, ge=1)
    hidden_sizes: tuple[int, ...] = bounded((256, 256), ge=1)
    dropout_p: float = bounded(0.2, ge=0.0, lt=1.0)

    def __post_init__(self) -> None:
        check_fields(self)
        # a buffer that never holds a full batch would train nothing
        require(self.batch_size <= self.buffer_capacity,
                f"batch_size={self.batch_size} exceeds buffer_capacity={self.buffer_capacity}")


class ReplayBuffer:
    """Fixed-capacity FIFO transition store with uniform sampling.

    A transition is one row [obs | action | reward | next_obs | done] of one array.
    """

    def __init__(self, capacity: int, obs_dim: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        try:
            self.rows = np.zeros((capacity, 2 * obs_dim + ACTION_DIM + 2), LEARNER_DTYPE)
        except (MemoryError, ValueError) as exc:  # numpy refuses the size before touching memory
            raise ConfigurationError(f"buffer_capacity={capacity} cannot be allocated: {exc}") from None
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
    """Actor and twin critics, their targets and optimisers.

    The learner is two float32 vectors laid out [actor | critic 1 | critic 2]:
    live holds the trained parameters and target their Polyak averages, and
    every network here is a view of its slice, so it computes in float32.
    The twin critics are one stack of two networks (Mlp) over the (2, P)
    reshape of their joint slice: Q1 is critics.row(0) and Q2 critics.row(1),
    and one forward or backward runs both. The gradients are written into
    one scratch vector with the same layout (actor_grad, and critics_grad
    shaped like critics.params), and the Adam moments follow its dtype. The
    critics always step together, so one Adam covers their joint slice;
    Adam and Polyak are elementwise, so the joint steps equal one step per
    network.
    """

    live: np.ndarray
    target: np.ndarray
    actor: Mlp
    actor_target: Mlp
    critics: Mlp
    critics_target: Mlp
    adam_actor: Adam
    adam_critics: Adam
    actor_grad: np.ndarray
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
        """Copies of the networks narrowed to float32 as live, targets equal to them, fresh optimiser state."""
        arch = [(c.layer_sizes, c.output_activation, c.dropout_p) for c in (critic1, critic2)]
        if arch[0] != arch[1]:
            raise ConfigurationError(f"the twin critics differ in architecture: {arch[0]} and {arch[1]}")
        live = np.concatenate([net.params for net in (actor, critic1, critic2)], dtype=LEARNER_DTYPE)
        target = live.copy()
        grad = np.empty_like(live)
        n = actor.params.size
        critics, critics_target = (critic1.with_params(flat[n:].reshape(2, -1)) for flat in (live, target))
        return cls(
            live=live,
            target=target,
            actor=actor.with_params(live[:n]),
            actor_target=actor.with_params(target[:n]),
            critics=critics,
            critics_target=critics_target,
            adam_actor=Adam(live[:n], config.actor_lr),
            adam_critics=Adam(critics.params, config.critic_lr),
            actor_grad=grad[:n],
            critics_grad=grad[n:].reshape(2, -1),
        )


def _clamp(x: np.ndarray, bound: float) -> np.ndarray:
    """x clipped to [-bound, bound] in place (np.clip's values, without its wrapper)."""
    return np.minimum(np.maximum(x, -bound, out=x), bound, out=x)


def critic_update(nets: Td3Nets, batch, config: Td3Config, gamma: float, rng: np.random.Generator) -> float:
    """One clipped-double-Q regression step on both critics with discount gamma; returns mean loss.

    batch is (obs_action, reward, next_obs, done), as ReplayBuffer.sample returns it.
    Both critics run in one pass of their stack: one target forward, one
    traced forward and one backward, with a leading critic axis throughout.
    """
    obs_action, reward, next_obs, done = batch
    b = obs_action.shape[0]
    noise = rng.normal(0.0, config.smoothing_noise_sigma, (b, ACTION_DIM)).astype(LEARNER_DTYPE)
    _clamp(noise, config.smoothing_noise_clip)
    next_action = nets.actor_target.forward(next_obs)
    next_action += noise
    _clamp(next_action, 1.0)
    target_in = np.concatenate([next_obs, next_action], axis=1)
    q_next = nets.critics_target.forward(target_in)[..., 0]
    y = reward + gamma * (1.0 - done) * np.minimum(q_next[0], q_next[1])

    q, trace = nets.critics.forward_trace(obs_action)
    err = q[..., 0] - y
    nets.critics.backward(trace, (2.0 / b) * err[..., None], input_grad=False, out=nets.critics_grad)
    nets.adam_critics.step(nets.critics.params, nets.critics_grad)
    err *= err
    losses = np.add.reduce(err, -1) / b  # one mean per critic, each summed over its own row
    return (float(losses[0]) + float(losses[1])) / 2.0


def actor_update(nets: Td3Nets, batch, config: Td3Config, rng: np.random.Generator) -> float:
    """Deterministic policy-gradient ascent on critic1, then Polyak on all targets.

    Only the observations of batch (obs_action without its action columns)
    are read. The actor runs with dropout live (masks from rng) when its
    dropout_p > 0.
    """
    obs = batch[0][:, :-ACTION_DIM]
    b = obs.shape[0]
    action, actor_trace = nets.actor.forward_trace(obs, rng=rng)
    q1 = nets.critics.row(0)
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
    ret: float = field(metadata={"column": "return"})
    eval_success: float | None = None
    eval_spl: float | None = None


@dataclass
class TrainResult:
    actor: Mlp
    mode: str
    log: list[TrainLogRow]
    checkpoint_path: Path | None = None
    log_path: Path | None = None


def widened(net: Mlp) -> Mlp:
    """A float64 copy of a learner network: what evaluation runs and train returns."""
    return net.with_params(net.params.astype(np.float64))


def greedy_episode(env: NavEnv, actor: Mlp, mode: str, seed: int) -> bool:
    """Periodic eval: the mode's namesake controller in one pass (no noise, dropout off); True on success."""
    policy = make_policy(mode, actor, mode, single_pass=True)
    for _obs, _out, result in drive(env, policy, seed):
        pass
    return result.terminal is Terminal.GOAL


def _check_finite(out_dir: Path | None, name: str, loss: float, episode: int, step: int, seed: int) -> None:
    """Raise TrainingDiverged on a non-finite loss, leaving divergence.json in out_dir."""
    if not math.isfinite(loss):
        info = {"episode": episode, "step": step, f"{name}_loss": loss, "seed": seed}
        if out_dir is not None:
            write_json(out_dir / "divergence.json", info)
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

    The learner trains in float32 (Td3Nets). The periodic evaluation and
    the returned actor use a float64 copy of the float32 actor, so a logged
    eval_success/eval_spl equals an evaluate of the actor as returned.

    Checkpoints land in out_dir: actor.ckpt and train_log.csv at the end
    plus a rolling snapshot (actor/critic1/critic2 and the log so far)
    every eval_every episodes. They hold the float32 values widened to
    float64, so a resumed learner narrows them back exactly. Resuming
    restarts from the snapshot networks with a fresh replay buffer and
    optimizer state, and train_log.csv keeps the snapshot's rows ahead of
    the new ones; TrainResult.log holds only the episodes this call ran.
    """
    if mode not in TRAINING_MODES:
        raise ConfigurationError(f"unknown training mode {mode!r}")
    if not worlds:
        raise ConfigurationError("training needs at least one world")
    episode_config = episode_config or EpisodeConfig()

    ss = np.random.SeedSequence(seed)
    rng_init, rng_episode, rng_explore, rng_batch, rng_update = (
        np.random.default_rng(s) for s in ss.spawn(5)
    )

    training = TRAINING_MODES[mode]
    dim = training.obs_dim
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
                policy_action = _clamp(nets.actor.forward(obs) + noise, 1.0)
            result = env.step(training.command(obs, policy_action))
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
            actor = widened(nets.actor)
            greedy = paired_episodes(mode, envs, config.eval_episodes, seed * 100_000, oracle,
                                     lambda env, s: greedy_episode(env, actor, mode, s))
            row.eval_success, row.eval_spl = greedy.success_rate, greedy.spl
            if out_path is not None:
                _save_snapshot(out_path, nets, mode, history + log)

    actor = widened(nets.actor)
    ckpt_path = log_path = None
    if out_path is not None:
        ckpt_path = out_path / "actor.ckpt"
        save_checkpoint(actor, mode, ckpt_path)
        log_path = out_path / "train_log.csv"
        write_rows(log_path, TrainLogRow, history + log)
    return TrainResult(actor=actor, mode=mode, log=log, checkpoint_path=ckpt_path, log_path=log_path)


@dataclass(frozen=True)
class SnapshotState:
    """snapshot/state.json: the last episode the snapshot holds, and its training mode."""

    episode: int = field(metadata={"ge": 0})
    mode: str


def _save_snapshot(out_dir: Path, nets: Td3Nets, mode: str, log: list[TrainLogRow]) -> None:
    snap = out_dir / "snapshot"
    save_checkpoint(nets.actor, mode, snap / "actor.ckpt")
    for k in (0, 1):
        save_checkpoint(nets.critics.row(k), mode, snap / f"critic{k + 1}.ckpt")
    write_rows(snap / "train_log.csv", TrainLogRow, log)
    write_json(snap / "state.json", asdict(SnapshotState(log[-1].episode, mode)))


def _load_snapshot(run_dir: Path, dim: int, config: Td3Config) -> tuple[Td3Nets, int, list[TrainLogRow]]:
    """Networks, first episode to run, and the log rows up to the snapshot."""
    snap = run_dir / "snapshot"
    state_file = snap / "state.json"
    if not state_file.exists():
        raise ConfigurationError(f"no snapshot to resume from under {run_dir}")
    state = read_json(state_file, lambda doc: from_doc(SnapshotState, doc, "state"))
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
    history = read_rows(log_file, TrainLogRow) if log_file.exists() else []
    return Td3Nets.from_networks(actor, critic1, critic2, config), state.episode + 1, history
