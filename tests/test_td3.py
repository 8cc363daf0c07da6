"""Tests for the TD3 trainer: update rules against hand-computed targets,
replay mechanics, and end-to-end determinism of tiny runs."""

import copy
import math
import pickle

import numpy as np
import pytest

from resnav.env import EpisodeConfig, NavEnv, SensorConfig, Terminal
from resnav.errors import ConfigurationError, TrainingDiverged, UsageError
from resnav.evaluation import evaluate, paired_episodes
from resnav.fileio import read_rows, write_rows
from resnav.grid import ShortestPathOracle
from resnav.nn import Adam, Mlp, load_checkpoint, polyak_update
from resnav.policy import TRAINING_MODES, EndToEndPolicy, ResidualPolicy
from resnav.prior import Action, compose_hybrid
from resnav.td3 import (
    ReplayBuffer,
    Td3Config,
    Td3Nets,
    TrainLogRow,
    _load_snapshot,
    _save_snapshot,
    actor_update,
    bootstrap_mask,
    critic_update,
    greedy_episode,
    train,
    widened,
)

from conftest import FLOAT32_AGREEMENT, make_cluttered_world, make_empty_world, param_grad, relative_error


def small_config(**overrides) -> Td3Config:
    base = dict(
        total_episodes=3,
        warmup_steps=20,
        batch_size=8,
        buffer_capacity=2000,
        hidden_sizes=(8, 8),
        eval_every=2,
        eval_episodes=2,
    )
    base.update(overrides)
    return Td3Config(**base)


class TestComposeHybrid:
    def test_plain_sum(self):
        act = compose_hybrid(Action(0.4, -0.2), np.array([0.1, 0.3]))
        assert act.v == pytest.approx(0.5)
        assert act.omega == pytest.approx(0.1)

    def test_clips_high_and_low(self):
        act = compose_hybrid(Action(0.9, -0.9), np.array([0.5, -0.5]))
        assert act.v == 1.0
        assert act.omega == -1.0

    def test_residual_can_cancel_the_prior(self):
        act = compose_hybrid(Action(1.0, -0.7), np.array([-1.0, 0.7]))
        assert act.v == 0.0
        assert act.omega == 0.0


class TestBootstrapMask:
    def test_goal_and_collision_are_terminal(self):
        assert bootstrap_mask(Terminal.GOAL) == 1.0
        assert bootstrap_mask(Terminal.COLLISION) == 1.0

    def test_timeout_keeps_the_bootstrap(self):
        assert bootstrap_mask(Terminal.TIMEOUT) == 0.0
        assert bootstrap_mask(None) == 0.0


class TestReplayBuffer:
    def test_impossible_capacity_named(self):
        # beyond what numpy can address, so it refuses without allocating
        with pytest.raises(ConfigurationError, match="buffer_capacity=1000000000000000000 cannot be allocated"):
            ReplayBuffer(10**18, obs_dim=21)

    def test_fifo_wraparound(self):
        buf = ReplayBuffer(4, obs_dim=2)
        for k in range(6):
            buf.add(np.full(2, k), np.zeros(2), float(k), np.zeros(2), 0.0)
        assert len(buf) == 4
        assert sorted(buf.reward.tolist()) == [2.0, 3.0, 4.0, 5.0]

    def test_sample_shapes(self):
        buf = ReplayBuffer(10, obs_dim=3)
        for k in range(5):
            buf.add(np.zeros(3), np.zeros(2), 0.0, np.zeros(3), 0.0)
        obs_act, rew, nxt, done = buf.sample(np.random.default_rng(0), 4)
        assert obs_act.shape == (4, 5)
        assert rew.shape == (4,) and nxt.shape == (4, 3) and done.shape == (4,)

    def test_sample_only_covers_filled_slots(self):
        buf = ReplayBuffer(100, obs_dim=1)
        buf.add(np.array([1.0]), np.zeros(2), 7.0, np.zeros(1), 0.0)
        buf.add(np.array([2.0]), np.zeros(2), 9.0, np.zeros(1), 0.0)
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(50):
            seen.update(buf.sample(rng, 8)[1].tolist())
        assert seen == {7.0, 9.0}

    def test_sample_gathers_whole_transitions(self):
        rng = np.random.default_rng(4)
        buf = ReplayBuffer(16, obs_dim=3)
        for _ in range(10):
            buf.add(rng.normal(size=3), rng.normal(size=2), rng.normal(), rng.normal(size=3), rng.normal())
        got = buf.sample(np.random.default_rng(5), 7)
        idx = np.random.default_rng(5).integers(0, 10, 7)
        for arr, field in zip(got, (buf.obs_action, buf.reward, buf.next_obs, buf.done)):
            assert np.array_equal(arr, field[idx])

    def test_empty_sample_rejected(self):
        buf = ReplayBuffer(4, obs_dim=2)
        with pytest.raises(UsageError):
            buf.sample(np.random.default_rng(0), 1)


def zeroed_nets(obs_dim: int, config: Td3Config) -> Td3Nets:
    """All-zero networks: actor outputs 0, critics output their final bias."""
    return Td3Nets.build(obs_dim, config, rng=None)


def one_sample_batch(obs, action, reward, next_obs, done):
    return (
        np.concatenate([obs, action])[None, :],
        np.array([reward]),
        np.asarray(next_obs)[None, :],
        np.array([done]),
    )


class TestCriticUpdate:
    """The returned loss is mean((Q - y)^2) before the step, so with zeroed
    critics (Q = 0) the loss equals y^2 and exposes the target directly."""

    def test_terminal_target_is_reward_only(self):
        config = small_config(smoothing_noise_sigma=0.0)
        nets = zeroed_nets(3, config)
        nets.critics_target.row(0).biases[-1][:] = 5.0
        nets.critics_target.row(1).biases[-1][:] = 5.0
        batch = one_sample_batch(np.zeros(3), np.zeros(2), 0.7, np.ones(3), done=1.0)
        loss = critic_update(nets, batch, config, 0.9, np.random.default_rng(0))
        assert loss == pytest.approx(0.7**2, abs=1e-12)

    def test_bootstrap_uses_the_smaller_twin(self):
        config = small_config(smoothing_noise_sigma=0.0)
        nets = zeroed_nets(3, config)
        nets.critics_target.row(0).biases[-1][:] = 2.0
        nets.critics_target.row(1).biases[-1][:] = -3.0
        batch = one_sample_batch(np.zeros(3), np.zeros(2), 0.5, np.ones(3), done=0.0)
        y = 0.5 + 0.9 * (-3.0)
        loss = critic_update(nets, batch, config, 0.9, np.random.default_rng(0))
        assert loss == pytest.approx(y**2, abs=1e-12)

    def test_timeout_transition_keeps_bootstrap(self):
        config = small_config(smoothing_noise_sigma=0.0)
        nets = zeroed_nets(3, config)
        nets.critics_target.row(0).biases[-1][:] = 4.0
        nets.critics_target.row(1).biases[-1][:] = 4.0
        batch = one_sample_batch(np.zeros(3), np.zeros(2), 0.0, np.ones(3), done=0.0)
        loss = critic_update(nets, batch, config, 0.9, np.random.default_rng(0))
        assert loss == pytest.approx((0.9 * 4.0) ** 2, abs=1e-12)

    def test_overfits_a_single_terminal_transition(self):
        config = small_config(hidden_sizes=(32, 32), critic_lr=1e-2)
        rng = np.random.default_rng(11)
        nets = Td3Nets.build(6, config, rng)
        obs = rng.uniform(-1.0, 1.0, 6)
        action = np.array([0.3, -0.4])
        batch = one_sample_batch(obs, action, 1.0, rng.uniform(-1.0, 1.0, 6), done=1.0)
        for _ in range(500):
            critic_update(nets, batch, config, 0.99, rng)
        q = nets.critics.row(0).forward(np.concatenate([obs, action]))
        assert q[0] == pytest.approx(1.0, abs=0.05)


def fit_critic_to_function(critic: Mlp, target_fn, obs_dim: int, rng, steps=1500, n=512):
    """Supervised regression of Q(s, a) onto target_fn(a) at s = 0."""
    actions = rng.uniform(-1.0, 1.0, (n, 2))
    x = np.concatenate([np.zeros((n, obs_dim)), actions], axis=1)
    y = np.array([target_fn(a) for a in actions])
    adam = Adam(critic.params, 1e-2)
    for _ in range(steps):
        q, trace = critic.forward_trace(x)
        err = q[:, 0] - y
        adam.step(critic.params, param_grad(critic, trace, (2.0 / n) * err[:, None]))


class TestActorUpdate:
    def test_actor_climbs_to_the_critic_peak(self):
        """Freeze a critic shaped like a known bowl; repeated actor updates
        must walk the policy output to that critic's own argmax."""
        obs_dim = 4
        rng = np.random.default_rng(5)
        peak = np.array([0.3, -0.5])
        critic = Mlp([obs_dim + 2, 64, 64, 1], "identity", 0.0, rng=rng)
        fit_critic_to_function(critic, lambda a: -np.sum((a - peak) ** 2), obs_dim, rng)

        grid_1d = np.linspace(-1.0, 1.0, 201)
        ga, gb = np.meshgrid(grid_1d, grid_1d, indexing="ij")
        cand = np.stack([ga.ravel(), gb.ravel()], axis=1)
        q = critic.forward(np.concatenate([np.zeros((cand.shape[0], obs_dim)), cand], axis=1))
        critic_peak = cand[int(np.argmax(q[:, 0]))]
        assert np.linalg.norm(critic_peak - peak) < 0.1

        config = small_config(actor_lr=1e-2, dropout_p=0.0, tau=0.005)
        actor = Mlp([obs_dim, 16, 16, 2], "tanh", 0.0, rng=rng)
        nets = Td3Nets.from_networks(actor, critic, copy.deepcopy(critic), config)
        batch = (np.zeros((8, obs_dim + 2)), None, None, None)
        for _ in range(800):
            actor_update(nets, batch, config, rng)
        out = nets.actor.forward(np.zeros(obs_dim))
        assert np.linalg.norm(out - critic_peak) < 0.02

    def test_targets_move_by_polyak_for_all_three_networks(self):
        config = small_config(tau=0.1, dropout_p=0.0)
        rng = np.random.default_rng(2)
        nets = Td3Nets.build(3, config, rng)
        pairs = {
            "actor": (nets.actor_target, nets.actor),
            "c1": (nets.critics_target.row(0), nets.critics.row(0)),
            "c2": (nets.critics_target.row(1), nets.critics.row(1)),
        }
        old = {name: target.params.copy() for name, (target, _) in pairs.items()}
        batch = (rng.normal(size=(4, 5)), None, None, None)
        old_target = nets.target.copy()
        actor_update(nets, batch, config, rng)
        for name, (target, live) in pairs.items():
            want = (1.0 - config.tau) * old[name] + config.tau * live.params
            assert np.allclose(target.params, want, atol=1e-15), name
        # the three targets are one vector, moved by one update
        assert np.array_equal(nets.target, (1.0 - config.tau) * old_target + config.tau * nets.live)

    def test_dropout_makes_the_update_depend_on_its_rng(self):
        config = small_config(dropout_p=0.5)
        rng = np.random.default_rng(7)
        nets_a = Td3Nets.build(3, config, np.random.default_rng(1))
        nets_b = Td3Nets.build(3, config, np.random.default_rng(1))
        batch = (rng.normal(size=(16, 5)), None, None, None)
        actor_update(nets_a, batch, config, np.random.default_rng(10))
        actor_update(nets_b, batch, config, np.random.default_rng(99))
        assert not np.array_equal(nets_a.actor.params, nets_b.actor.params)


def reference_updates(nets: Td3Nets, config: Td3Config, gamma: float):
    """Plain per-critic float32 copies of nets with the TD3 updates written one critic at a time."""
    actor, actor_target = copy.deepcopy(nets.actor), copy.deepcopy(nets.actor_target)
    critics = [copy.deepcopy(nets.critics.row(k)) for k in (0, 1)]
    targets = [copy.deepcopy(nets.critics_target.row(k)) for k in (0, 1)]
    adam_actor = Adam(actor.params, config.actor_lr)
    adam_critics = [Adam(c.params, config.critic_lr) for c in critics]

    def critic_step(batch, rng):
        obs_action, reward, next_obs, done = batch
        obs, action = obs_action[:, :-2], obs_action[:, -2:]
        b = obs.shape[0]
        noise = rng.normal(0.0, config.smoothing_noise_sigma, (b, 2)).astype(np.float32)
        np.clip(noise, -config.smoothing_noise_clip, config.smoothing_noise_clip, out=noise)
        next_action = np.clip(actor_target.forward(next_obs) + noise, -1.0, 1.0)
        target_in = np.concatenate([next_obs, next_action], axis=1)
        q_next = np.minimum(targets[0].forward(target_in)[:, 0], targets[1].forward(target_in)[:, 0])
        y = reward + gamma * (1.0 - done) * q_next
        total = 0.0
        for critic, adam in zip(critics, adam_critics):
            q, trace = critic.forward_trace(np.concatenate([obs, action], axis=1))
            err = q[:, 0] - y
            adam.step(critic.params, param_grad(critic, trace, (2.0 / b) * err[:, None]))
            total += float(np.mean(err * err))
        return total / 2.0

    def actor_step(batch, rng):
        obs = batch[0][:, :-2]
        b = obs.shape[0]
        action, actor_trace = actor.forward_trace(obs, rng=rng)
        q, q_trace = critics[0].forward_trace(np.concatenate([obs, action], axis=1))
        d_input = critics[0].backward(q_trace, np.full((b, 1), -1.0 / b))
        adam_actor.step(actor.params, param_grad(actor, actor_trace, d_input[:, obs.shape[1]:]))
        for target, live in ((actor_target, actor), *zip(targets, critics)):
            polyak_update(target.params, live.params, config.tau)
        return float(-np.mean(q))

    networks = {"actor": actor, "actor_target": actor_target, "critics": critics, "targets": targets}
    return critic_step, actor_step, networks


class TestTwinCritics:
    def test_build_draws_actor_then_each_critic_in_turn(self):
        config = small_config(hidden_sizes=(16, 16))
        nets = Td3Nets.build(5, config, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        actor = Mlp([5, 16, 16, 2], "tanh", config.dropout_p, rng=rng)
        critic1 = Mlp([7, 16, 16, 1], "identity", 0.0, rng=rng)
        critic2 = Mlp([7, 16, 16, 1], "identity", 0.0, rng=rng)
        assert nets.live.dtype == nets.target.dtype == np.float32
        assert np.array_equal(nets.actor.params, actor.params.astype(np.float32))
        assert np.array_equal(nets.critics.row(0).params, critic1.params.astype(np.float32))
        assert np.array_equal(nets.critics.row(1).params, critic2.params.astype(np.float32))
        assert np.array_equal(nets.critics_target.params, nets.critics.params)

    def test_updates_equal_a_per_critic_reference(self):
        config = small_config(hidden_sizes=(16, 16), dropout_p=0.2, tau=0.05)
        rng = np.random.default_rng(21)
        nets = Td3Nets.build(5, config, rng)
        buf = ReplayBuffer(64, obs_dim=5)
        for _ in range(40):
            buf.add(rng.normal(size=5), rng.uniform(-1, 1, 2), float(rng.random() < 0.3),
                    rng.normal(size=5), float(rng.random() < 0.2))
        critic_step, actor_step, ref = reference_updates(nets, config, 0.99)
        assert all(net.params.dtype == np.float32 for net in (ref["actor"], *ref["critics"]))
        for i in range(3):  # later rounds start from targets that differ from the live nets
            batch = buf.sample(np.random.default_rng(i), 16)
            assert critic_update(nets, batch, config, 0.99, np.random.default_rng(10 + i)) == \
                critic_step(batch, np.random.default_rng(10 + i))
            assert actor_update(nets, batch, config, np.random.default_rng(20 + i)) == \
                actor_step(batch, np.random.default_rng(20 + i))
        assert np.array_equal(nets.actor.params, ref["actor"].params)
        assert np.array_equal(nets.actor_target.params, ref["actor_target"].params)
        for k in (0, 1):
            assert np.array_equal(nets.critics.row(k).params, ref["critics"][k].params)
            assert np.array_equal(nets.critics_target.row(k).params, ref["targets"][k].params)

    @pytest.mark.parametrize("sizes, dropout_p", [([7, 16, 1], 0.0), ([7, 16, 16, 1], 0.2)],
                             ids=["other-sizes", "dropout"])
    def test_critics_of_another_architecture_rejected(self, sizes, dropout_p):
        rng = np.random.default_rng(8)
        actor = Mlp([5, 16, 16, 2], "tanh", 0.2, rng=rng)
        critic = Mlp([7, 16, 16, 1], "identity", 0.0, rng=rng)
        with pytest.raises(ConfigurationError, match="twin critics differ"):
            Td3Nets.from_networks(actor, critic, Mlp(sizes, "identity", dropout_p, rng=rng), small_config())

    def test_snapshot_round_trips_both_critics(self, tmp_path):
        config = small_config()
        nets = Td3Nets.build(TRAINING_MODES["residual"].obs_dim, config, np.random.default_rng(3))
        _save_snapshot(tmp_path, nets, "residual", [TrainLogRow(1, 5, 0.5, 0, 0.0)])
        for k in (0, 1):
            critic, _ = load_checkpoint(tmp_path / "snapshot" / f"critic{k + 1}.ckpt")
            assert np.array_equal(critic.params, nets.critics.row(k).params)
        loaded, _, _ = _load_snapshot(tmp_path, TRAINING_MODES["residual"].obs_dim, config)
        assert np.array_equal(loaded.critics.params, nets.critics.params)
        assert np.array_equal(loaded.actor.params, nets.actor.params)


def test_float32_updates_agree_with_float64(monkeypatch):
    """One critic update and one actor update, each from the same start as a float64 learner."""
    config = small_config(hidden_sizes=(64, 64), dropout_p=0.2)
    dim = TRAINING_MODES["residual"].obs_dim
    rng = np.random.default_rng(31)
    buf = ReplayBuffer(256, dim)
    for _ in range(256):
        buf.add(rng.normal(size=dim), rng.uniform(-1, 1, 2), float(rng.random() < 0.3),
                rng.normal(size=dim), float(rng.random() < 0.2))
    batch = buf.sample(rng, 128)
    wide_batch = tuple(column.astype(np.float64) for column in batch)

    def learners() -> tuple[Td3Nets, Td3Nets]:
        narrow = Td3Nets.build(dim, config, np.random.default_rng(32))
        with monkeypatch.context() as m:
            m.setattr("resnav.td3.LEARNER_DTYPE", np.float64)
            wide = Td3Nets.from_networks(*(widened(net) for net in (narrow.actor, narrow.critics.row(0),
                                                                     narrow.critics.row(1))), config)
        assert np.array_equal(wide.live, narrow.live)
        return narrow, wide

    narrow, wide = learners()
    losses = [critic_update(narrow, batch, config, 0.99, np.random.default_rng(5)),
              critic_update(wide, wide_batch, config, 0.99, np.random.default_rng(5))]
    assert relative_error(np.float32(losses[0]), np.float64(losses[1])) < FLOAT32_AGREEMENT
    assert relative_error(narrow.critics_grad, wide.critics_grad) < FLOAT32_AGREEMENT

    narrow, wide = learners()
    losses = [actor_update(narrow, batch, config, np.random.default_rng(6)),
              actor_update(wide, wide_batch, config, np.random.default_rng(6))]
    assert relative_error(np.float32(losses[0]), np.float64(losses[1])) < FLOAT32_AGREEMENT
    assert relative_error(narrow.actor_grad, wide.actor_grad) < FLOAT32_AGREEMENT


class TestFlatLearner:
    def test_networks_are_views_of_two_vectors(self):
        nets = Td3Nets.build(5, small_config(), np.random.default_rng(4))
        for flat, nets_on_it in ((nets.live, (nets.actor, nets.critics.row(0), nets.critics.row(1))),
                                 (nets.target, (nets.actor_target, nets.critics_target.row(0),
                                                nets.critics_target.row(1)))):
            assert np.array_equal(flat, np.concatenate([net.params for net in nets_on_it]))
            for net in nets_on_it:
                assert net.params.base is flat
        assert np.array_equal(nets.target, nets.live)
        assert not np.shares_memory(nets.live, nets.target)

    def test_critic_step_moves_both_critics_and_not_the_actor(self):
        config = small_config()
        rng = np.random.default_rng(9)
        nets = Td3Nets.build(5, config, rng)
        before = {"live": nets.live.copy(), "target": nets.target.copy()}
        batch = (np.concatenate([rng.normal(size=(8, 5)), rng.uniform(-1, 1, (8, 2))], axis=1),
                 rng.normal(size=8), rng.normal(size=(8, 5)), np.zeros(8))
        critic_update(nets, batch, config, 0.99, rng)
        n = nets.actor.params.size
        assert nets.adam_critics.t == 1 and nets.adam_actor.t == 0
        assert np.array_equal(nets.live[:n], before["live"][:n])
        for k in (0, 1):
            critic = nets.critics.row(k)
            lo = n + k * critic.params.size
            assert not np.array_equal(critic.params, before["live"][lo:lo + critic.params.size])
        assert np.array_equal(nets.target, before["target"])

    def test_gradient_and_critic_slices_follow_the_layout(self):
        nets = Td3Nets.build(5, small_config(), np.random.default_rng(4))
        networks = (nets.actor, nets.critics.row(0), nets.critics.row(1))
        for k, part in enumerate((nets.actor_grad, *nets.critics_grad)):
            part[...] = k
        # the three gradient slices tile one vector laid out like live
        want = np.concatenate([np.full(net.params.size, float(k)) for k, net in enumerate(networks)])
        n = nets.actor.params.size
        assert np.array_equal(np.concatenate([nets.actor_grad, nets.critics_grad.ravel()]), want)
        assert nets.critics_grad.shape == nets.critics.params.shape == (2, networks[1].params.size)
        assert np.shares_memory(nets.critics.params, nets.live[n:])
        assert np.array_equal(nets.critics.params.ravel(), np.concatenate([c.params for c in networks[1:]]))

    @pytest.mark.parametrize("mode", ["residual", "end_to_end"])
    @pytest.mark.parametrize("hidden, batch", [((8, 8), 8), ((64, 64), 128), ((256, 256), 256)])
    def test_strided_critic_input_matches_its_concatenation(self, mode, hidden, batch):
        """Same bits through forward_trace and backward for the layer shapes in use:
        tests, the acceptance and benchmark runs (64x64, batch 128) and the defaults."""
        dim = TRAINING_MODES[mode].obs_dim
        rng = np.random.default_rng(12)
        buf = ReplayBuffer(2 * batch, dim)
        for _ in range(2 * batch):
            buf.add(rng.normal(size=dim), rng.uniform(-1, 1, 2), 0.0, rng.normal(size=dim), 0.0)
        obs_action = buf.sample(rng, batch)[0]
        assert not obs_action.flags.c_contiguous
        joined = np.concatenate([obs_action[:, :-2], obs_action[:, -2:]], axis=1)
        assert np.array_equal(obs_action, joined)
        critic = Mlp([dim + 2, *hidden, 1], "identity", 0.0, rng=rng)
        upstream = rng.normal(size=(batch, 1))
        q_view, trace_view = critic.forward_trace(obs_action)
        q_copy, trace_copy = critic.forward_trace(joined)
        assert q_view.tobytes() == q_copy.tobytes()
        grads = [param_grad(critic, t, upstream) for t in (trace_view, trace_copy)]
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_loss_reduction_equals_np_mean(self):
        rng = np.random.default_rng(2)
        cases = [rng.normal(size=128), rng.normal(size=(128, 1)), np.array([0.0, -0.0]),
                 np.array([-0.0, -0.0]), np.array([np.inf, 1.0]), np.array([np.inf, -np.inf]),
                 np.array([np.nan, 1.0]), np.array([1e308, 1e308]), rng.normal(size=7) * 1e-300]
        for x in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                got = float(np.add.reduce(x, None) / x.size)
                want = float(np.mean(x))
                negated = float(-np.mean(x))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert np.float64(-got).tobytes() == np.float64(negated).tobytes()

    @pytest.mark.parametrize("clone", [
        lambda net: pickle.loads(pickle.dumps(net)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_copies_of_a_bound_network_do_not_alias_the_learner(self, clone):
        nets = Td3Nets.build(5, small_config(), np.random.default_rng(6))
        for net in (nets.actor, nets.critics, nets.critics.row(1), nets.critics_target.row(0)):
            dup = clone(net)
            assert np.array_equal(dup.params, net.params)
            assert not np.shares_memory(dup.params, nets.live)
            assert not np.shares_memory(dup.params, nets.target)
            live, target = nets.live.copy(), nets.target.copy()
            dup.params[:] = 7.0
            assert np.array_equal(nets.live, live) and np.array_equal(nets.target, target)


class TestTrain:
    def test_same_seed_reproduces_logs_and_weights(self, tmp_path):
        world = make_empty_world(side=6.0)
        episode = EpisodeConfig(max_steps=30)
        sensor = SensorConfig()
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = train([world], "residual", small_config(), episode_config=episode,
                        sensor_config=sensor, seed=42, out_dir=out, oracle=ShortestPathOracle(0.25))
            runs.append(res)
        assert runs[0].log == runs[1].log
        bytes_a = runs[0].checkpoint_path.read_bytes()
        bytes_b = runs[1].checkpoint_path.read_bytes()
        assert bytes_a == bytes_b

    def test_log_rows_are_well_formed(self, tmp_path):
        world = make_empty_world(side=6.0)
        res = train([world], "end_to_end", small_config(), episode_config=EpisodeConfig(max_steps=25),
                    seed=3, out_dir=tmp_path / "run", oracle=ShortestPathOracle(0.25))
        assert [r.episode for r in res.log] == [1, 2, 3]
        for row in res.log:
            assert 1 <= row.steps <= 25
            assert row.success in (0, 1)
            assert row.path_length_m >= 0.0
        assert res.log[1].eval_success is not None
        assert res.log[0].eval_success is None
        parsed = read_rows(res.log_path, TrainLogRow)
        assert parsed == res.log

    def test_resume_continues_from_snapshot(self, tmp_path):
        world = make_empty_world(side=6.0)
        out = tmp_path / "run"
        cfg = small_config(total_episodes=4)
        train([world], "residual", cfg, episode_config=EpisodeConfig(max_steps=20),
              seed=9, out_dir=out, oracle=ShortestPathOracle(0.25))
        assert (out / "snapshot" / "state.json").exists()
        cfg2 = small_config(total_episodes=6)
        res = train([world], "residual", cfg2, episode_config=EpisodeConfig(max_steps=20),
                    seed=9, out_dir=out, resume_from=out, oracle=ShortestPathOracle(0.25))
        assert [r.episode for r in res.log] == [5, 6]

    def test_snapshot_reloads_the_float32_learner_that_wrote_it(self, tmp_path, monkeypatch):
        written = []

        def spy(out_dir, nets, mode, log):
            written.append((nets.live.copy(), log[-1].episode))
            _save_snapshot(out_dir, nets, mode, log)

        monkeypatch.setattr("resnav.td3._save_snapshot", spy)
        out = tmp_path / "run"
        config = small_config(total_episodes=4, dropout_p=0.2)
        train([make_empty_world(side=6.0)], "residual", config, episode_config=EpisodeConfig(max_steps=20),
              seed=9, out_dir=out, oracle=ShortestPathOracle(0.25))
        live, episode = written[-1]
        assert episode == 4 and live.dtype == np.float32
        nets, start, _ = _load_snapshot(out, TRAINING_MODES["residual"].obs_dim, config)
        assert start == 5
        assert nets.live.dtype == np.float32 and np.array_equal(nets.live, live)
        assert np.array_equal(nets.target, live)

    def test_returned_actor_and_checkpoints_are_float64(self, tmp_path):
        out = tmp_path / "run"
        res = train([make_empty_world(side=6.0)], "residual", small_config(),
                    episode_config=EpisodeConfig(max_steps=20), seed=3, out_dir=out, oracle=ShortestPathOracle(0.25))
        assert res.actor.params.dtype == np.float64
        # the float32 values, widened: narrowing them back loses nothing
        assert np.array_equal(res.actor.params.astype(np.float32), res.actor.params)
        for path in (res.checkpoint_path, out / "snapshot" / "actor.ckpt", out / "snapshot" / "critic1.ckpt"):
            net, _ = load_checkpoint(path)
            assert net.params.dtype == np.float64
        assert np.array_equal(load_checkpoint(res.checkpoint_path)[0].params, res.actor.params)

    def test_resume_rejects_mismatched_observation_dim(self, tmp_path):
        world = make_empty_world(side=6.0)
        out = tmp_path / "run"
        train([world], "residual", small_config(total_episodes=2), seed=1,
              episode_config=EpisodeConfig(max_steps=15), out_dir=out, oracle=ShortestPathOracle(0.25))
        with pytest.raises(ConfigurationError, match="dim"):
            train([world], "end_to_end", small_config(total_episodes=3), seed=1,
                  episode_config=EpisodeConfig(max_steps=15), out_dir=out, resume_from=out)

    @pytest.mark.parametrize("changed, field", [
        ({"hidden_sizes": (32, 32, 32), "dropout_p": 0.0}, "hidden_sizes"),
        ({"hidden_sizes": (8, 9)}, "hidden_sizes"),
        ({"dropout_p": 0.0}, "dropout_p"),
    ], ids=["wider_deeper_no_dropout", "one_width", "dropout_only"])
    def test_resume_rejects_a_changed_architecture(self, tmp_path, changed, field):
        world = make_empty_world(side=6.0)
        out = tmp_path / "run"
        train([world], "residual", small_config(total_episodes=2, hidden_sizes=(8, 8), dropout_p=0.2), seed=1,
              episode_config=EpisodeConfig(max_steps=15), out_dir=out, oracle=ShortestPathOracle(0.25))
        with pytest.raises(ConfigurationError, match=field):
            train([world], "residual", small_config(total_episodes=3, **changed), seed=1,
                  episode_config=EpisodeConfig(max_steps=15), out_dir=out, resume_from=out)

    def test_resume_rejects_a_state_file_without_episode(self, tmp_path):
        world = make_empty_world(side=6.0)
        out = tmp_path / "run"
        train([world], "residual", small_config(total_episodes=2), seed=1,
              episode_config=EpisodeConfig(max_steps=15), out_dir=out, oracle=ShortestPathOracle(0.25))
        (out / "snapshot" / "state.json").write_text('{"mode": "residual"}\n')
        with pytest.raises(ConfigurationError, match="state.json.*episode"):
            train([world], "residual", small_config(total_episodes=3), seed=1,
                  episode_config=EpisodeConfig(max_steps=15), out_dir=out, resume_from=out)

    @pytest.mark.parametrize("episode", ['"two"', "1.5", "-1", "true", "null", "[1]"])
    def test_resume_rejects_an_episode_that_is_not_a_count(self, tmp_path, episode):
        world = make_empty_world(side=6.0)
        out = tmp_path / "run"
        train([world], "residual", small_config(total_episodes=2), seed=1,
              episode_config=EpisodeConfig(max_steps=15), out_dir=out, oracle=ShortestPathOracle(0.25))
        (out / "snapshot" / "state.json").write_text(f'{{"episode": {episode}, "mode": "residual"}}\n')
        with pytest.raises(ConfigurationError, match="state.json: state: episode must be (an integer|>= 0), got "):
            train([world], "residual", small_config(total_episodes=3), seed=1,
                  episode_config=EpisodeConfig(max_steps=15), out_dir=out, resume_from=out)

    def test_non_finite_loss_aborts_with_diagnostics(self, tmp_path, monkeypatch):
        monkeypatch.setattr("resnav.td3.critic_update", lambda *a, **k: float("nan"))
        world = make_empty_world(side=6.0)
        out = tmp_path / "run"
        with pytest.raises(TrainingDiverged):
            train([world], "residual",
                  small_config(total_episodes=1, warmup_steps=1, batch_size=1),
                  episode_config=EpisodeConfig(max_steps=10), seed=0, out_dir=out)
        assert (out / "divergence.json").exists()

    def test_discount_comes_from_the_episode_config(self, monkeypatch):
        seen = []

        def spy(nets, batch, config, gamma, rng):
            seen.append(gamma)
            return critic_update(nets, batch, config, gamma, rng)

        monkeypatch.setattr("resnav.td3.critic_update", spy)
        res = train([make_empty_world(side=6.0)], "residual", small_config(total_episodes=4),
                    episode_config=EpisodeConfig(max_steps=40, gamma=0.9), seed=5,
                    oracle=ShortestPathOracle(0.25))
        assert seen and set(seen) == {0.9}
        successes = [row for row in res.log if row.success]
        assert successes
        for row in successes:
            assert row.ret == pytest.approx(0.9 ** (row.steps - 1), rel=1e-12)

    def test_periodic_eval_scores_with_the_given_oracle(self, monkeypatch):
        world = make_empty_world(side=6.0)
        episode = EpisodeConfig(max_steps=40)
        config = small_config(total_episodes=2, eval_every=2, eval_episodes=3)
        oracle = ShortestPathOracle(0.25)
        queries = []
        shortest = oracle.shortest
        monkeypatch.setattr(oracle, "shortest", lambda *args: queries.append(args) or shortest(*args))
        monkeypatch.setattr("resnav.td3.ShortestPathOracle", None)  # no other oracle may be built
        res = train([world], "residual", config, episode_config=episode, seed=5, oracle=oracle)
        assert len(queries) == config.eval_episodes
        policy = ResidualPolicy(res.actor, single_pass=True)
        want = evaluate([world], {"greedy": policy}, config.eval_episodes, seed_base=5 * 100_000,
                        episode_config=episode, oracle=ShortestPathOracle(0.25))["greedy"]
        assert (res.log[-1].eval_success, res.log[-1].eval_spl) == (want.success_rate, want.spl)
        assert want.spl > 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            train([make_empty_world()], "hybrid", small_config())

    def test_needs_at_least_one_world(self):
        with pytest.raises(ConfigurationError):
            train([], "residual", small_config())


class TestConfigValidation:
    def test_bad_policy_delay(self):
        with pytest.raises(ConfigurationError):
            Td3Config(policy_delay=0)

    def test_bad_dropout(self):
        with pytest.raises(ConfigurationError):
            Td3Config(dropout_p=1.0)

    def test_negative_noise(self):
        with pytest.raises(ConfigurationError):
            Td3Config(exploration_noise_sigma=-0.1)

    @pytest.mark.parametrize("name", ["actor_lr", "critic_lr"])
    @pytest.mark.parametrize("rate", [0.0, -1e-3])
    def test_non_positive_learning_rate_rejected_by_name(self, name, rate):
        with pytest.raises(ConfigurationError, match=f"{name} must be > 0"):
            Td3Config(**{name: rate})

    @pytest.mark.parametrize("name", ["policy_delay", "batch_size", "buffer_capacity", "warmup_steps",
                                      "total_episodes", "eval_every", "eval_episodes"])
    @pytest.mark.parametrize("value", [2.5, 0.5, 2.0, True, False])
    def test_integer_field_rejects_a_float_or_a_bool_by_name(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer, got {value!r}"):
            Td3Config(**{name: value})

    @pytest.mark.parametrize("hidden", [(1.5,), (64, 2.0), (True,), (64, False)])
    def test_hidden_size_rejects_a_float_or_a_bool_by_name(self, hidden):
        with pytest.raises(ConfigurationError, match="hidden_sizes must be an integer"):
            Td3Config(hidden_sizes=hidden)

    def test_batch_larger_than_buffer_rejected(self):
        # such a buffer never holds a full batch, so train would make no update
        with pytest.raises(ConfigurationError, match="batch_size=64 exceeds buffer_capacity=32"):
            Td3Config(batch_size=64, buffer_capacity=32)
        assert Td3Config(batch_size=32, buffer_capacity=32).batch_size == 32


class TestTrainingLogIo:
    def test_round_trip_preserves_optional_fields(self, tmp_path):
        rows = [
            TrainLogRow(1, 30, 2.5, 0, 0.0),
            TrainLogRow(2, 12, 1.25, 1, 0.99**11, eval_success=0.5, eval_spl=0.25),
        ]
        path = tmp_path / "log.csv"
        write_rows(path, TrainLogRow, rows)
        assert read_rows(path, TrainLogRow) == rows

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ConfigurationError, match="header"):
            read_rows(path, TrainLogRow)

    def test_bad_field_reports_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(",".join(
            ("episode", "steps", "path_length_m", "success", "return", "eval_success", "eval_spl")
        ) + "\n1,2,abc,0,0.0,,\n")
        with pytest.raises(ConfigurationError, match=":2"):
            read_rows(path, TrainLogRow)

    @pytest.mark.parametrize("column", range(5))
    def test_empty_required_cell_reports_line(self, tmp_path, column):
        path = tmp_path / "log.csv"
        write_rows(path, TrainLogRow, [TrainLogRow(1, 30, 2.5, 0, 0.0), TrainLogRow(2, 12, 1.25, 1, 0.5)])
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = ""
        path.write_text("\n".join([*lines[:2], ",".join(cells)]) + "\n")
        with pytest.raises(ConfigurationError, match=f":3: missing {lines[0].split(',')[column]}"):
            read_rows(path, TrainLogRow)


class TestResumeLog:
    def test_resume_keeps_the_earlier_log_rows(self, tmp_path):
        world = make_empty_world(side=6.0)
        out = tmp_path / "run"
        episode = EpisodeConfig(max_steps=20)
        first = train([world], "residual", small_config(total_episodes=4, eval_every=2),
                      episode_config=episode, seed=9, out_dir=out, oracle=ShortestPathOracle(0.25))
        resumed = train([world], "residual", small_config(total_episodes=6, eval_every=2),
                        episode_config=episode, seed=9, out_dir=out, resume_from=out,
                        oracle=ShortestPathOracle(0.25))
        rows = read_rows(out / "train_log.csv", TrainLogRow)
        assert [r.episode for r in rows] == [1, 2, 3, 4, 5, 6]
        assert rows[:4] == first.log
        assert rows[4:] == resumed.log


class TestPeriodicEval:
    @pytest.mark.parametrize("mode", ["residual", "end_to_end"])
    def test_matches_evaluate_on_the_same_episodes(self, mode):
        worlds = [make_cluttered_world(), make_empty_world(side=6.0)]
        episode = EpisodeConfig(max_steps=50)  # short enough that some residual episodes time out
        actor = Mlp([TRAINING_MODES[mode].obs_dim, 8, 8, 2], "tanh", 0.2, rng=np.random.default_rng(4))
        envs = [NavEnv(w, episode=episode) for w in worlds]
        got = paired_episodes("greedy", envs, 8, 11, ShortestPathOracle(0.1),
                              lambda env, seed: greedy_episode(env, actor, mode, seed))
        policy = ResidualPolicy(actor, single_pass=True) if mode == "residual" else EndToEndPolicy(actor)
        result = evaluate(worlds, {"greedy": policy}, 8, seed_base=11, episode_config=episode,
                          oracle=ShortestPathOracle(0.1))["greedy"]
        assert got.episodes == result.episodes
        assert (got.success_rate, got.spl) == (result.success_rate, result.spl)
        if mode == "residual":
            assert 0.0 < result.success_rate < 1.0

    def test_train_scores_each_window_through_the_shared_loop(self, monkeypatch):
        calls = []

        def spy(label, envs, n_episodes, seed_base, oracle, episode):
            calls.append((label, len(envs), n_episodes, seed_base))
            result = paired_episodes(label, envs, n_episodes, seed_base, oracle, episode)
            calls.append((result.success_rate, result.spl))
            return result

        monkeypatch.setattr("resnav.td3.paired_episodes", spy)
        worlds = [make_empty_world(side=6.0), make_cluttered_world()]
        res = train(worlds, "end_to_end", small_config(total_episodes=4, eval_every=2, eval_episodes=3),
                    episode_config=EpisodeConfig(max_steps=20), seed=7, oracle=ShortestPathOracle(0.25))
        window = ("end_to_end", 2, 3, 7 * 100_000)
        scored = [(row.eval_success, row.eval_spl) for row in res.log if row.eval_success is not None]
        assert calls[0::2] == [window, window]
        assert calls[1::2] == scored and len(scored) == 2
