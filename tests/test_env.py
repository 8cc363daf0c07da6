"""Episode environment tests: observations, rewards, terminals, determinism."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from resnav.env import (
    E2E_OBS_DIM,
    IDX_ANGLE_TO_GOAL,
    IDX_DIST_TO_GOAL,
    IDX_PREV_OMEGA,
    IDX_PREV_V,
    IDX_PRIOR_OMEGA,
    IDX_PRIOR_V,
    N_BINS,
    RESIDUAL_OBS_DIM,
    EpisodeConfig,
    NavEnv,
    SensorConfig,
    Terminal,
    build_observation,
    discounted_return,
    goal_polar,
    prior_of,
)
from resnav.errors import ConfigurationError, UsageError
from resnav.prior import Action, PriorParams, prior_command
from resnav.world import Pose, Rect, WorldSpec, beam_angles, raycast_angles, scan
from tests.conftest import make_empty_world


def tight_goal_world(start_xy, goal_xy, side=10.0):
    """World with degenerate-ish regions pinning start and goal points."""
    sx, sy = start_xy
    gx, gy = goal_xy
    eps = 1e-6
    return WorldSpec(
        width=side, height=side, robot_radius=0.15, obstacles=(),
        start_region=Rect(sx - eps, sy - eps, sx + eps, sy + eps),
        goal_region=Rect(gx - eps, gy - eps, gx + eps, gy + eps),
    )


class TestResetAndStep:
    def test_reset_deterministic(self, empty_world):
        env = NavEnv(empty_world)
        a = env.reset(seed=42)
        pose_a, goal_a = env.pose, env.goal
        b = env.reset(seed=42)
        assert np.array_equal(a, b)
        assert env.pose == pose_a and env.goal == goal_a

    def test_within_threshold_terminates_goal(self):
        w = tight_goal_world((5.0, 5.0), (5.15, 5.0))
        env = NavEnv(w)
        env.reset(seed=0)
        r = env.step(Action(0.0, 0.0))  # 0.15 < 0.2 regardless of motion
        assert r.terminal is Terminal.GOAL
        assert r.reward == 1.0

    def test_timeout_with_zero_actions(self):
        w = tight_goal_world((2.0, 2.0), (8.0, 8.0))
        env = NavEnv(w, episode=EpisodeConfig(max_steps=50))
        env.reset(seed=1)
        total = 0.0
        for i in range(50):
            r = env.step(Action(0.0, 0.0))
            total += r.reward
        assert r.terminal is Terminal.TIMEOUT
        assert total == 0.0
        assert env.steps == 50

    def test_collision_with_wall(self):
        w = tight_goal_world((0.5, 5.0), (8.0, 8.0))
        env = NavEnv(w)
        env.reset(seed=3)
        # drive straight west regardless of start heading
        terminal = None
        for _ in range(300):
            theta = env.pose.theta
            r = env.step(Action(1.0 if abs(theta) > math.pi / 2 else -1.0, 0.0))
            if r.terminal is not None:
                terminal = r.terminal
                break
        assert terminal is Terminal.COLLISION

    def test_step_after_terminal_rejected(self):
        w = tight_goal_world((5.0, 5.0), (5.1, 5.0))
        env = NavEnv(w)
        env.reset(seed=0)
        r = env.step(Action(0.0, 0.0))
        assert r.terminal is Terminal.GOAL
        with pytest.raises(UsageError):
            env.step(Action(0.0, 0.0))

    def test_step_before_reset_rejected(self, empty_world):
        env = NavEnv(empty_world)
        with pytest.raises(UsageError):
            env.step(Action(0.0, 0.0))

    def test_unsamplable_region_errors(self):
        # legal world, but the start region sits wholly inside the wall margin
        w = WorldSpec(10.0, 10.0, 0.5, (),
                      Rect(0.05, 0.05, 0.2, 0.2), Rect(8.0, 8.0, 9.0, 9.0))
        env = NavEnv(w)
        with pytest.raises(UsageError, match="collision-free"):
            env.reset(seed=0)

    @pytest.mark.parametrize("command, executed", [
        ((3.0, -9.0), (1.0, -1.0)), ((-1.5, 0.25), (-1.0, 0.25)), ((0.4, -0.7), (0.4, -0.7)),
    ])
    def test_executed_action_is_clipped(self, empty_world, command, executed):
        env = NavEnv(empty_world)
        env.reset(seed=5)
        r = env.step(Action(*command))
        assert (r.observation[IDX_PREV_V], r.observation[IDX_PREV_OMEGA]) == executed

    def test_d_target_matches_euclidean(self, empty_world):
        env = NavEnv(empty_world)
        env.reset(seed=9)
        r = env.step(Action(0.7, 0.2))
        gx, gy = env.goal
        want = math.hypot(gx - env.pose.x, gy - env.pose.y)
        assert r.observation[IDX_DIST_TO_GOAL] == pytest.approx(want, abs=1e-12)

    def test_replaying_actions_reproduces_trajectory(self, cluttered_world):
        env = NavEnv(cluttered_world)
        rng = np.random.default_rng(17)
        actions = [Action(float(v), float(o)) for v, o in rng.uniform(-1, 1, (40, 2))]

        def run():
            env.reset(seed=1234)
            poses, rewards = [], []
            for act in actions:
                r = env.step(act)
                poses.append((env.pose.x, env.pose.y, env.pose.theta))
                rewards.append(r.reward)
                if r.terminal is not None:
                    break
            return poses, rewards

        p1, r1 = run()
        p2, r2 = run()
        assert p1 == p2 and r1 == r2

    def test_start_and_path_length_track_the_episode(self, cluttered_world):
        env = NavEnv(cluttered_world)
        rng = np.random.default_rng(5)
        for seed in (3, 4):
            env.reset(seed=seed)
            start = env.pose
            assert env.start == start and env.path_length == 0.0
            driven = 0.0
            while True:
                before = env.pose
                r = env.step(Action(float(rng.uniform(0, 1)), float(rng.uniform(-1, 1))))
                driven += math.hypot(env.pose.x - before.x, env.pose.y - before.y)
                if r.terminal is not None:
                    break
            assert env.start == start
            assert env.path_length == driven > 0.0

    def test_episode_reward_total_is_binary(self, cluttered_world):
        env = NavEnv(cluttered_world)
        rng = np.random.default_rng(23)
        for ep in range(20):
            env.reset(seed=100 + ep)
            total = 0.0
            while True:
                r = env.step(Action(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))))
                total += r.reward
                if r.terminal is not None:
                    break
            assert total in (0.0, 1.0)


class TestObservation:
    def test_all_clear_bins_are_one(self):
        s = np.full(180, 5.0)
        obs = build_observation(s, 5.0, goal_polar(Pose(0, 0, 0), (2.0, 0.0)), Action(0, 0), Action(0.5, 0.1))
        assert np.all(obs[:N_BINS] == 1.0)

    def test_goal_dead_ahead(self):
        s = np.full(180, 5.0)
        obs = build_observation(s, 5.0, goal_polar(Pose(1.0, 1.0, 0.0), (3.0, 1.0)), Action(0, 0), Action(0, 0))
        assert obs[IDX_ANGLE_TO_GOAL] == 0.0
        assert obs[IDX_DIST_TO_GOAL] == pytest.approx(2.0)

    def test_bin_uses_min_over_members(self):
        ranges = np.full(180, 5.0)
        ranges[3 * 12 + 7] = 2.5  # one member of bin 3
        obs = build_observation(ranges, 5.0, goal_polar(Pose(0, 0, 0), (1.0, 0.0)), Action(0, 0), Action(0, 0))
        # oracle: brute-force min per contiguous 12-ray block
        want = np.array([ranges[k * 12:(k + 1) * 12].min() / 5.0 for k in range(N_BINS)])
        assert np.array_equal(obs[:N_BINS], want)
        assert obs[3] == 0.5

    def test_layout_and_dims(self):
        s = np.full(180, 5.0)
        prev = Action(0.3, -0.4)
        prior = Action(0.8, 0.2)
        obs = build_observation(s, 5.0, goal_polar(Pose(0, 0, 0.5), (2.0, 2.0)), prev, prior)
        assert obs.shape == (RESIDUAL_OBS_DIM,)
        assert obs[IDX_PREV_V] == 0.3
        assert obs[IDX_PREV_OMEGA] == -0.4
        assert obs[IDX_PRIOR_V] == 0.8
        assert obs[IDX_PRIOR_OMEGA] == 0.2
        # the end-to-end prefix is everything up to the prior's two slots
        assert E2E_OBS_DIM == IDX_PREV_OMEGA + 1 == IDX_PRIOR_V == RESIDUAL_OBS_DIM - 2
        other = build_observation(s, 5.0, goal_polar(Pose(0, 0, 0.5), (2.0, 2.0)), prev, Action(-0.1, 0.9))
        assert np.array_equal(other[:E2E_OBS_DIM], obs[:E2E_OBS_DIM])
        assert not np.array_equal(other, obs)

    def test_prior_slots_hold_the_prior_command_for_the_state(self, cluttered_world):
        env = NavEnv(cluttered_world)
        obs = env.reset(seed=8)
        assert obs.shape == (RESIDUAL_OBS_DIM,)
        for _ in range(5):
            ranges = scan(env.pose, env.sensor.n_rays, env.sensor.max_range, env.world)
            want = prior_command(ranges, goal_polar(env.pose, env.goal)[0], env.prior_params)
            got = prior_of(obs)
            assert got == want
            assert type(got.v) is float and type(got.omega) is float
            obs = env.step(Action(0.3, 0.2)).observation


class TestRewardAndReturn:
    @pytest.mark.parametrize("offset, terminal, reward", [
        (0.199, Terminal.GOAL, 1.0), (0.201, None, 0.0),  # the goal test is distance < d_threshold = 0.2
    ])
    def test_reward_is_one_exactly_on_the_goal_step(self, offset, terminal, reward):
        env = NavEnv(tight_goal_world((5.0, 5.0), (5.0 + offset, 5.0)))
        env.reset(seed=0)
        r = env.step(Action(0.0, 0.0))
        assert r.terminal is terminal
        assert r.reward == reward

    def test_goal_test_is_strict_at_the_threshold(self):
        world = tight_goal_world((5.0, 5.0), (5.2, 5.0))
        probe = NavEnv(world)
        probe.reset(seed=0)
        d = goal_polar(probe.pose, probe.goal)[1]
        # A zero command leaves the pose where it is, so the step sees exactly distance d.
        for threshold, terminal, reward in [(d, None, 0.0), (math.nextafter(d, math.inf), Terminal.GOAL, 1.0)]:
            env = NavEnv(world, EpisodeConfig(d_threshold=threshold))
            env.reset(seed=0)
            r = env.step(Action(0.0, 0.0))
            assert goal_polar(env.pose, env.goal)[1] == d
            assert r.terminal is terminal
            assert r.reward == reward

    def test_discounted_return_examples(self):
        assert discounted_return(3, Terminal.GOAL, 0.99) == 0.99**2
        assert discounted_return(1, Terminal.GOAL, 0.5) == 1.0
        assert discounted_return(10, Terminal.TIMEOUT, 0.9) == 0.0
        assert discounted_return(4, Terminal.COLLISION, 0.9) == 0.0

    @pytest.mark.parametrize("start, goal, command, max_steps, terminal", [
        ((3.0, 5.0), (6.0, 5.0), None, 300, Terminal.GOAL),
        ((0.5, 5.0), (8.0, 8.0), Action(1.0, 0.0), 300, Terminal.COLLISION),
        ((2.0, 2.0), (8.0, 8.0), Action(0.0, 0.3), 25, Terminal.TIMEOUT),
    ])
    def test_discounted_return_equals_the_discounted_reward_sum(self, start, goal, command, max_steps, terminal):
        env = NavEnv(tight_goal_world(start, goal), EpisodeConfig(max_steps=max_steps, gamma=0.97))
        obs = env.reset(seed=2)
        rewards = []
        while True:
            r = env.step(command or prior_of(obs))
            rewards.append(r.reward)
            obs = r.observation
            if r.terminal is not None:
                break
        assert r.terminal is terminal
        want = sum(x * 0.97**i for i, x in enumerate(rewards))  # the discounted sum of the sparse rewards
        assert discounted_return(env.steps, r.terminal, 0.97) == want


# SensorConfig, EpisodeConfig and PriorParams (with NavEnv's d_influence <= max_range) are
# the only gates in front of scan, step_kinematics, prior_command and discounted_return.
# Values at and around each field's edges; the defaults are max_range 5 m, d_influence 1.5 m.
_CONFIG_EDGES = [
    *[(SensorConfig, "n_rays", v) for v in (0, -15, math.inf, math.nan, 14, 15, 16, 30)],
    *[(cls, f.name, v) for cls in (SensorConfig, EpisodeConfig, PriorParams)
      for f in dataclasses.fields(cls) if f.name != "n_rays"
      for v in (0, -1, math.inf, math.nan, *((1e-9,) if isinstance(f.default, float) else (1,)))],
    (SensorConfig, "max_range", 1.5), (SensorConfig, "max_range", math.nextafter(1.5, 0.0)),
    (EpisodeConfig, "gamma", 1.0), (EpisodeConfig, "gamma", math.nextafter(1.0, 0.0)),
    (PriorParams, "d_influence", 5.0), (PriorParams, "d_influence", math.nextafter(5.0, math.inf)),
]


class TestConfigValidation:
    @pytest.mark.parametrize("cls, name, value", _CONFIG_EDGES,
                             ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in _CONFIG_EDGES])
    def test_edge_value_is_rejected_by_name_or_runs_finite(self, cluttered_world, cls, name, value):
        configs = {SensorConfig: SensorConfig(), EpisodeConfig: EpisodeConfig(), PriorParams: PriorParams()}
        try:
            configs[cls] = cls(**{name: value})
            env = NavEnv(cluttered_world, configs[EpisodeConfig], configs[SensorConfig], configs[PriorParams])
        except ConfigurationError as exc:
            assert name in str(exc)
            return
        observations = [env.reset(seed=3)]
        for _ in range(3):
            result = env.step(prior_of(observations[-1]))
            observations.append(result.observation)
            if result.terminal is not None:
                break
        assert np.isfinite(observations).all()
        assert math.isfinite(discounted_return(env.steps, result.terminal, env.episode.gamma))

    def test_far_outside_the_arena_scans_quietly(self, cluttered_world):
        # EpisodeConfig admits any finite dt, so one step can leave the arena by ~1e308 m
        env = NavEnv(cluttered_world, EpisodeConfig(dt=1e308))
        env.reset(seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ranges = raycast_angles(1e308, 1e308, beam_angles(180), 5.0, cluttered_world)
            result = env.step(Action(1.0, 1.0))
        assert np.isfinite(ranges).all() and ranges.max() <= 5.0
        assert result.terminal is Terminal.COLLISION
        assert np.isfinite(result.observation).all() and result.observation[:N_BINS].max() <= 1.0

    def test_bad_sensor(self):
        with pytest.raises(ConfigurationError):
            SensorConfig(n_rays=10)
        with pytest.raises(ConfigurationError):
            SensorConfig(n_rays=100)

    def test_bad_episode(self):
        with pytest.raises(ConfigurationError):
            EpisodeConfig(gamma=1.5)
        with pytest.raises(ConfigurationError):
            EpisodeConfig(gamma=1.0)
        with pytest.raises(ConfigurationError):
            EpisodeConfig(max_steps=0)

    def test_d_influence_vs_max_range(self, empty_world):
        with pytest.raises(ConfigurationError):
            NavEnv(empty_world, sensor=SensorConfig(max_range=1.0),
                   prior_params=PriorParams(d_influence=1.5))
        # every env runs the prior, so its default d_influence (1.5 m) is checked too
        with pytest.raises(ConfigurationError, match="d_influence=1.5 exceeds laser max_range=1.0"):
            NavEnv(empty_world, sensor=SensorConfig(max_range=1.0))
