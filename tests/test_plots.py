"""Tests for SVG figure generation: structure and byte determinism,
not pixel appearance."""

import dataclasses

import numpy as np
import pytest

from resnav.env import EpisodeConfig, NavEnv
from resnav.errors import ConfigurationError, UsageError
from resnav.nn import Mlp
from resnav.plots import plot_components, plot_trajectory, plot_training
from resnav.policy import GatedResidualPolicy, PriorPolicy
from resnav.rollout import TrajectoryRow, run_episode
from resnav.td3 import TrainLogRow
from resnav.world import Circle

from conftest import make_cluttered_world, make_empty_world


def prior_record():
    env = NavEnv(make_empty_world(), episode=EpisodeConfig(max_steps=120))
    return run_episode(env, PriorPolicy(), seed=5), env


def gated_record():
    world = make_cluttered_world()
    actor = Mlp([21, 16, 16, 2], "tanh", 0.3, rng=np.random.default_rng(3))
    for w in actor.weights:
        w *= 10.0
    env = NavEnv(world, episode=EpisodeConfig(max_steps=60))
    return run_episode(env, GatedResidualPolicy(actor, n_passes=20), seed=2), env


class TestTrajectoryPlot:
    def test_writes_wellformed_svg(self, tmp_path):
        record, env = prior_record()
        out = tmp_path / "traj.svg"
        text = plot_trajectory(record.rows, env.world, out, goal=record.goal, goal_radius=0.2)
        assert out.read_text() == text
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert "<polyline" in text

    def test_rewrite_is_byte_identical(self, tmp_path):
        record, env = prior_record()
        a = plot_trajectory(record.rows, env.world)
        b = plot_trajectory(record.rows, env.world)
        assert a == b

    def test_switching_steps_get_their_own_colour(self):
        record, env = gated_record()
        text = plot_trajectory(record.rows, env.world)
        assert "#2ca02c" in text  # fallback segments
        assert "#d62728" in text  # hybrid segments

    def test_planner_overlay_is_dashed(self):
        record, env = prior_record()
        text = plot_trajectory(record.rows, env.world,
                               planner=[(1.0, 1.0), (2.0, 2.0), (3.0, 2.5)])
        assert "stroke-dasharray" in text

    def test_obstacles_are_drawn(self):
        record, env = gated_record()
        text = plot_trajectory(record.rows, env.world)
        assert text.count("#9aa0a6") == len(env.world.obstacles)

    def test_circular_regions_are_drawn(self):
        record, env = prior_record()
        world = dataclasses.replace(env.world, start_region=Circle(2.75, 5.0, 0.75),
                                    goal_region=Circle(7.25, 5.0, 0.5))
        text = plot_trajectory(record.rows, world)
        assert text.count('fill="#dbeedd"') == 1 and text.count('fill="#f3d9d9"') == 1
        assert '<circle cx="178.50" cy="300.00" r="40.50" fill="#dbeedd"' in text

    def test_empty_trajectory_rejected(self, tmp_path):
        record, env = prior_record()
        out = tmp_path / "nope.svg"
        with pytest.raises(UsageError, match="start row"):
            plot_trajectory(record.rows[:1], env.world, out)
        assert not out.exists()


class TestComponentsPlot:
    def test_gated_run_shows_bars_and_gate_line(self, tmp_path):
        record, _env = gated_record()
        out = tmp_path / "comp.svg"
        text = plot_components(record.rows, out)
        assert out.exists()
        assert text.count("#7f7f7f") == record.steps  # one prior bar per step
        assert "#9467bd" in text  # the gate probability line
        assert "#1f77b4" in text  # at least one correction bar

    def test_prior_only_run_has_no_gate_line_or_corrections(self):
        record, _env = prior_record()
        text = plot_components(record.rows)
        assert "#9467bd" not in text
        assert "#1f77b4" not in text

    def test_needs_prior_fields(self):
        rows = [
            TrajectoryRow(t=0, x=0.0, y=0.0, theta=0.0),
            TrajectoryRow(t=1, x=0.1, y=0.0, theta=0.0, v_exec=0.5, omega_exec=0.1),
        ]
        with pytest.raises(UsageError, match="prior"):
            plot_components(rows)

    def test_needs_at_least_one_step(self):
        with pytest.raises(UsageError, match="step"):
            plot_components([TrajectoryRow(t=0, x=0.0, y=0.0, theta=0.0)])

    def test_deterministic(self):
        record, _env = gated_record()
        assert plot_components(record.rows) == plot_components(record.rows)


def fake_log(seed: int, episodes=20, eval_every=5):
    rng = np.random.default_rng(seed)
    rows = []
    for ep in range(1, episodes + 1):
        rows.append(TrainLogRow(
            episode=ep,
            steps=int(rng.integers(10, 300)),
            path_length_m=float(rng.uniform(0.5, 12.0)),
            success=int(rng.random() < 0.5),
            ret=float(rng.random()),
            eval_success=float(rng.random()) if ep % eval_every == 0 else None,
            eval_spl=float(rng.random()) if ep % eval_every == 0 else None,
        ))
    return rows


class TestTrainingPlot:
    def test_multi_seed_band(self, tmp_path):
        logs = [fake_log(1), fake_log(2), fake_log(3)]
        out = tmp_path / "train.svg"
        text = plot_training(logs, out)
        assert out.exists()
        assert text.count("<polygon") == 2  # one band per panel
        assert "#1f77b4" in text and "#2ca02c" in text

    def test_single_log_has_no_band(self):
        text = plot_training([fake_log(4)])
        assert "<polygon" not in text or text.count("<polygon") == 0

    def test_mismatched_episode_ranges_rejected(self):
        with pytest.raises(ConfigurationError, match="episode"):
            plot_training([fake_log(1, episodes=20), fake_log(2, episodes=10)])

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            plot_training([])
        with pytest.raises(UsageError):
            plot_training([[]])

    def test_deterministic(self):
        logs = [fake_log(7), fake_log(8)]
        assert plot_training(logs) == plot_training(logs)
