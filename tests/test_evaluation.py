"""Tests for the paired evaluation harness and its aggregates."""

import math
from dataclasses import fields

import numpy as np
import pytest

from resnav.env import E2E_OBS_DIM, RESIDUAL_OBS_DIM, EpisodeConfig, NavEnv
from resnav.errors import ConfigurationError
from resnav.evaluation import (
    EpisodeMetrics,
    ModeResult,
    evaluate,
    spl_term,
)
from resnav.nn import Mlp
from resnav.policy import EndToEndPolicy, GatedResidualPolicy, PriorPolicy, RandomPolicy, ResidualPolicy
from resnav.world import Rect, WorldSpec

from conftest import make_empty_world


class TestSplTerm:
    def test_detour_halves_the_score(self):
        assert spl_term(True, 4.0, 2.0) == pytest.approx(0.5)

    def test_driving_the_planner_length_scores_one(self):
        assert spl_term(True, 2.0, 2.0) == pytest.approx(1.0)

    def test_beating_the_planner_clamps_at_one(self):
        # the grid path overestimates slightly, so a straighter drive can be shorter
        assert spl_term(True, 1.8, 2.0) == pytest.approx(1.0)

    def test_failure_scores_zero(self):
        assert spl_term(False, 4.0, 2.0) == 0.0

    def test_unusable_planner_lengths_give_none(self):
        assert spl_term(True, 4.0, math.inf) is None
        assert spl_term(True, 4.0, 0.0) is None


def metric(mode="m", episode=0, success=True, steps=100, path=2.0, shortest=1.0, term=0.5):
    return EpisodeMetrics(
        mode=mode, episode=episode, seed=episode, world=0, success=success,
        steps=steps, actuation_s=steps * 0.1, path_length_m=path,
        shortest_m=shortest, spl_term=term,
    )


class TestModeResult:
    def test_aggregates(self):
        res = ModeResult(mode="m", episodes=[
            metric(episode=0, success=True, steps=100, term=0.8),
            metric(episode=1, success=False, steps=300, term=0.0),
            metric(episode=2, success=True, steps=200, term=0.6),
        ])
        assert res.n_episodes == 3
        assert res.success_rate == pytest.approx(2 / 3)
        assert res.spl == pytest.approx((0.8 + 0.0 + 0.6) / 3)
        assert res.mean_actuation_s == pytest.approx((10 + 30 + 20) / 3)

    def test_none_terms_are_excluded_from_spl(self):
        res = ModeResult(mode="m", episodes=[
            metric(episode=0, term=0.4),
            metric(episode=1, term=None),
        ])
        assert res.spl == pytest.approx(0.4)

    def test_all_excluded_gives_zero(self):
        res = ModeResult(mode="m", episodes=[metric(term=None)])
        assert res.spl == 0.0


class TestEvaluate:
    def run_small(self, n_episodes=6):
        world = make_empty_world()
        return evaluate(
            [world],
            {"prior": PriorPolicy(), "random": RandomPolicy()},
            n_episodes=n_episodes,
            episode_config=EpisodeConfig(max_steps=300),
        )

    def test_prior_beats_random_in_the_open(self):
        result = self.run_small()
        assert result["prior"].success_rate == 1.0
        assert result["prior"].spl > 0.5
        assert result["random"].success_rate <= 0.5
        assert result["random"].mean_actuation_s > result["prior"].mean_actuation_s

    def test_one_env_per_world_for_every_controller(self, monkeypatch):
        built = []

        class CountingEnv(NavEnv):
            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("resnav.evaluation.NavEnv", CountingEnv)
        worlds = [make_empty_world(), make_empty_world(side=6.0)]
        actor = Mlp([RESIDUAL_OBS_DIM, 8, 2], "tanh", 0.2, rng=np.random.default_rng(0))
        e2e = Mlp([E2E_OBS_DIM, 8, 2], "tanh", 0.0, rng=np.random.default_rng(1))
        policies = {
            "prior": PriorPolicy(), "residual": ResidualPolicy(actor, n_passes=4),
            "gated": GatedResidualPolicy(actor, n_passes=4), "end_to_end": EndToEndPolicy(e2e),
            "random": RandomPolicy(),
        }
        result = evaluate(worlds, policies, 4, episode_config=EpisodeConfig(max_steps=10))
        assert built == worlds
        assert all(result[label].n_episodes == 4 for label in policies)

    def test_episodes_are_paired_across_controllers(self):
        result = self.run_small()
        seeds_a = [e.seed for e in result["prior"].episodes]
        seeds_b = [e.seed for e in result["random"].episodes]
        assert seeds_a == seeds_b
        shortest_a = [e.shortest_m for e in result["prior"].episodes]
        shortest_b = [e.shortest_m for e in result["random"].episodes]
        assert shortest_a == shortest_b

    def test_deterministic_report_and_csv(self, tmp_path):
        first = self.run_small(n_episodes=3)
        second = self.run_small(n_episodes=3)
        assert first.report() == second.report()
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_episode_csv(pa)
        second.write_episode_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_report_layout(self):
        result = self.run_small(n_episodes=2)
        lines = result.report().splitlines()
        assert lines[0].split() == ["controller", "episodes", "success", "spl", "actuation_s"]
        assert len(lines) == 3
        assert lines[1].startswith("prior")

    def test_csv_columns_and_row_count(self, tmp_path):
        result = self.run_small(n_episodes=2)
        path = tmp_path / "episodes.csv"
        result.write_episode_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(f.name for f in fields(EpisodeMetrics))
        assert len(lines) == 1 + 2 * 2

    def test_unreachable_goal_warns_and_zeroes_spl(self):
        world = WorldSpec(
            width=10.0, height=10.0, robot_radius=0.15,
            obstacles=(
                Rect(6.2, 6.2, 6.5, 10.0),
                Rect(6.5, 6.2, 10.0, 6.5),
            ),
            start_region=Rect(1.5, 1.5, 3.0, 3.0),
            goal_region=Rect(7.5, 7.5, 8.5, 8.5),
        )
        with pytest.warns(UserWarning, match="shortest path"):
            result = evaluate(
                [world], {"prior": PriorPolicy()}, n_episodes=2,
                episode_config=EpisodeConfig(max_steps=60),
            )
        assert result["prior"].success_rate == 0.0
        assert result["prior"].spl == 0.0
        assert all(e.spl_term is None for e in result["prior"].episodes)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            evaluate([], {"prior": PriorPolicy()}, n_episodes=1)
        with pytest.raises(ConfigurationError):
            evaluate([make_empty_world()], {}, n_episodes=1)
        with pytest.raises(ConfigurationError):
            evaluate([make_empty_world()], {"prior": PriorPolicy()}, n_episodes=0)
