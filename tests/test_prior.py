"""Potential-field controller tests, mostly on synthetic scans."""

from __future__ import annotations

import math

import numpy as np
import pytest

from resnav.errors import ConfigurationError
from resnav.evaluation import evaluate
from resnav.policy import PriorPolicy
from resnav.prior import Action, PriorParams, prior_command
from resnav.world import Circle, Pose, Rect, WorldSpec, scan
from tests.conftest import make_empty_world


def clear_scan() -> np.ndarray:
    """180 ranges, every beam at the 5 m max range."""
    return np.full(180, 5.0)


class TestPriorCommand:
    def test_goal_straight_ahead_empty(self):
        a = prior_command(clear_scan(), 0.0, PriorParams())
        assert a.omega == 0.0
        assert a.v == 1.0

    def test_goal_behind_empty(self):
        a = prior_command(clear_scan(), math.pi, PriorParams())
        assert a.v == 0.0
        assert abs(a.omega) == 1.0

    def test_symmetric_obstacles_cancel_turn(self):
        # identical returns mirrored about the heading axis
        ranges = np.full(180, 5.0)
        ranges[30] = 0.8
        ranges[149] = 0.8  # angles[149] == -angles[30]
        a = prior_command(ranges, 0.0, PriorParams())
        assert a.omega == pytest.approx(0.0, abs=1e-12)
        assert a.v == pytest.approx(1.0)

    def test_near_obstacle_ahead_repels(self):
        ranges = np.full(180, 5.0)
        ranges[90] = 0.3  # straight ahead
        params = PriorParams()
        a = prior_command(ranges, 0.0, params)
        clear = prior_command(clear_scan(), 0.0, params)
        assert a.v < clear.v

    def test_output_ranges_randomized(self):
        rng = np.random.default_rng(5)
        params = PriorParams()
        for _ in range(300):
            ranges = rng.uniform(0.05, 5.0, 180)
            a = prior_command(ranges, rng.uniform(-math.pi, math.pi), params)
            assert 0.0 <= a.v <= 1.0
            assert -1.0 <= a.omega <= 1.0

    def test_pure_function(self):
        ranges = np.linspace(0.4, 5.0, 180)
        a = prior_command(ranges, 0.7, PriorParams())
        b = prior_command(ranges, 0.7, PriorParams())
        assert a == b

    def test_far_returns_have_no_influence(self):
        params = PriorParams(d_influence=1.5)
        near = np.full(180, 5.0)
        near[40] = 0.9
        with_far = near.copy()
        with_far[120] = 2.0  # beyond d_influence: must not matter
        a = prior_command(near, 0.3, params)
        b = prior_command(with_far, 0.3, params)
        assert a == b

    def test_rotation_equivariance_circle_world(self):
        """Rotating a circles-only world and the robot together leaves the command unchanged."""
        params = PriorParams()
        base_circles = [(6.0, 5.0, 0.5), (4.5, 6.2, 0.4)]
        goal = (7.0, 6.5)
        pose = Pose(4.0, 4.4, 0.4)
        cx0, cy0 = 5.0, 5.0

        def rotated(phi: float) -> Action:
            def rot(x, y):
                dx, dy = x - cx0, y - cy0
                return (
                    cx0 + dx * math.cos(phi) - dy * math.sin(phi),
                    cy0 + dx * math.sin(phi) + dy * math.cos(phi),
                )

            obstacles = tuple(Circle(*rot(cx, cy), r) for cx, cy, r in base_circles)
            w = WorldSpec(10.0, 10.0, 0.1, obstacles,
                          Rect(0.2, 0.2, 0.6, 0.6), Rect(9.4, 9.4, 9.8, 9.8))
            px, py = rot(pose.x, pose.y)
            p = Pose(px, py, pose.theta + phi)
            gx, gy = rot(*goal)
            angle = math.atan2(gy - py, gx - px) - p.theta
            return prior_command(scan(p, 180, 5.0, w), angle, params)

        a = rotated(0.0)
        b = rotated(0.9)
        assert a.v == pytest.approx(b.v, abs=1e-9)
        assert a.omega == pytest.approx(b.omega, abs=1e-9)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            PriorParams(k_att=0.0)
        with pytest.raises(ConfigurationError):
            PriorParams(d_influence=-1.0)


def prior_success_rate(worlds, n_episodes: int, seed_base: int) -> float:
    return evaluate(worlds, {"prior": PriorPolicy()}, n_episodes, seed_base=seed_base,
                    prior_params=PriorParams())["prior"].success_rate


class TestTuneCheck:
    def test_empty_arena_suite_is_perfect(self):
        score = prior_success_rate([make_empty_world()], n_episodes=20, seed_base=1)
        assert score == 1.0

    def test_blocked_arena_scores_zero(self):
        # full-height wall between start and goal: no route at all
        w = WorldSpec(
            width=10.0,
            height=10.0,
            robot_radius=0.15,
            obstacles=(Rect(4.6, 0.0, 5.4, 10.0),),
            start_region=Rect(1.0, 4.0, 2.0, 6.0),
            goal_region=Rect(8.0, 4.0, 9.0, 6.0),
        )
        with pytest.warns(UserWarning, match="shortest path"):
            score = prior_success_rate([w], n_episodes=10, seed_base=2)
        assert score == 0.0
