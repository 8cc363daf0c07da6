"""Geometry tests: ray casting against a marching oracle, kinematics, collision."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from resnav.errors import ConfigurationError
from resnav.world import (
    Circle,
    Pose,
    Rect,
    WorldSpec,
    beam_angles,
    collides,
    load_world,
    normalize_angle,
    raycast_angles,
    save_world,
    scan,
    shape_distance,
    step_kinematics,
    world_from_dict,
    world_to_dict,
)
from resnav.worldgen import WorldGenParams, generate_suite
from tests.conftest import make_empty_world


def centered_world(side: float, obstacles=(), robot_radius: float = 0.1) -> WorldSpec:
    """Arena [0, side]^2 with regions tucked into clear corners."""
    return WorldSpec(
        width=side,
        height=side,
        robot_radius=robot_radius,
        obstacles=obstacles,
        start_region=Rect(0.3, 0.3, 0.8, 0.8),
        goal_region=Rect(side - 0.8, side - 0.8, side - 0.3, side - 0.3),
    )


def raycast(pose: Pose, angle: float, max_range: float, world: WorldSpec) -> float:
    """Range along one absolute-angle ray from the pose's position."""
    return float(raycast_angles(pose.x, pose.y, np.array([angle]), max_range, world)[0])


def march_raycast(world: WorldSpec, x: float, y: float, angle: float, max_range: float,
                  step: float = 0.001) -> float:
    """Oracle: march 1 mm samples along the ray, first sample inside anything."""
    n = int(max_range / step) + 1
    ts = np.arange(1, n + 1) * step
    px = x + ts * math.cos(angle)
    py = y + ts * math.sin(angle)
    inside = (px < 0) | (px > world.width) | (py < 0) | (py > world.height)
    for ob in world.obstacles:
        if isinstance(ob, Rect):
            inside |= (px >= ob.x_min) & (px <= ob.x_max) & (py >= ob.y_min) & (py <= ob.y_max)
        else:
            inside |= (px - ob.cx) ** 2 + (py - ob.cy) ** 2 <= ob.r**2
    hits = np.nonzero(inside)[0]
    return float(ts[hits[0]]) if hits.size else max_range


def reference_raycast_angles(x: float, y: float, angles: np.ndarray, max_range: float,
                             world: WorldSpec) -> np.ndarray:
    """The ray caster in (rays, shapes) layout, built from the world's shapes.

    raycast_angles must agree with it bit for bit: both evaluate the same
    elementwise expressions, only the array layout differs.
    """
    w, h = world.width, world.height
    corners = [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]
    segs = [(corners[i], corners[(i + 1) % 4]) for i in range(4)]
    for ob in world.obstacles:
        if isinstance(ob, Rect):
            cs = [(ob.x_min, ob.y_min), (ob.x_max, ob.y_min), (ob.x_max, ob.y_max), (ob.x_min, ob.y_max)]
            segs.extend((cs[i], cs[(i + 1) % 4]) for i in range(4))
    p = np.array([s[0] for s in segs], dtype=np.float64)
    e = np.array([s[1] for s in segs], dtype=np.float64) - p
    circles = np.array([(c.cx, c.cy, c.r) for c in world.obstacles if isinstance(c, Circle)],
                       dtype=np.float64).reshape(-1, 3)

    dx = np.cos(angles)
    dy = np.sin(angles)
    diff_x = p[:, 0] - x
    diff_y = p[:, 1] - y
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = dx[:, None] * e[None, :, 1] - dy[:, None] * e[None, :, 0]
        t_num = diff_x * e[:, 1] - diff_y * e[:, 0]
        t = t_num[None, :] / denom
        u = (diff_x[None, :] * dy[:, None] - diff_y[None, :] * dx[:, None]) / denom
    hit = (np.abs(denom) > 1e-12) & (t >= 0.0) & (u >= 0.0) & (u <= 1.0)
    best = np.where(hit, t, np.inf).min(axis=1)
    if circles.shape[0]:
        ocx = x - circles[:, 0]
        ocy = y - circles[:, 1]
        b = dx[:, None] * ocx[None, :] + dy[:, None] * ocy[None, :]
        c0 = ocx * ocx + ocy * ocy - circles[:, 2] ** 2
        disc = b * b - c0[None, :]
        sq = np.sqrt(np.maximum(disc, 0.0))
        t1 = -b - sq
        t2 = -b + sq
        t = np.where(t1 >= 0.0, t1, t2)
        hit = (disc >= 0.0) & (t >= 0.0)
        best = np.minimum(best, np.where(hit, t, np.inf).min(axis=1))
    return np.minimum(best, max_range)


def putmask_raycast_angles(x: float, y: float, angles: np.ndarray, max_range: float,
                           world: WorldSpec) -> np.ndarray:
    """raycast_angles as it was before the circle test took its root unclamped, kept as its reference.

    Circles: the root of max(disc, 0) and a disc >= 0 mask; the nearest hit
    through ndarray.min.
    """
    dx = np.cos(angles)
    dy = np.sin(angles)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        px, py, ex, ey = world._segment_columns
        diff_x = px - x
        diff_y = py - y
        t_num = diff_x * ey - diff_y * ex
        denom = ey * dx
        denom -= ex * dy
        t = t_num / denom
        u = diff_x * dy
        u -= diff_y * dx
        u /= denom
        hit = np.abs(denom) > 1e-12
        hit &= t >= 0.0
        hit &= u >= 0.0
        hit &= u <= 1.0
        np.putmask(t, ~hit, np.inf)
        best = t.min(axis=0)

        cx, cy, r2 = world._circle_columns
        if cx.shape[0]:
            ocx = x - cx
            ocy = y - cy
            b = ocx * dx
            b += ocy * dy
            c0 = ocx * ocx + ocy * ocy - r2
            disc = b * b
            disc -= c0
            sq = np.sqrt(np.maximum(disc, 0.0))
            np.negative(b, out=b)
            t1 = b - sq
            t = np.where(t1 >= 0.0, t1, b + sq)
            hit = disc >= 0.0
            hit &= t >= 0.0
            np.putmask(t, ~hit, np.inf)
            np.minimum(best, t.min(axis=0), out=best)

    return np.minimum(best, max_range, out=best)


def poses_near_shapes(world: WorldSpec, n: int, rng: np.random.Generator):
    """Positions: uniform in the arena, a few cm from rectangle corners and circle
    rims, and slightly inside obstacles (where a colliding episode ends)."""
    for _ in range(n):
        kind = rng.integers(4) if world.obstacles else 0
        if kind == 0:
            x, y = rng.uniform(0.0, world.width), rng.uniform(0.0, world.height)
        else:
            ob = world.obstacles[rng.integers(len(world.obstacles))]
            depth = rng.uniform(0.0, 0.03) if kind == 3 else rng.normal(0.0, 0.03)  # > 0: inwards
            if isinstance(ob, Rect):
                cx, cy = ob.center
                x = (ob.x_min if rng.random() < 0.5 else ob.x_max)
                y = (ob.y_min if rng.random() < 0.5 else ob.y_max)
                if kind == 2:  # on an edge rather than at a corner
                    x, y = (rng.uniform(ob.x_min, ob.x_max), y) if rng.random() < 0.5 else (x, rng.uniform(ob.y_min, ob.y_max))
                x += math.copysign(depth, cx - x)
                y += math.copysign(depth, cy - y)
            else:
                phi = rng.uniform(-math.pi, math.pi)
                x = ob.cx + (ob.r - depth) * math.cos(phi)
                y = ob.cy + (ob.r - depth) * math.sin(phi)
        yield x, y, rng.uniform(-math.pi, math.pi)


class TestRaycast:
    def test_empty_arena_wall_hit(self):
        w = centered_world(10.0)
        assert raycast(Pose(5.0, 5.0, 0.0), 0.0, 20.0, w) == pytest.approx(5.0, abs=1e-12)

    def test_rect_face_hit(self):
        # rect two metres ahead of the robot along +x
        ob = Rect(7.0, 4.0, 8.0, 6.0)
        w = centered_world(10.0, obstacles=(ob,))
        assert raycast(Pose(5.0, 5.0, 0.0), 0.0, 20.0, w) == pytest.approx(2.0, abs=1e-12)

    def test_circle_hit(self):
        ob = Circle(9.0, 5.0, 1.0)
        w = centered_world(12.0, obstacles=(ob,))
        assert raycast(Pose(5.0, 5.0, 0.0), 0.0, 20.0, w) == pytest.approx(3.0, abs=1e-12)

    def test_max_range_clamp(self):
        w = centered_world(10.0)
        assert raycast(Pose(5.0, 5.0, 0.0), 0.0, 3.0, w) == pytest.approx(3.0)
        assert raycast(Pose(5.0, 5.0, 0.0), 2.1, 3.0, w) == pytest.approx(3.0)

    def test_against_marching_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            side = rng.uniform(4.0, 10.0)
            obstacles = []
            for _k in range(rng.integers(0, 5)):
                if rng.random() < 0.5:
                    cx = rng.uniform(1.0, side - 1.0)
                    cy = rng.uniform(1.0, side - 1.0)
                    obstacles.append(Circle(cx, cy, rng.uniform(0.2, min(1.0, cx, cy, side - cx, side - cy))))
                else:
                    x0 = rng.uniform(0.5, side - 1.5)
                    y0 = rng.uniform(0.5, side - 1.5)
                    obstacles.append(Rect(x0, y0, x0 + rng.uniform(0.3, 1.0), y0 + rng.uniform(0.3, 1.0)))
            w = WorldSpec(side, side, 0.05, tuple(obstacles),
                          Rect(0.05, 0.05, 0.15, 0.15), Rect(side - 0.15, 0.05, side - 0.05, 0.15))
            for _r in range(5):
                x, y = rng.uniform(0.3, side - 0.3, 2)
                if not all(ob.distance_to_point(x, y) > 0.05 for ob in obstacles):
                    continue
                ang = rng.uniform(-math.pi, math.pi)
                got = raycast(Pose(x, y, 0.0), ang, 5.0, w)
                want = march_raycast(w, x, y, ang, 5.0)
                assert abs(got - want) <= 2e-3, (x, y, ang, got, want)

    def test_bit_identical_to_rays_by_shapes_reference(self):
        generated = generate_suite(WorldGenParams(), 30, 11)
        walls_only = generate_suite(WorldGenParams(n_obstacles_min=0, n_obstacles_max=0), 1, 12)
        circles_only = [dataclasses.replace(w, obstacles=tuple(ob for ob in w.obstacles if isinstance(ob, Circle)))
                        for w in generated[:4]]
        assert not walls_only[0].obstacles
        assert all(w.obstacles for w in circles_only)
        rng = np.random.default_rng(5)
        rays = beam_angles(180)
        checked = 0
        for world in generated + walls_only * 4 + circles_only:
            for x, y, theta in poses_near_shapes(world, 300, rng):
                angles = theta + rays
                got = raycast_angles(x, y, angles, 3.5, world)
                want = reference_raycast_angles(x, y, angles, 3.5, world)
                assert np.array_equal(got, want), (world, x, y, theta)
                checked += 1
        assert checked >= 10_000


def rays_through_features(world: WorldSpec, rng: np.random.Generator, n: int):
    """(x, y, angles) aimed at the awkward cases: rays through rectangle corners, along
    rectangle edges and the walls, and tangent to circles, from points drawn in the arena."""
    for _ in range(n):
        x, y = rng.uniform(0.0, world.width), rng.uniform(0.0, world.height)
        angles = []
        for ob in world.obstacles:
            if isinstance(ob, Rect):
                for cx, cy in ((ob.x_min, ob.y_min), (ob.x_max, ob.y_min), (ob.x_max, ob.y_max), (ob.x_min, ob.y_max)):
                    angles.append(math.atan2(cy - y, cx - x))
            else:
                d = math.hypot(ob.cx - x, ob.cy - y)
                if d > ob.r:
                    towards, half = math.atan2(ob.cy - y, ob.cx - x), math.asin(ob.r / d)
                    angles += [towards - half, towards + half]
        angles += [0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi, -math.pi]
        yield x, y, np.array(angles)
        # on an edge's line, looking along it: denom is 0 for the edges parallel to the ray
        for ob in world.obstacles:
            if isinstance(ob, Rect):
                yield ob.x_min - rng.uniform(0.0, 0.5), ob.y_min, np.array([0.0, math.pi, 0.5 * math.pi])
                yield ob.x_max, ob.y_max + rng.uniform(0.0, 0.5), np.array([-0.5 * math.pi, 0.5 * math.pi, 0.0])
        yield 0.0, y, np.array([0.5 * math.pi, -0.5 * math.pi, 0.0, math.pi])
        yield x, world.height, np.array([0.0, math.pi, -0.5 * math.pi])


def centres_inside_obstacles(world: WorldSpec, rng: np.random.Generator, n: int):
    """Scan poses whose centre lies inside an obstacle, as an episode that steps at dt=1.0
    can end: one body length per step carries the robot through a thin wall's face."""
    for _ in range(n):
        ob = world.obstacles[rng.integers(len(world.obstacles))]
        if isinstance(ob, Rect):
            x, y = rng.uniform(ob.x_min, ob.x_max), rng.uniform(ob.y_min, ob.y_max)
        else:
            rho, phi = ob.r * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)
            x, y = ob.cx + rho * math.cos(phi), ob.cy + rho * math.sin(phi)
        yield x, y, rng.uniform(-math.pi, math.pi) + beam_angles(180)


class TestAgainstPutmaskReference:
    """raycast_angles against putmask_raycast_angles, bit for bit, as int64 views."""

    @staticmethod
    def same_bits(cases, world: WorldSpec) -> int:
        n = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for x, y, angles in cases:
                got = raycast_angles(x, y, angles, 3.5, world)
                want = putmask_raycast_angles(x, y, angles, 3.5, world)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (world, x, y, angles)
                n += 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return n

    def test_random_worlds_and_poses(self):
        rng = np.random.default_rng(24)
        worlds = generate_suite(WorldGenParams(), 20, 24)
        n = 0
        for world in worlds:
            poses = [(rng.uniform(0.0, world.width), rng.uniform(0.0, world.height), rng.uniform(-math.pi, math.pi))
                     for _ in range(100)]
            poses += list(poses_near_shapes(world, 100, rng))
            n += self.same_bits(((x, y, theta + beam_angles(180)) for x, y, theta in poses), world)
        assert n == 4000

    def test_centre_inside_a_circle_or_a_rectangle(self):
        rng = np.random.default_rng(25)
        worlds = generate_suite(WorldGenParams(), 10, 25)
        kinds = set()
        for world in worlds:
            kinds |= {type(ob) for ob in world.obstacles}
            self.same_bits(centres_inside_obstacles(world, rng, 100), world)
        assert kinds == {Rect, Circle}

    def test_dt_one_step_into_a_wall_scans_from_inside_it(self):
        wall = Rect(3.8, 1.0, 4.2, 5.0)
        world = centered_world(8.0, obstacles=(wall, Circle(6.0, 6.0, 0.5)))
        pose = step_kinematics(Pose(3.5, 3.0, 0.0), 0.4, 0.0, 1.0)
        assert wall.distance_to_point(pose.x, pose.y) == 0.0 and collides(pose, world)
        hop = step_kinematics(Pose(5.7, 6.0, 0.0), 0.5, 0.0, 1.0)
        assert collides(hop, world)
        cases = [(p.x, p.y, p.theta + beam_angles(180)) for p in (pose, hop)]
        assert self.same_bits(cases, world) == 2

    def test_rays_through_corners_along_edges_and_tangent_to_circles(self):
        rng = np.random.default_rng(26)
        worlds = generate_suite(WorldGenParams(), 10, 26)
        n = sum(self.same_bits(rays_through_features(world, rng, 30), world) for world in worlds)
        assert n > 1000

    def test_far_off_origin(self):
        world = generate_suite(WorldGenParams(), 1, 27)[0]
        cases = [(x, y, beam_angles(180)) for x, y in ((1e300, 1e300), (-1e300, 4.0), (1e-300, 1e154))]
        assert self.same_bits(cases, world) == 3


class TestScan:
    def test_symmetry_in_empty_square(self):
        w = centered_world(10.0)
        s = scan(Pose(5.0, 5.0, 0.3), 180, 5.0, w)
        assert np.all(np.abs(s - s[::-1]) < 1e-9)

    def test_left_obstacle_shortens_left_half(self):
        # obstacle on the robot's left (+y side for heading 0)
        w = centered_world(10.0, obstacles=(Rect(4.0, 6.0, 6.0, 7.0),))
        s = scan(Pose(5.0, 5.0, 0.0), 180, 5.0, w)
        right = s[:90]  # beams at negative relative angle
        left = s[90:]
        assert left.min() < right.min()

    def test_ray_count_and_spacing(self):
        w = centered_world(10.0)
        s = scan(Pose(5.0, 5.0, 0.0), 180, 5.0, w)
        assert s.shape == (180,)
        angles = beam_angles(len(s))
        assert angles[0] == pytest.approx(-math.pi / 2)
        assert angles[-1] == pytest.approx(math.pi / 2)
        gaps = np.diff(angles)
        assert np.allclose(gaps, math.pi / 179)

    def test_beam_angles_are_built_once(self):
        angles = beam_angles(180)
        assert angles is beam_angles(180)
        assert not angles.flags.writeable
        assert np.array_equal(angles, np.linspace(-0.5 * math.pi, 0.5 * math.pi, 180))

    def test_ranges_are_read_only_and_match_the_beams(self):
        w = centered_world(9.0, obstacles=(Circle(4.0, 6.0, 0.7),))
        pose = Pose(3.3, 3.1, -0.7)
        s = scan(pose, 30, 5.0, w)
        assert not s.flags.writeable
        assert np.array_equal(s, raycast_angles(pose.x, pose.y, pose.theta + beam_angles(30), 5.0, w))

    def test_all_ranges_clamped_and_positive(self):
        w = centered_world(6.0, obstacles=(Circle(3.0, 4.0, 0.5),))
        s = scan(Pose(3.0, 2.0, 1.1), 180, 4.0, w)
        assert np.all(s > 0.0)
        assert np.all(s <= 4.0)

    def test_determinism(self):
        w = centered_world(9.0, obstacles=(Circle(4.0, 6.0, 0.7), Rect(6.0, 2.0, 7.0, 3.0)))
        a = scan(Pose(3.3, 3.1, -0.7), 180, 5.0, w)
        b = scan(Pose(3.3, 3.1, -0.7), 180, 5.0, w)
        assert np.array_equal(a, b)


class TestKinematics:
    def test_straight_line(self):
        p = step_kinematics(Pose(0.0, 0.0, 0.0), 1.0, 0.0, 0.1)
        assert (p.x, p.y, p.theta) == pytest.approx((0.1, 0.0, 0.0), abs=1e-15)

    def test_turn_in_place_wraps_to_pi(self):
        p = step_kinematics(Pose(0.0, 0.0, 0.0), 0.0, math.pi, 1.0)
        assert p.x == 0.0 and p.y == 0.0
        assert p.theta == pytest.approx(math.pi)
        assert p.theta <= math.pi

    def test_translation_uses_old_heading(self):
        p = step_kinematics(Pose(1.0, 1.0, math.pi / 2), 2.0, 1.0, 0.1)
        assert p.x == pytest.approx(1.0, abs=1e-12)
        assert p.y == pytest.approx(1.2)
        assert p.theta == pytest.approx(math.pi / 2 + 0.1)

    def test_theta_always_normalized(self):
        rng = np.random.default_rng(3)
        p = Pose(2.0, 2.0, 0.0)
        for _ in range(500):
            p = step_kinematics(p, rng.uniform(-1, 1), rng.uniform(-1, 1), 0.5)
            assert -math.pi < p.theta <= math.pi

    def test_normalize_angle_edges(self):
        assert normalize_angle(math.pi) == pytest.approx(math.pi)
        assert normalize_angle(-math.pi) == pytest.approx(math.pi)
        assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)
        assert normalize_angle(0.0) == 0.0


class TestCollision:
    def test_circle_boundary(self):
        ob = Circle(5.0, 5.0, 1.0)
        w = centered_world(10.0, obstacles=(ob,), robot_radius=0.5)
        # centre distance r_obs + robot_radius -/+ 0.01
        assert collides(Pose(5.0, 5.0 + 1.49, 0.0), w)
        assert not collides(Pose(5.0, 5.0 + 1.51, 0.0), w)

    def test_wall_containment(self):
        w = centered_world(10.0, robot_radius=0.5)
        assert collides(Pose(0.4, 5.0, 0.0), w)
        assert not collides(Pose(0.6, 5.0, 0.0), w)

    def test_rect_overlap(self):
        ob = Rect(4.0, 4.0, 6.0, 6.0)
        w = centered_world(10.0, obstacles=(ob,), robot_radius=0.3)
        assert collides(Pose(3.8, 5.0, 0.0), w)
        assert not collides(Pose(3.6, 5.0, 0.0), w)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(11)
        ob = (Circle(4.0, 6.0, 0.8), Rect(6.0, 2.0, 7.5, 3.5))
        for _ in range(200):
            x, y = rng.uniform(1.0, 9.0, 2)
            r_small = rng.uniform(0.05, 0.4)
            r_big = r_small + rng.uniform(0.01, 0.5)
            w_small = centered_world(10.0, obstacles=ob, robot_radius=r_small)
            w_big = centered_world(10.0, obstacles=ob, robot_radius=r_big)
            if collides(Pose(x, y, 0.0), w_small):
                assert collides(Pose(x, y, 0.0), w_big)


class TestWorldSpec:
    def test_region_overlapping_obstacle_rejected(self):
        with pytest.raises(ConfigurationError):
            WorldSpec(
                width=10.0,
                height=10.0,
                robot_radius=0.2,
                obstacles=(Rect(2.0, 2.0, 3.0, 3.0),),
                start_region=Rect(2.5, 2.5, 4.0, 4.0),
                goal_region=Rect(8.0, 8.0, 9.0, 9.0),
            )

    def test_obstacle_outside_arena_rejected(self):
        with pytest.raises(ConfigurationError):
            WorldSpec(10.0, 10.0, 0.2, (Circle(9.9, 5.0, 0.5),),
                      Rect(1.0, 1.0, 2.0, 2.0), Rect(7.0, 7.0, 8.0, 8.0))

    def test_shape_distance(self):
        assert shape_distance(Rect(0, 0, 1, 1), Rect(2, 0, 3, 1)) == pytest.approx(1.0)
        assert shape_distance(Rect(0, 0, 1, 1), Circle(3.0, 0.5, 0.5)) == pytest.approx(1.5)
        assert shape_distance(Circle(0, 0, 1), Circle(4, 0, 1)) == pytest.approx(2.0)
        assert shape_distance(Rect(0, 0, 2, 2), Circle(1.0, 1.0, 0.2)) == 0.0

    def test_file_round_trip(self, tmp_path):
        w = centered_world(8.0, obstacles=(Circle(4.0, 5.0, 0.6), Rect(5.5, 1.0, 6.5, 2.0)))
        path = tmp_path / "w.json"
        save_world(w, path)
        again = load_world(path)
        assert again == w
        save_world(again, tmp_path / "w2.json")
        assert (tmp_path / "w.json").read_bytes() == (tmp_path / "w2.json").read_bytes()

    def test_unknown_key_rejected(self):
        doc = world_to_dict(make_empty_world())
        doc["extra"] = 1
        with pytest.raises(ConfigurationError, match="extra"):
            world_from_dict(doc)

    @pytest.mark.parametrize("key", ["width", "robot_radius"])
    def test_non_finite_number_in_file_rejected(self, tmp_path, key):
        doc = world_to_dict(make_empty_world())
        doc[key] = math.inf
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))  # json writes Infinity
        with pytest.raises(ConfigurationError, match="w.json"):
            load_world(path)

    @pytest.mark.parametrize("where,value", [
        ("width", "10**400"), ("height", '"abc"'), ("robot_radius", "true"), ("obstacle", '"abc"'),
        ("obstacle", "10**400"), ("start_region", "null"), ("goal_region", "[1]"),
    ])
    def test_non_number_in_file_rejected(self, tmp_path, where, value):
        doc = world_to_dict(centered_world(8.0, obstacles=(Circle(4.0, 5.0, 0.6),)))
        literal = str(10**400) if value == "10**400" else value
        if where == "obstacle":
            doc["obstacles"][0]["params"][2] = "@"
        elif where in ("start_region", "goal_region"):
            doc[where]["params"][0] = "@"
        else:
            doc[where] = "@"
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        with pytest.raises(ConfigurationError, match="w.json: .*(number|float range)"):
            load_world(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_world(path)

    def test_bad_format_rejected(self):
        doc = world_to_dict(make_empty_world())
        doc["format"] = "world/9"
        with pytest.raises(ConfigurationError, match="world/9"):
            world_from_dict(doc)
