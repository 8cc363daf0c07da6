"""Tests for procedural arena generation."""

import hashlib
import math

import numpy as np
import pytest

from resnav import worldgen
from resnav.errors import ConfigurationError, UsageError
from resnav.grid import ShortestPathOracle, rasterize
from resnav.world import Circle, Rect, WorldSpec, world_to_json
from resnav.worldgen import (
    WorldGenParams,
    _reachable,
    generate_suite,
    generate_world,
    load_suite,
    write_suite,
)


def wall_gap(shape, width, height):
    if isinstance(shape, Rect):
        return min(shape.x_min, shape.y_min, width - shape.x_max, height - shape.y_max)
    return min(shape.cx - shape.r, shape.cy - shape.r,
               width - shape.cx - shape.r, height - shape.cy - shape.r)


class TestGenerateSuite:
    def test_same_seed_gives_byte_identical_worlds(self):
        params = WorldGenParams()
        a = generate_suite(params, 3, seed=5)
        b = generate_suite(params, 3, seed=5)
        assert [world_to_json(w) for w in a] == [world_to_json(w) for w in b]

    def test_different_seeds_differ(self):
        params = WorldGenParams()
        a = generate_suite(params, 1, seed=1)[0]
        b = generate_suite(params, 1, seed=2)[0]
        assert world_to_json(a) != world_to_json(b)

    def test_worlds_honor_the_declared_clearances(self):
        from resnav.world import shape_distance

        params = WorldGenParams()
        for world in generate_suite(params, 8, seed=11):
            n = len(world.obstacles)
            assert params.n_obstacles_min <= n <= params.n_obstacles_max
            for i, ob in enumerate(world.obstacles):
                assert wall_gap(ob, world.width, world.height) >= params.wall_clearance - 1e-12
                assert shape_distance(ob, world.start_region) >= params.start_clearance - 1e-12
                assert shape_distance(ob, world.goal_region) >= params.goal_clearance - 1e-12
                for other in world.obstacles[i + 1:]:
                    assert shape_distance(ob, other) >= params.pairwise_clearance - 1e-12

    def test_goal_reachable_from_start(self):
        params = WorldGenParams()
        oracle = ShortestPathOracle(0.05)
        for world in generate_suite(params, 5, seed=3):
            d = oracle.shortest(world, world.start_region.center, world.goal_region.center)
            assert math.isfinite(d) and d > 1.0

    def test_goal_strip_visits_multiple_sides(self):
        params = WorldGenParams()
        sides = set()
        for world in generate_suite(params, 12, seed=7):
            g = world.goal_region
            if g.x_max - g.x_min < g.y_max - g.y_min:
                sides.add("west" if g.x_min < params.width / 2 else "east")
            else:
                sides.add("south" if g.y_min < params.height / 2 else "north")
        assert len(sides) >= 3

    def test_zero_obstacles_supported(self):
        params = WorldGenParams(n_obstacles_min=0, n_obstacles_max=0)
        world = generate_suite(params, 1, seed=0)[0]
        assert world.obstacles == ()

    def test_infeasible_clearances_raise(self):
        params = WorldGenParams(n_obstacles_min=7, n_obstacles_max=7, pairwise_clearance=10.0)
        with pytest.raises(ConfigurationError, match="relax"):
            generate_world(params, np.random.default_rng(0))

    def test_start_box_is_central(self):
        params = WorldGenParams()
        world = generate_suite(params, 1, seed=9)[0]
        cx, cy = world.start_region.center
        assert cx == pytest.approx(params.width / 2)
        assert cy == pytest.approx(params.height / 2)

    def test_mixed_shapes_appear(self):
        worlds = generate_suite(WorldGenParams(), 8, seed=21)
        kinds = {type(ob) for w in worlds for ob in w.obstacles}
        assert kinds == {Rect, Circle}


class TestSuiteFiles:
    def test_write_then_load_round_trips(self, tmp_path):
        params = WorldGenParams()
        worlds = generate_suite(params, 3, seed=13)
        paths = write_suite(worlds, tmp_path / "suite")
        assert [p.name for p in paths] == ["world_000.json", "world_001.json", "world_002.json"]
        loaded = load_suite(tmp_path / "suite")
        assert [world_to_json(w) for w in loaded] == [world_to_json(w) for w in worlds]

    def test_rewrite_is_byte_stable(self, tmp_path):
        worlds = generate_suite(WorldGenParams(), 2, seed=4)
        paths = write_suite(worlds, tmp_path / "suite")
        first = [p.read_bytes() for p in paths]
        write_suite(worlds, tmp_path / "suite")
        assert [p.read_bytes() for p in paths] == first

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="world_"):
            load_suite(tmp_path)


class TestParamsValidation:
    def test_bad_obstacle_range(self):
        with pytest.raises(ConfigurationError):
            WorldGenParams(n_obstacles_min=5, n_obstacles_max=2)

    def test_bad_rect_range(self):
        with pytest.raises(ConfigurationError):
            WorldGenParams(rect_side_min=0.9, rect_side_max=0.4)

    def test_start_box_must_fit(self):
        with pytest.raises(ConfigurationError):
            WorldGenParams(start_box_half=5.0)

    def test_goal_strip_must_stay_on_its_side(self):
        with pytest.raises(ConfigurationError):
            WorldGenParams(goal_wall_offset=3.0, goal_strip_depth=1.5)

    @pytest.mark.parametrize("name", ["start_clearance", "goal_clearance"])
    def test_region_clearance_below_robot_radius_rejected(self, name):
        # a smaller clearance would let a candidate world fail WorldSpec's
        # region check and abort the suite without naming the parameter
        with pytest.raises(ConfigurationError, match=name):
            generate_suite(WorldGenParams(**{name: 0.0}), 20, 0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", [
        "width", "height", "robot_radius", "rect_side_min", "rect_side_max",
        "circle_radius_min", "circle_radius_max", "start_box_half", "goal_strip_depth",
        "goal_strip_margin", "goal_wall_offset", "start_clearance", "goal_clearance",
        "wall_clearance", "pairwise_clearance", "planner_cell",
    ])
    def test_non_finite_float_rejected_by_name(self, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
            WorldGenParams(**{name: value})

    @pytest.mark.parametrize("params, name", [
        (dict(rect_side_max=7.6), "rect_side_max"),
        (dict(circle_radius_min=3.85, circle_radius_max=3.9), "circle_radius_max"),
        (dict(start_box_half=2.5), "start_box_half"),
        (dict(wall_clearance=2.5), "wall_clearance"),
        (dict(pairwise_clearance=5.0, n_obstacles_min=3), "pairwise_clearance"),
    ])
    def test_an_arena_that_cannot_be_generated_names_the_field(self, params, name):
        with pytest.raises(ConfigurationError, match=name):
            generate_suite(WorldGenParams(**params), 1, 0)

    def test_region_clearances_equal_to_robot_radius_generate(self):
        params = WorldGenParams(start_clearance=0.15, goal_clearance=0.15,
                                n_obstacles_min=10, n_obstacles_max=14)
        assert len(generate_suite(params, 20, 0)) == 20


def astar_reachable(world, params):
    """Reachability by one A* search from the start box's centre to each goal-strip probe."""
    oracle = ShortestPathOracle(params.planner_cell)
    start = world.start_region.center
    g = world.goal_region
    probes = (
        g.center,
        (g.x_min + (g.x_max - g.x_min) / 2, g.y_min),
        (g.x_min + (g.x_max - g.x_min) / 2, g.y_max),
        (g.x_min, g.y_min + (g.y_max - g.y_min) / 2),
        (g.x_max, g.y_min + (g.y_max - g.y_min) / 2),
    )
    try:
        return all(math.isfinite(oracle.shortest(world, start, p)) for p in probes)
    except UsageError:
        return False


def meshgrid_rasterize(world, cell):
    """Occupancy from full (rows, cols) coordinate arrays, one test per cell."""
    r = world.robot_radius
    xs = (np.arange(max(2, round(world.width / cell))) + 0.5) * cell
    ys = (np.arange(max(2, round(world.height / cell))) + 0.5) * cell
    gx, gy = np.meshgrid(xs, ys)
    occ = (gx < r) | (gx > world.width - r) | (gy < r) | (gy > world.height - r)
    for ob in world.obstacles:
        if isinstance(ob, Rect):
            dx = np.maximum(np.maximum(ob.x_min - gx, gx - ob.x_max), 0.0)
            dy = np.maximum(np.maximum(ob.y_min - gy, gy - ob.y_max), 0.0)
            occ |= dx * dx + dy * dy < r * r
        else:
            occ |= (gx - ob.cx) ** 2 + (gy - ob.cy) ** 2 < (ob.r + r) ** 2
    return occ


# a 6 m arena like the evaluation suites', and a crowded 4 m one whose
# generation rejects some candidate worlds as unreachable
SMALL_ARENA = WorldGenParams(width=6.0, height=6.0, n_obstacles_min=3, n_obstacles_max=5,
                             goal_wall_offset=1.5, goal_strip_margin=1.2)
CROWDED = WorldGenParams(
    width=4.0, height=4.0, n_obstacles_min=5, n_obstacles_max=7, pairwise_clearance=0.0,
    start_clearance=0.2, goal_clearance=0.15, wall_clearance=0.0, start_box_half=0.2,
    goal_wall_offset=0.3, goal_strip_depth=0.2, goal_strip_margin=0.3,
    rect_side_min=0.3, rect_side_max=2.5, circle_radius_max=0.9,
)


def walled_world(gap: bool) -> WorldSpec:
    """Default arena with an east goal strip behind a wall of rectangles at x = 5.6..6."""
    params = WorldGenParams()
    lower = 3.4 if gap else 4.0  # a 0.6 m gap is wider than the 0.3 m robot
    wall = (Rect(5.6, 0.0, 6.0, 2.0), Rect(5.6, 2.0, 6.0, lower),
            Rect(5.6, 4.0, 6.0, 6.0), Rect(5.6, 6.0, 6.0, 8.0))
    return WorldSpec(params.width, params.height, params.robot_radius, wall,
                     params.start_region(), params.goal_region("east"))


class TestReachability:
    def test_sealed_goal_strip_is_unreachable(self):
        world = walled_world(gap=False)
        assert not _reachable(world, WorldGenParams())
        assert not astar_reachable(world, WorldGenParams())

    def test_one_gap_makes_the_strip_reachable(self):
        world = walled_world(gap=True)
        assert _reachable(world, WorldGenParams())
        assert astar_reachable(world, WorldGenParams())

    def test_suites_match_astar_reachability(self, monkeypatch):
        cases = [(params, seed) for params in (WorldGenParams(), SMALL_ARENA, CROWDED) for seed in (1, 2, 3)]
        ours = [[world_to_json(w) for w in generate_suite(p, 10, s)] for p, s in cases]
        rejected = []

        def reference(world, params):
            ok = astar_reachable(world, params)
            rejected.append(not ok)
            return ok

        monkeypatch.setattr(worldgen, "_reachable", reference)
        assert ours == [[world_to_json(w) for w in generate_suite(p, 10, s)] for p, s in cases]
        assert any(rejected)  # the rejection path was taken too


# SHA-256 of the concatenated world_to_json(w) over generate_suite(params, 10, seed).
# Any change to the order or the mapping of the draws changes them.
GOLDEN_SUITES = {
    ("default", 1): "d85d9dea43d2e9abcb1131bfefade73e15531a294a4c705bfb456db5fd7726a2",
    ("default", 2): "aebe16ad2a95fba78dd334e4854b7c2278a74f51b09b4e957f2226a364bdd2a2",
    ("default", 3): "780742548969b0fa082ac95b1c0ca848b905625af0625fa9d363b3ea570f9fbd",
    ("small_arena", 1): "16b85a0e9edc59d19ab09a2dcb82c82ad65157aac6d3c7867e969860ee1a1f5e",
    ("small_arena", 2): "a30165227e36ff8ddcdd9d2ec01e89ef82baa54cd85e78f8726852643d6afc7f",
    ("small_arena", 3): "f94ab6be0ee7a6bb0ce1dd270c23a40bfe8142798ef8b030ff055b87378aec72",
    ("crowded", 1): "f3d83b460221214e22cd6030643a2b353d61c41983dc9dba57f328242f1e0b02",
    ("crowded", 2): "86aae88e8ad540e70f0639291b64f33478d1b27b84e02d6810598a37121c0506",
    ("crowded", 3): "bde4c1bf635be26eec74f7eb3eedd42a391c57d6ecce4b82731f54f36c509c47",
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN_SUITES))
def test_suites_match_golden_digests(name, seed):
    params = {"default": WorldGenParams(), "small_arena": SMALL_ARENA, "crowded": CROWDED}[name]
    text = "".join(world_to_json(w) for w in generate_suite(params, 10, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SUITES[name, seed]


# Hand-built worlds for the edges of rasterize's per-obstacle cell windows.
EDGE_WORLDS = [
    # obstacles touching the walls, so windows clip at the grid border
    WorldSpec(8.0, 8.0, 0.15,
              (Rect(0.0, 0.0, 1.0, 1.2), Rect(7.1, 3.0, 8.0, 4.0), Rect(2.5, 7.4, 5.0, 8.0),
               Circle(0.5, 7.5, 0.5), Circle(4.0, 0.4, 0.4), Circle(7.6, 6.0, 0.4)),
              Rect(3.5, 3.5, 4.5, 4.5), Rect(5.5, 5.0, 6.5, 6.0)),
    # inflated box edges fall on cell centres: at 0.5 m cells x = 1.75, 3.25,
    # 5.25 and 6.75, at 0.4 m cells y = 2.2, 3.8 and 5.8
    WorldSpec(8.0, 8.0, 0.25,
              (Rect(2.0, 2.45, 3.0, 3.55), Circle(6.0, 2.0, 0.5), Rect(0.0, 6.05, 1.5, 8.0)),
              Rect(3.5, 3.5, 4.5, 4.5), Rect(5.0, 6.0, 7.0, 7.0)),
    # a non-square arena with obstacles on the west and south walls
    WorldSpec(8.0, 5.0, 0.2,
              (Rect(0.0, 2.0, 0.8, 3.0), Circle(7.5, 4.5, 0.5), Rect(3.0, 0.0, 3.6, 1.0)),
              Rect(3.6, 2.0, 4.4, 2.8), Rect(6.0, 1.0, 7.0, 2.0)),
]


class TestRasterize:
    # 8 / 0.0667 and 8 / 0.2162 round to 120 and 37 cells; 0.07 and 0.13 divide
    # no side; 2.5 and 5.0 give grids of two or three cells a side
    @pytest.mark.parametrize("cell", [0.05, 0.0667, 0.07, 0.1, 0.13, 0.2162, 0.25, 0.4, 0.5, 2.5, 5.0])
    def test_matches_meshgrid_reference(self, cell):
        params = WorldGenParams()
        worlds = [
            *generate_suite(params, 6, seed=8),
            *generate_suite(WorldGenParams(n_obstacles_min=0, n_obstacles_max=0), 1, seed=8),
            *generate_suite(SMALL_ARENA, 6, seed=8),
            walled_world(gap=True),  # rectangles only
            WorldSpec(params.width, params.height, params.robot_radius,
                      (Circle(2.0, 2.5, 0.6), Circle(6.1, 5.0, 0.3), Circle(1.5, 5.6, 0.45)),
                      params.start_region(), params.goal_region("north")),  # circles only
            # at 0.5 m cells, cell centres sit exactly robot_radius from walls and rectangle sides
            WorldSpec(8.0, 8.0, 0.25, (Rect(2.0, 2.0, 3.0, 3.0), Circle(6.0, 2.0, 0.5)),
                      Rect(3.5, 3.5, 4.5, 4.5), Rect(1.0, 6.5, 7.0, 7.0)),
            *EDGE_WORLDS,
        ]
        kinds = set()
        for world in worlds:
            kinds.add(frozenset(type(ob) for ob in world.obstacles))
            got = rasterize(world, cell).occupied
            assert got.shape == (max(2, round(world.height / cell)), max(2, round(world.width / cell)))
            assert np.array_equal(got, meshgrid_rasterize(world, cell))
        assert kinds >= {frozenset(), frozenset({Rect}), frozenset({Circle}), frozenset({Rect, Circle})}
