"""Occupancy grid and shortest-path tests, including the Dijkstra oracle."""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest

from resnav.cli import _planner_overlay
from resnav.env import EpisodeConfig
from resnav.errors import ConfigurationError, UsageError
from resnav.evaluation import evaluate
from resnav.grid import (
    SQRT2,
    OccupancyGrid,
    ShortestPathOracle,
    astar_path,
    astar_shortest,
    connected,
    planner_grid,
    rasterize,
)
from resnav.policy import PriorPolicy, RandomPolicy
from resnav.world import Circle, Rect, WorldSpec, world_from_dict, world_to_dict
from resnav.worldgen import WorldGenParams, generate_suite

from conftest import make_empty_world


def dijkstra_reference(occ: np.ndarray, start, goal) -> float:
    """Independent shortest-path oracle with the same movement rules."""
    rows, cols = occ.shape
    dist = np.full((rows, cols), np.inf)
    dist[start[1], start[0]] = 0.0
    heap = [(0.0, start[0], start[1])]
    while heap:
        d, ix, iy = heapq.heappop(heap)
        if d > dist[iy, ix]:
            continue
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = ix + dx, iy + dy
                if not (0 <= nx < cols and 0 <= ny < rows) or occ[ny, nx]:
                    continue
                if dx != 0 and dy != 0:
                    if occ[iy, nx] or occ[ny, ix]:
                        continue
                    step = SQRT2
                else:
                    step = 1.0
                nd = d + step
                if nd < dist[ny, nx]:
                    dist[ny, nx] = nd
                    heapq.heappush(heap, (nd, nx, ny))
    return float(dist[goal[1], goal[0]])


def _octile(ix: int, iy: int, gx: int, gy: int) -> float:
    dx = abs(ix - gx)
    dy = abs(iy - gy)
    lo = min(dx, dy)
    return (dx + dy - 2 * lo) + SQRT2 * lo


def reference_astar_path(grid: OccupancyGrid, start, goal):
    """A* with numpy-indexed state: the same search, tie-breaks and float
    arithmetic as astar_path, without its flat padded layout."""
    occ = grid.occupied
    rows, cols = occ.shape
    if start == goal:
        return (0.0, [start])
    gx, gy = goal
    g = np.full((rows, cols), np.inf)
    parent = np.full((rows, cols), -1, dtype=np.int64)
    g[start[1], start[0]] = 0.0
    heap = [(_octile(start[0], start[1], gx, gy), 0.0, start[0], start[1])]
    best = np.inf
    while heap:
        f, gc, ix, iy = heapq.heappop(heap)
        if f >= best:
            break
        if gc > g[iy, ix]:
            continue
        if ix == gx and iy == gy:
            best = gc
            continue
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = ix + dx, iy + dy
                if not (0 <= nx < cols and 0 <= ny < rows) or occ[ny, nx]:
                    continue
                if dx != 0 and dy != 0:
                    if occ[iy, nx] or occ[ny, ix]:
                        continue
                    step = SQRT2
                else:
                    step = 1.0
                g2 = gc + step
                if g2 < g[ny, nx]:
                    g[ny, nx] = g2
                    parent[ny, nx] = iy * cols + ix
                    heapq.heappush(heap, (g2 + _octile(nx, ny, gx, gy), g2, nx, ny))
    if not math.isfinite(best):
        return (math.inf, [])
    path = [goal]
    node = goal
    while node != start:
        enc = parent[node[1], node[0]]
        node = (int(enc % cols), int(enc // cols))
        path.append(node)
    path.reverse()
    return (best * grid.cell, path)


def grid_from_bool(occ: np.ndarray, cell: float) -> OccupancyGrid:
    return OccupancyGrid(occupied=occ, cell=cell)


def region_corner_world(side=10.0, obstacles=(), robot_radius=0.1):
    return WorldSpec(side, side, robot_radius, obstacles,
                     Rect(0.3, 0.3, 0.8, 0.8), Rect(side - 0.8, side - 0.8, side - 0.3, side - 0.3))


class TestRasterize:
    def test_empty_world_boundary_band_only(self):
        w = region_corner_world(robot_radius=0.3)
        g = rasterize(w, 0.1)  # 100 x 100 cells
        occ = g.occupied
        # boundary band: centres within 0.3 m of a wall -> first/last 3 cells
        assert occ[:3, :].all() and occ[-3:, :].all()
        assert occ[:, :3].all() and occ[:, -3:].all()
        assert not occ[3:-3, 3:-3].any()

    def test_everything_occupied_when_obstacle_spans_arena(self):
        # bypass region validation concerns with a world whose obstacle covers
        # all cell centres but leaves the region corners clear
        w = region_corner_world(4.0, obstacles=(Circle(2.0, 2.0, 1.0),), robot_radius=0.1)
        g = rasterize(w, 1.0)  # 4 x 4 cells; all four centre cells inside circle+r
        assert g.occupied[1:3, 1:3].all()

    def test_resolution_doubling_stable_away_from_boundaries(self):
        w = region_corner_world(8.0, obstacles=(Circle(4.0, 4.0, 0.8), Rect(1.5, 5.0, 2.5, 6.0)))
        coarse = rasterize(w, 0.1)
        fine = rasterize(w, 0.05)
        diag = math.hypot(0.1, 0.1)

        def analytic_signed(x, y):
            """Negative inside the inflated set, positive outside; magnitude = distance."""
            r = w.robot_radius
            ds = [x - 0.0, 8.0 - x, y - 0.0, 8.0 - y]
            wall = min(ds) - r  # >0 means clear of the boundary band
            best = wall
            for ob in w.obstacles:
                d = ob.distance_to_point(x, y) - r
                if isinstance(ob, Circle) and math.hypot(x - ob.cx, y - ob.cy) < ob.r:
                    d = -(r + ob.r - math.hypot(x - ob.cx, y - ob.cy))
                if isinstance(ob, Rect) and ob.x_min <= x <= ob.x_max and ob.y_min <= y <= ob.y_max:
                    d = -r  # at least r deep inside the inflated set
                best = min(best, d)
            return best

        for g in (coarse, fine):
            rows, cols = g.occupied.shape
            for iy in range(0, rows, 7):
                for ix in range(0, cols, 7):
                    x, y = g.center_of(ix, iy)
                    sd = analytic_signed(x, y)
                    if abs(sd) > diag:
                        assert g.occupied[iy, ix] == (sd < 0), (x, y, sd)


class TestAstar:
    def test_straight_corridor(self):
        occ = np.zeros((3, 20), dtype=bool)
        g = grid_from_bool(occ, 0.01)
        assert astar_shortest(g, (2, 1), (12, 1)) == pytest.approx(0.10)

    def test_pure_diagonal(self):
        occ = np.zeros((20, 20), dtype=bool)
        g = grid_from_bool(occ, 0.01)
        got = astar_shortest(g, (2, 2), (12, 12))
        assert got == pytest.approx(10 * SQRT2 * 0.01, abs=1e-12)
        assert got == pytest.approx(0.1414, abs=1e-4)

    def test_unreachable_returns_inf(self):
        occ = np.zeros((10, 10), dtype=bool)
        occ[:, 5] = True  # full wall
        g = grid_from_bool(occ, 0.1)
        assert astar_shortest(g, (1, 1), (8, 8)) == math.inf

    def test_occupied_endpoint_rejected(self):
        occ = np.zeros((5, 5), dtype=bool)
        occ[2, 2] = True
        g = grid_from_bool(occ, 0.1)
        with pytest.raises(UsageError):
            astar_shortest(g, (2, 2), (4, 4))
        with pytest.raises(UsageError):
            astar_shortest(g, (0, 0), (2, 2))

    def test_matches_dijkstra_on_random_grids(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            occ = rng.random((50, 50)) < 0.35
            free = np.argwhere(~occ)
            if len(free) < 2:
                continue
            s = tuple(free[rng.integers(len(free))][::-1])
            t = tuple(free[rng.integers(len(free))][::-1])
            g = grid_from_bool(occ, 0.05)
            want = dijkstra_reference(occ, s, t) * 0.05
            got = astar_shortest(g, s, t)
            assert got == want or (math.isinf(got) and math.isinf(want))

    def test_symmetric(self):
        rng = np.random.default_rng(123)
        occ = rng.random((40, 40)) < 0.3
        occ[1, 1] = occ[35, 30] = False
        g = grid_from_bool(occ, 0.02)
        a = astar_shortest(g, (1, 1), (30, 35))
        b = astar_shortest(g, (30, 35), (1, 1))
        if math.isinf(a):
            assert math.isinf(b)
        else:
            assert a == pytest.approx(b, abs=1e-9)

    def test_path_is_returned_and_valid(self):
        occ = np.zeros((15, 15), dtype=bool)
        occ[5:10, 7] = True
        g = grid_from_bool(occ, 0.1)
        length, path = astar_path(g, (2, 7), (12, 7))
        assert path[0] == (2, 7) and path[-1] == (12, 7)
        for (ax, ay), (bx, by) in zip(path, path[1:]):
            assert max(abs(ax - bx), abs(ay - by)) == 1
            assert not occ[by, bx]
        # detour around the wall is longer than the straight line
        assert length > 10 * 0.1 - 1e-9

    def test_identical_to_numpy_indexed_reference(self):
        rng = np.random.default_rng(17)
        grids = []
        for world in generate_suite(WorldGenParams(), 10, 23):
            grid = rasterize(world, 0.1)
            walled = grid.occupied.copy()
            walled[:, 40] = True  # splits the arena: pairs across it are unreachable
            grids += [grid, grid_from_bool(walled, 0.1)]
        for shape in ((30, 47), (41, 19), (1, 9)):  # free cells on the border, rows != cols
            grids += [grid_from_bool(rng.random(shape) < 0.3, 0.05) for _ in range(4)]
        outcomes = set()
        for grid in grids:
            free = [(int(ix), int(iy)) for iy, ix in np.argwhere(~grid.occupied)]
            if not free:
                continue
            picks = [free[i] for i in rng.integers(len(free), size=12)]
            for start, goal in [*zip(picks[::2], picks[1::2]), (picks[0], picks[0])]:
                got = astar_path(grid, start, goal)
                assert got == reference_astar_path(grid, start, goal), (start, goal)
                outcomes.add("same" if start == goal else "unreachable" if math.isinf(got[0]) else "found")
        assert outcomes == {"same", "unreachable", "found"}

    def test_start_equals_goal(self):
        g = grid_from_bool(np.zeros((5, 5), dtype=bool), 0.1)
        assert astar_shortest(g, (2, 2), (2, 2)) == 0.0


class TestConnected:
    def test_matches_astar_reachability_on_random_grids(self):
        rng = np.random.default_rng(31)
        outcomes = set()
        for k in range(2400):
            rows = 1 if k % 8 == 0 else int(rng.integers(2, 25))
            cols = 1 if k % 8 == 4 else int(rng.integers(2, 25))
            occ = rng.random((rows, cols)) < rng.uniform(0.1, 0.6)
            free = [(int(ix), int(iy)) for iy, ix in np.argwhere(~occ)]
            if not free:
                continue
            grid = grid_from_bool(occ, 0.05)
            a, b, c = (free[i] for i in rng.integers(len(free), size=3))
            for cells in ((a, b), (b, c), (a, a)):
                want = math.isfinite(astar_shortest(grid, *cells))
                assert connected(grid, cells) == want, (occ, cells)
                outcomes.add(("line" if 1 in occ.shape else "grid", "same" if cells[0] == cells[1] else want))
            # several cells: one component exactly when each reaches the first
            want = all(math.isfinite(astar_shortest(grid, a, t)) for t in (b, c))
            assert connected(grid, (a, b, c)) == want
        assert outcomes == {(kind, o) for kind in ("line", "grid") for o in ("same", True, False)}

    def test_cells_touching_only_diagonally_are_apart(self):
        occ = np.array([[False, True],
                        [True, False]])
        grid = grid_from_bool(occ, 0.1)
        assert astar_shortest(grid, (0, 0), (1, 1)) == math.inf
        assert not connected(grid, ((0, 0), (1, 1)))

    def test_one_orthogonal_gap_joins_two_regions(self):
        occ = np.array([[False, False, True, False, False],
                        [False, False, False, False, False],
                        [False, False, True, False, False]])
        left, gap, right = (0, 2), (2, 1), (4, 0)
        grid = grid_from_bool(occ, 0.1)
        assert connected(grid, (left, gap, right))
        assert math.isfinite(astar_shortest(grid, left, right))
        closed = occ.copy()
        closed[1, 2] = True
        grid = grid_from_bool(closed, 0.1)
        assert not connected(grid, (left, right))
        assert astar_shortest(grid, left, right) == math.inf

    def test_occupied_or_outside_cell_rejected(self):
        occ = np.zeros((4, 5), dtype=bool)
        occ[2, 3] = True
        grid = grid_from_bool(occ, 0.1)
        for bad in ((3, 2), (5, 0), (0, 4), (-1, 0)):
            with pytest.raises(UsageError):
                connected(grid, ((0, 0), bad))


class TestShortestPathOracle:
    """Planner grids and A* lengths live on their world, one per (world, cell);
    the oracle only fixes the cell."""

    def test_one_rasterisation_per_world_and_cell(self, monkeypatch):
        # world generation at one cell, SPL at another, as in tests/test_cli.py
        gen_cell, eval_cell = 0.1, 0.2
        calls = []
        monkeypatch.setattr("resnav.grid.rasterize",
                            lambda world, cell: calls.append((world, cell)) or rasterize(world, cell))
        worlds = generate_suite(WorldGenParams(planner_cell=gen_cell), 3, 5)
        evaluate(worlds, {"prior": PriorPolicy(), "random": RandomPolicy()}, 6,
                 episode_config=EpisodeConfig(max_steps=30), oracle=ShortestPathOracle(eval_cell))
        for world in worlds:
            for cell in (gen_cell, eval_cell):
                assert _planner_overlay(world, world.start_region.center, world.goal_region.center, cell)
        keys = [(id(world), cell) for world, cell in calls]
        assert len(keys) == len(set(keys)), "a world was rasterised twice at one cell"
        for world in worlds:
            assert sorted(cell for w, cell in calls if w is world) == [gen_cell, eval_cell]

    def test_value_equal_world_builds_its_own_grid(self):
        world = generate_suite(WorldGenParams(), 1, 3)[0]
        grid = planner_grid(world, 0.1)
        assert planner_grid(world, 0.1) is grid
        copy = world_from_dict(world_to_dict(world))
        # the cache is no part of the world's value
        assert copy == world and hash(copy) == hash(world) and repr(copy) == repr(world)
        assert world_to_dict(copy) == world_to_dict(world)
        own = planner_grid(copy, 0.1)
        assert own is not grid and np.array_equal(own.occupied, grid.occupied)

    def test_cached_grids_match_fresh_rasterization(self):
        # each world is freed right after its query, so a later world can be
        # allocated at the same address; it must still get its own grid
        for seed in range(30):
            grid = planner_grid(generate_suite(WorldGenParams(), 1, seed)[0], 0.1)
            fresh = rasterize(generate_suite(WorldGenParams(), 1, seed)[0], grid.cell)
            assert np.array_equal(grid.occupied, fresh.occupied), f"stale grid for world seed {seed}"

    def test_oracle_keeps_only_its_cell(self, monkeypatch):
        world = generate_suite(WorldGenParams(), 1, 3)[0]
        searches = []
        monkeypatch.setattr("resnav.grid.astar_shortest",
                            lambda *args: searches.append(args) or astar_shortest(*args))
        start, goal = world.start_region.center, world.goal_region.center
        first = ShortestPathOracle(0.1).shortest(world, start, goal)
        oracle = ShortestPathOracle(0.1)
        assert oracle.shortest(world, start, goal) == first
        assert len(searches) == 1  # the length is cached on the world, not the oracle
        assert vars(oracle) == {"cell": 0.1}
        ShortestPathOracle(0.2).shortest(world, start, goal)
        assert len(searches) == 2

    def test_lengths_are_kept_per_cell(self):
        # one (start cell, goal cell) pair names a different path at each cell size
        world = make_empty_world(side=8.0)
        fine = ShortestPathOracle(0.1).shortest(world, (2.05, 2.05), (3.05, 3.05))
        coarse = ShortestPathOracle(0.2).shortest(world, (4.1, 4.1), (6.1, 6.1))
        assert coarse == pytest.approx(2 * fine)

    @pytest.mark.parametrize("cell", [0.0, -0.1, math.nan, math.inf])
    def test_cell_must_be_positive(self, cell):
        with pytest.raises(ConfigurationError, match="cell size"):
            ShortestPathOracle(cell)
        with pytest.raises(ConfigurationError, match="cell size"):
            planner_grid(generate_suite(WorldGenParams(), 1, 3)[0], cell)

    def test_rectangular_arena_at_a_cell_that_divides_neither_side(self):
        # 8 / 0.07 and 6 / 0.07 are not whole: round(side / cell) cells of exactly 0.07 m
        cell = 0.07
        worlds = generate_suite(WorldGenParams(width=8.0, height=6.0, planner_cell=cell), 2, 4)
        result = evaluate(worlds, {"prior": PriorPolicy()}, 4, episode_config=EpisodeConfig(max_steps=60),
                          oracle=ShortestPathOracle(cell))
        assert all(e.spl_term is not None and 0.0 < e.shortest_m < math.inf for e in result["prior"].episodes)
        grid = planner_grid(worlds[0], cell)
        assert (grid.cols, grid.rows, grid.cell) == (114, 86, cell)
        for x, y in ((0.0, 0.0), (3.99, 2.01), (7.97, 5.99)):  # the 114 columns end at 7.98 m
            cx, cy = grid.center_of(*grid.cell_of(x, y))
            assert abs(cx - x) <= cell / 2 + 1e-12 and abs(cy - y) <= cell / 2 + 1e-12
        # the boundary band is robot_radius wide on every side, whatever the cell
        gx = (np.arange(grid.cols) + 0.5) * cell
        assert grid.occupied[grid.rows // 2, gx > 8.0 - worlds[0].robot_radius].all()
