"""Procedural arena generation for training and held-out evaluation suites.

Layout contract: a square-ish arena with a start box in the middle, a
goal strip along one randomly chosen wall, and rectangles and circles
scattered under clearance constraints (to the walls, to each other, and
much more generously to the start box so that an aimless controller
rarely collides early). Every accepted world is checked for planner
reachability from the centre of the start box to the goal strip's centre and
the midpoints of its four edges, each snapped to a nearby free cell of the
planner grid. Reachability is a connected-component test on that grid
(grid.connected), which A* would answer the same way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, UsageError, bounded, check_fields, require
from .grid import connected, nearest_free_cell, planner_grid
from .world import Circle, Rect, Shape, WorldSpec, load_world, save_world, shape_distance

_WORLD_TRIES = 100
_OBSTACLE_TRIES = 50
_SIDES = ("east", "west", "north", "south")


@dataclass(frozen=True)
class WorldGenParams:
    width: float = bounded(8.0, gt=0.0)
    height: float = bounded(8.0, gt=0.0)
    robot_radius: float = bounded(0.15, gt=0.0)
    n_obstacles_min: int = bounded(4, ge=0)
    n_obstacles_max: int = bounded(7, ge=0)
    rect_side_min: float = bounded(0.4, gt=0.0)
    rect_side_max: float = bounded(0.9, gt=0.0)
    circle_radius_min: float = bounded(0.2, gt=0.0)
    circle_radius_max: float = bounded(0.45, gt=0.0)
    start_box_half: float = bounded(0.45, gt=0.0)
    goal_strip_depth: float = bounded(0.5, gt=0.0)
    goal_strip_margin: float = bounded(1.0, ge=0.0)
    goal_wall_offset: float = bounded(0.7, gt=0.0)
    start_clearance: float = bounded(1.25, ge=0.0)
    goal_clearance: float = bounded(0.30, ge=0.0)
    wall_clearance: float = bounded(0.25, ge=0.0)
    pairwise_clearance: float = bounded(0.85, ge=0.0)
    planner_cell: float = bounded(0.05, gt=0.0)

    def __post_init__(self) -> None:
        check_fields(self)
        for lo, hi in (("n_obstacles_min", "n_obstacles_max"), ("rect_side_min", "rect_side_max"),
                       ("circle_radius_min", "circle_radius_max")):
            low, high = getattr(self, lo), getattr(self, hi)
            require(low <= high, f"{lo}={low} exceeds {hi}={high}")
        # WorldSpec refuses a region within robot_radius of an obstacle, so a
        # smaller clearance would abort the suite instead of one candidate
        for name in ("start_clearance", "goal_clearance"):
            require(getattr(self, name) >= self.robot_radius,
                    f"{name}={getattr(self, name)} must be >= robot_radius={self.robot_radius}")
        side = min(self.width, self.height)
        require(2 * self.start_box_half < side,
                f"start_box_half={self.start_box_half} does not fit in the arena (min(width, height)={side})")
        require(2 * self.goal_strip_margin < side,
                f"goal_strip_margin={self.goal_strip_margin} leaves no strip (min(width, height)={side})")
        require(self.goal_wall_offset + self.goal_strip_depth < side / 2,
                f"goal_wall_offset + goal_strip_depth crosses the arena midline (min(width, height)={side})")

    def start_region(self) -> Rect:
        cx, cy = self.width / 2.0, self.height / 2.0
        h = self.start_box_half
        return Rect(cx - h, cy - h, cx + h, cy + h)

    def goal_region(self, side: str) -> Rect:
        m = self.goal_strip_margin
        o = self.goal_wall_offset
        d = self.goal_strip_depth
        if side == "east":
            return Rect(self.width - o - d, m, self.width - o, self.height - m)
        if side == "west":
            return Rect(o, m, o + d, self.height - m)
        if side == "north":
            return Rect(m, self.height - o - d, self.width - m, self.height - o)
        if side == "south":
            return Rect(m, o, self.width - m, o + d)
        raise ConfigurationError(f"unknown goal side {side!r}")


def _sample_shape(params: WorldGenParams, rng: np.random.Generator) -> Shape:
    # One block of draws per candidate: the coin and three parameters, plus a
    # fourth parameter for a rectangle. lo + (hi - lo) * u is Generator.uniform's
    # own formula, so these are the doubles that one uniform call per parameter
    # gave, in the same order.
    coin, a, b, c = rng.random(4).tolist()
    if coin < 0.5:
        lo, hi = params.rect_side_min, params.rect_side_max
        w = lo + (hi - lo) * a
        h = lo + (hi - lo) * b
        x_lo = params.wall_clearance
        x_hi = params.width - params.wall_clearance - w
        y_lo = params.wall_clearance
        y_hi = params.height - params.wall_clearance - h
        if x_hi < x_lo or y_hi < y_lo:
            raise ConfigurationError(f"a rectangle of side up to rect_side_max={hi} does not fit "
                                     f"wall_clearance={params.wall_clearance} inside the arena")
        x = x_lo + (x_hi - x_lo) * c
        y = y_lo + (y_hi - y_lo) * rng.random()
        return Rect(x, y, x + w, y + h)
    r = params.circle_radius_min + (params.circle_radius_max - params.circle_radius_min) * a
    lo = params.wall_clearance + r
    hi_x = params.width - params.wall_clearance - r
    hi_y = params.height - params.wall_clearance - r
    if hi_x < lo or hi_y < lo:
        raise ConfigurationError(f"a circle of radius up to circle_radius_max={params.circle_radius_max} "
                                 f"does not fit wall_clearance={params.wall_clearance} inside the arena")
    return Circle(lo + (hi_x - lo) * b, lo + (hi_y - lo) * c, r)


# why an attempt of generate_world failed, as its failure message words it
_REJECTIONS = {
    "start": "an obstacle, kept wall_clearance={p.wall_clearance} from the walls, came within "
             "start_clearance={p.start_clearance} of the start box (start_box_half={p.start_box_half})",
    "goal": "an obstacle came within goal_clearance={p.goal_clearance} of the goal strip",
    "pairwise": "an obstacle came within pairwise_clearance={p.pairwise_clearance} of another",
    "reach": "the goal strip was unreachable from the start box on the planner_cell={p.planner_cell} grid",
}


def _rejection(shape: Shape, placed: list[Shape], start: Rect, goal: Rect, params: WorldGenParams) -> str | None:
    """The _REJECTIONS key of the first clearance the candidate breaks, or None."""
    if shape_distance(shape, start) < params.start_clearance:
        return "start"
    if shape_distance(shape, goal) < params.goal_clearance:
        return "goal"
    if any(shape_distance(shape, other) < params.pairwise_clearance for other in placed):
        return "pairwise"
    return None


def _reachable(world: WorldSpec, params: WorldGenParams) -> bool:
    grid = planner_grid(world, params.planner_cell)
    g = world.goal_region
    # the strip's edge midpoints
    mx, my = g.x_min + (g.x_max - g.x_min) / 2, g.y_min + (g.y_max - g.y_min) / 2
    points = (world.start_region.center, g.center, (mx, g.y_min), (mx, g.y_max), (g.x_min, my), (g.x_max, my))
    try:
        cells = [nearest_free_cell(grid, *grid.cell_of(*p)) for p in points]
    except UsageError:
        # a point had no nearby free cell, so the start or a strip edge is sealed
        return False
    return connected(grid, cells)


def generate_world(params: WorldGenParams, rng: np.random.Generator) -> WorldSpec:
    """One arena from the stream, retrying until all constraints hold."""
    start = params.start_region()
    failures = Counter()  # why each failed attempt failed: its last candidate's rejection, or "reach"
    for _ in range(_WORLD_TRIES):
        side = _SIDES[int(rng.integers(len(_SIDES)))]
        goal = params.goal_region(side)
        n = int(rng.integers(params.n_obstacles_min, params.n_obstacles_max + 1))
        placed: list[Shape] = []
        rejection = None
        for _ in range(n):
            for _ in range(_OBSTACLE_TRIES):
                cand = _sample_shape(params, rng)
                rejection = _rejection(cand, placed, start, goal, params)
                if rejection is None:
                    placed.append(cand)
                    break
            else:
                break
        if rejection is not None:
            failures[rejection] += 1
            continue
        world = WorldSpec(
            width=params.width, height=params.height, robot_radius=params.robot_radius,
            obstacles=tuple(placed), start_region=start, goal_region=goal,
        )
        if _reachable(world, params):
            return world
        failures["reach"] += 1
    most_often = _REJECTIONS[failures.most_common(1)[0][0]].format(p=params)
    raise ConfigurationError(f"could not generate a valid world in {_WORLD_TRIES} attempts; "
                             f"most often {most_often}; relax the clearances")


def generate_suite(params: WorldGenParams, n_worlds: int, seed: int) -> list[WorldSpec]:
    """n deterministic worlds; each has its own child stream of `seed`."""
    if n_worlds < 1:
        raise ConfigurationError("n_worlds must be >= 1")
    streams = np.random.SeedSequence(seed).spawn(n_worlds)
    return [generate_world(params, np.random.default_rng(s)) for s in streams]


def suite_paths(directory: str | Path, n_worlds: int) -> list[Path]:
    directory = Path(directory)
    return [directory / f"world_{i:03d}.json" for i in range(n_worlds)]


def write_suite(worlds: list[WorldSpec], directory: str | Path) -> list[Path]:
    paths = suite_paths(directory, len(worlds))
    for world, path in zip(worlds, paths):
        save_world(world, path)
    return paths


def load_suite(directory: str | Path) -> list[WorldSpec]:
    directory = Path(directory)
    paths = sorted(directory.glob("world_*.json"))
    if not paths:
        raise ConfigurationError(f"no world_*.json files under {directory}")
    return [load_world(p) for p in paths]
