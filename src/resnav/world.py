"""2D arena geometry: shapes, ray casting, unicycle kinematics, collision tests.

The arena occupies [0, width] x [0, height] with x to the right and y up.
Angles are radians, counter-clockwise from +x, always wrapped to (-pi, pi].
A WorldSpec never changes after construction and can be shared freely
between episode runners; derived ray-casting arrays and planner data are
cached on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .fileio import read_json, write_atomically

WORLD_FORMAT = "world/1"
TWO_PI = 2.0 * math.pi
_EPS_PARALLEL = 1e-12


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    t = math.fmod(theta + math.pi, TWO_PI)
    if t <= 0.0:
        t += TWO_PI
    return t - math.pi


@dataclass(frozen=True)
class Pose:
    x: float  # m
    y: float  # m
    theta: float  # rad, normalized on construction

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle given by its corner coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ConfigurationError(
                f"degenerate rect: ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    def distance_to_point(self, x: float, y: float) -> float:
        dx = max(self.x_min - x, 0.0, x - self.x_max)
        dy = max(self.y_min - y, 0.0, y - self.y_max)
        return math.hypot(dx, dy)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float

    def __post_init__(self) -> None:
        if self.r <= 0.0:
            raise ConfigurationError(f"circle radius must be positive, got {self.r}")

    def distance_to_point(self, x: float, y: float) -> float:
        return max(0.0, math.hypot(x - self.cx, y - self.cy) - self.r)

    @property
    def center(self) -> tuple[float, float]:
        return (self.cx, self.cy)


Shape = Rect | Circle


def shape_to_dict(shape: Shape) -> dict:
    if isinstance(shape, Rect):
        return {"type": "rect", "params": [shape.x_min, shape.y_min, shape.x_max, shape.y_max]}
    return {"type": "circle", "params": [shape.cx, shape.cy, shape.r]}


def finite_number(value, what: str) -> float:
    """A JSON number as a finite float; anything else is a ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an integer literal beyond float range
        raise ConfigurationError(f"{what} is beyond float range") from None
    if not math.isfinite(result):
        raise ConfigurationError(f"{what} must be finite, got {result}")
    return result


def shape_from_dict(d: dict) -> Shape:
    if not isinstance(d, dict):
        raise ConfigurationError(f"shape entry must be an object, got {type(d).__name__}")
    unknown = set(d) - {"type", "params"}
    if unknown:
        raise ConfigurationError(f"unknown shape keys: {sorted(unknown)}")
    kind = d.get("type")
    params = d.get("params")
    if kind == "rect":
        if not isinstance(params, list) or len(params) != 4:
            raise ConfigurationError(f"rect needs 4 params, got {params!r}")
        return Rect(*[finite_number(p, "rect param") for p in params])
    if kind == "circle":
        if not isinstance(params, list) or len(params) != 3:
            raise ConfigurationError(f"circle needs 3 params, got {params!r}")
        return Circle(*[finite_number(p, "circle param") for p in params])
    raise ConfigurationError(f"unknown shape type {kind!r}")


def shape_distance(a: Shape, b: Shape) -> float:
    """Euclidean gap between two shapes; 0 when they touch or overlap."""
    if isinstance(a, Rect) and isinstance(b, Rect):
        dx = max(a.x_min - b.x_max, b.x_min - a.x_max, 0.0)
        dy = max(a.y_min - b.y_max, b.y_min - a.y_max, 0.0)
        return math.hypot(dx, dy)
    if isinstance(a, Rect) and isinstance(b, Circle):
        return max(0.0, a.distance_to_point(b.cx, b.cy) - b.r)
    if isinstance(a, Circle) and isinstance(b, Rect):
        return shape_distance(b, a)
    assert isinstance(a, Circle) and isinstance(b, Circle)
    return max(0.0, math.hypot(a.cx - b.cx, a.cy - b.cy) - a.r - b.r)


def sample_in_shape(shape: Shape, rng: np.random.Generator) -> tuple[float, float]:
    """Draw a uniform point inside the shape (two rng draws per call)."""
    if isinstance(shape, Rect):
        x = rng.uniform(shape.x_min, shape.x_max)
        y = rng.uniform(shape.y_min, shape.y_max)
        return (float(x), float(y))
    rho = shape.r * math.sqrt(rng.uniform(0.0, 1.0))
    phi = rng.uniform(-math.pi, math.pi)
    return (shape.cx + rho * math.cos(phi), shape.cy + rho * math.sin(phi))


@cache
def beam_angles(n_rays: int) -> np.ndarray:
    """Relative beam angles, evenly spaced over [-pi/2, pi/2]; one shared read-only array."""
    a = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_rays)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class WorldSpec:
    """Immutable arena description.

    Invariants are checked at construction: obstacles inside the arena
    bounds and the start/goal regions clear of every obstacle inflated by
    robot_radius.
    """

    width: float
    height: float
    robot_radius: float
    obstacles: tuple[Shape, ...]
    start_region: Shape
    goal_region: Shape
    # planner data cached by resnav.grid: the grid per cell size and the A* length
    # per (cell, start cell, goal cell); derived, so no part of the world's value
    _planner: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        _validate_world(self)

    @cached_property
    def _segment_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Wall and rectangle-edge segments as (S, 1) columns: origin P, extent Q-P."""
        w, h = self.width, self.height
        corners = [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]
        segs = [(corners[i], corners[(i + 1) % 4]) for i in range(4)]
        for ob in self.obstacles:
            if isinstance(ob, Rect):
                cs = [
                    (ob.x_min, ob.y_min),
                    (ob.x_max, ob.y_min),
                    (ob.x_max, ob.y_max),
                    (ob.x_min, ob.y_max),
                ]
                segs.extend((cs[i], cs[(i + 1) % 4]) for i in range(4))
        p = np.array([s[0] for s in segs], dtype=np.float64)
        e = np.array([s[1] for s in segs], dtype=np.float64) - p
        return _read_only_columns(p[:, 0], p[:, 1], e[:, 0], e[:, 1])

    @cached_property
    def _circle_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Circle obstacles as (C, 1) columns: centre x, centre y, radius squared."""
        cs = [(c.cx, c.cy, c.r) for c in self.obstacles if isinstance(c, Circle)]
        arr = np.array(cs, dtype=np.float64).reshape(len(cs), 3)
        return _read_only_columns(arr[:, 0], arr[:, 1], arr[:, 2] ** 2)


def _read_only_columns(*vectors: np.ndarray) -> tuple[np.ndarray, ...]:
    cols = tuple(np.ascontiguousarray(v)[:, None] for v in vectors)
    for c in cols:
        c.flags.writeable = False
    return cols


def _shape_in_arena(shape: Shape, width: float, height: float) -> bool:
    if isinstance(shape, Rect):
        return 0.0 <= shape.x_min and shape.x_max <= width and 0.0 <= shape.y_min and shape.y_max <= height
    return (
        shape.cx - shape.r >= 0.0
        and shape.cx + shape.r <= width
        and shape.cy - shape.r >= 0.0
        and shape.cy + shape.r <= height
    )


def _validate_world(world: WorldSpec) -> None:
    if world.width <= 0.0 or world.height <= 0.0:
        raise ConfigurationError(f"arena sides must be positive, got {world.width} x {world.height}")
    if world.robot_radius <= 0.0:
        raise ConfigurationError(f"robot_radius must be positive, got {world.robot_radius}")
    for i, ob in enumerate(world.obstacles):
        if not _shape_in_arena(ob, world.width, world.height):
            raise ConfigurationError(f"obstacle {i} extends outside the arena: {ob}")
    for name, region in (("start_region", world.start_region), ("goal_region", world.goal_region)):
        if not _shape_in_arena(region, world.width, world.height):
            raise ConfigurationError(f"{name} extends outside the arena: {region}")
        for i, ob in enumerate(world.obstacles):
            if shape_distance(region, ob) < world.robot_radius:
                raise ConfigurationError(
                    f"{name} intersects obstacle {i} inflated by robot_radius={world.robot_radius}"
                )


def raycast_angles(
    x: float, y: float, angles: np.ndarray, max_range: float, world: WorldSpec
) -> np.ndarray:
    """Cast rays from (x, y) at absolute angles; nearest hit per ray.

    Returns distances clamped to max_range.  Walls bound every ray, so a
    ray from inside the arena always has a finite hit.  Work arrays are
    laid out (shapes, rays), so the nearest hit is a reduction over
    contiguous rows.  Parallel rays and far-off origins overflow or divide
    by zero quietly: such a ray misses and reads max_range.
    """
    dx = np.cos(angles)
    dy = np.sin(angles)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        px, py, ex, ey = world._segment_columns  # the four walls are always there
        diff_x = px - x
        diff_y = py - y
        t_num = diff_x * ey - diff_y * ex
        denom = ey * dx
        denom -= ex * dy
        t = t_num / denom
        u = diff_x * dy
        u -= diff_y * dx
        u /= denom
        hit = np.abs(denom) > _EPS_PARALLEL
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


def scan(pose: Pose, n_rays: int, max_range: float, world: WorldSpec) -> np.ndarray:
    """Simulate a 180-degree planar scan centred on the robot heading; read-only ranges.

    ranges[i] belongs to beam_angles(n_rays)[i], robot frame: beam i points at
    pose.theta - pi/2 + i * pi / (n_rays - 1), both ends of the field of view
    included. SensorConfig admits n_rays and max_range.
    """
    ranges = raycast_angles(pose.x, pose.y, pose.theta + beam_angles(n_rays), max_range, world)
    ranges.flags.writeable = False
    return ranges


def step_kinematics(pose: Pose, v: float, omega: float, dt: float) -> Pose:
    """Forward-Euler unicycle step: translate along the old heading, then turn (EpisodeConfig admits dt)."""
    return Pose(
        pose.x + v * math.cos(pose.theta) * dt,
        pose.y + v * math.sin(pose.theta) * dt,
        pose.theta + omega * dt,
    )


def collides(pose: Pose, world: WorldSpec) -> bool:
    """True when the robot disc intersects an obstacle or leaves the arena."""
    return not point_clear(world, pose.x, pose.y, world.robot_radius)


def point_clear(world: WorldSpec, x: float, y: float, radius: float) -> bool:
    """True when a disc of the given radius at (x, y) is collision free."""
    if x < radius or x > world.width - radius or y < radius or y > world.height - radius:
        return False
    for ob in world.obstacles:
        if ob.distance_to_point(x, y) < radius:
            return False
    return True


def world_to_dict(world: WorldSpec) -> dict:
    return {
        "format": WORLD_FORMAT,
        "width": world.width,
        "height": world.height,
        "robot_radius": world.robot_radius,
        "obstacles": [shape_to_dict(ob) for ob in world.obstacles],
        "start_region": shape_to_dict(world.start_region),
        "goal_region": shape_to_dict(world.goal_region),
    }


def world_from_dict(d: dict) -> WorldSpec:
    if not isinstance(d, dict):
        raise ConfigurationError("world document must be a JSON object")
    expected = {"format", "width", "height", "robot_radius", "obstacles", "start_region", "goal_region"}
    unknown = set(d) - expected
    if unknown:
        raise ConfigurationError(f"unknown world keys: {sorted(unknown)}")
    missing = expected - set(d)
    if missing:
        raise ConfigurationError(f"missing world keys: {sorted(missing)}")
    if d["format"] != WORLD_FORMAT:
        raise ConfigurationError(f"unsupported world format {d['format']!r}, expected {WORLD_FORMAT!r}")
    if not isinstance(d["obstacles"], list):
        raise ConfigurationError("world obstacles must be a list")
    return WorldSpec(
        width=finite_number(d["width"], "world width"),
        height=finite_number(d["height"], "world height"),
        robot_radius=finite_number(d["robot_radius"], "robot_radius"),
        obstacles=tuple(shape_from_dict(ob) for ob in d["obstacles"]),
        start_region=shape_from_dict(d["start_region"]),
        goal_region=shape_from_dict(d["goal_region"]),
    )


def world_to_json(world: WorldSpec) -> str:
    return json.dumps(world_to_dict(world), indent=2, sort_keys=True) + "\n"


def save_world(world: WorldSpec, path: str | Path) -> None:
    write_atomically(path, world_to_json(world))


def load_world(path: str | Path) -> WorldSpec:
    doc = read_json(path)
    try:
        return world_from_dict(doc)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
