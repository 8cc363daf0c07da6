"""Occupancy rasterisation, reachability and shortest paths on a planner grid.

Cells are occupied when their centre lies inside an obstacle inflated by
robot_radius or within robot_radius of the arena boundary, matching the
collision test for the robot centre. Paths are 8-connected with unit and
sqrt(2) step costs in cell units; diagonal moves may not cut corners (both
orthogonal neighbours must be free).
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .world import Circle, Rect, WorldSpec

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class OccupancyGrid:
    """Square cells of side cell (m) from the arena's origin; the last row and
    column may end a fraction of a cell short of or beyond the arena."""

    occupied: np.ndarray  # bool, indexed [iy, ix]
    cell: float  # m

    @property
    def rows(self) -> int:
        return self.occupied.shape[0]

    @property
    def cols(self) -> int:
        return self.occupied.shape[1]

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Cell (ix, iy) containing a world point, clipped to the grid."""
        ix = min(max(int(x / self.cell), 0), self.cols - 1)
        iy = min(max(int(y / self.cell), 0), self.rows - 1)
        return (ix, iy)

    def center_of(self, ix: int, iy: int) -> tuple[float, float]:
        return ((ix + 0.5) * self.cell, (iy + 0.5) * self.cell)


def _window(lo: float, hi: float, cell: float) -> slice:
    """Cells whose centres lie in [lo, hi], with one more cell on each side.

    A centre outside the window is a whole cell beyond [lo, hi], so no
    rounding in an obstacle's test can bring it inside.
    """
    return slice(max(math.floor(lo / cell - 0.5), 0), max(math.floor(hi / cell - 0.5) + 2, 0))


def rasterize(world: WorldSpec, cell: float) -> OccupancyGrid:
    """Rasterise a world to an inflated occupancy grid of round(side / cell) cells
    (at least two) along each side."""
    _check_cell(cell)
    r = world.robot_radius
    cols = max(2, round(world.width / cell))
    rows = max(2, round(world.height / cell))
    # every cell test is separable: x terms on a (1, cols) row of cell-centre
    # x values, y terms on a (rows, 1) column, broadcast into (rows, cols)
    gx = ((np.arange(cols) + 0.5) * cell)[None, :]
    gy = ((np.arange(rows) + 0.5) * cell)[:, None]
    occ = (gx < r) | (gx > world.width - r) | (gy < r) | (gy > world.height - r)
    for ob in world.obstacles:
        # an obstacle can only mark cells of its bounding box inflated by r
        if isinstance(ob, Rect):
            sx = _window(ob.x_min - r, ob.x_max + r, cell)
            sy = _window(ob.y_min - r, ob.y_max + r, cell)
            x, y = gx[:, sx], gy[sy]
            dx = np.maximum(np.maximum(ob.x_min - x, x - ob.x_max), 0.0)
            dy = np.maximum(np.maximum(ob.y_min - y, y - ob.y_max), 0.0)
            occ[sy, sx] |= dx * dx + dy * dy < r * r
        else:
            assert isinstance(ob, Circle)
            reach = ob.r + r
            sx = _window(ob.cx - reach, ob.cx + reach, cell)
            sy = _window(ob.cy - reach, ob.cy + reach, cell)
            occ[sy, sx] |= (gx[:, sx] - ob.cx) ** 2 + (gy[sy] - ob.cy) ** 2 < reach ** 2
    occ.flags.writeable = False
    return OccupancyGrid(occupied=occ, cell=cell)


def _octile(ix: int, iy: int, gx: int, gy: int) -> float:
    dx = abs(ix - gx)
    dy = abs(iy - gy)
    lo = min(dx, dy)
    return (dx + dy - 2 * lo) + SQRT2 * lo


def astar_path(
    grid: OccupancyGrid, start: tuple[int, int], goal: tuple[int, int]
) -> tuple[float, list[tuple[int, int]]]:
    """A* over the grid; returns (length in metres, cell path) or (inf, []).

    Runs until no open node can beat the best goal cost, so the returned
    length is the exact minimum over float-accumulated step costs.
    """
    cell = grid.cell
    rows, cols = grid.occupied.shape
    for name, (ix, iy) in (("start", start), ("goal", goal)):
        if not (0 <= ix < cols and 0 <= iy < rows):
            raise UsageError(f"{name} cell {(ix, iy)} outside grid {cols} x {rows}")
        if grid.occupied[iy, ix]:
            raise UsageError(f"{name} cell {(ix, iy)} is occupied")
    if start == goal:
        return (0.0, [start])

    # Flat row-major state over the grid padded by one blocked cell on every
    # side: cell (ix, iy) is index (iy + 1) * stride + ix + 1, and a move off
    # the grid lands on a blocked cell.
    stride = cols + 2
    blocked = np.pad(grid.occupied, 1, constant_values=True).tobytes()
    g = [math.inf] * len(blocked)
    parent = [-1] * len(blocked)
    # (index offset, dx, dy, step cost in cells)
    moves = [(dy * stride + dx, dx, dy, SQRT2 if dx and dy else 1.0)
             for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    gx, gy = goal
    g[(start[1] + 1) * stride + start[0] + 1] = 0.0
    heap: list[tuple[float, float, int, int]] = [(_octile(start[0], start[1], gx, gy), 0.0, start[0], start[1])]
    best = math.inf
    while heap:
        f, gc, ix, iy = heapq.heappop(heap)
        if f >= best:
            break
        i = (iy + 1) * stride + ix + 1
        if gc > g[i]:
            continue  # stale entry
        if ix == gx and iy == gy:
            best = gc
            continue
        for offset, dx, dy, step in moves:
            n = i + offset
            if blocked[n]:
                continue
            if dx and dy and (blocked[i + dx] or blocked[n - dx]):
                continue  # no corner cutting
            g2 = gc + step
            if g2 < g[n]:
                g[n] = g2
                parent[n] = i
                nx, ny = ix + dx, iy + dy
                # _octile(nx, ny, gx, gy), inlined: this push is the hottest line
                hx = nx - gx if nx > gx else gx - nx
                hy = ny - gy if ny > gy else gy - ny
                lo = hx if hx < hy else hy
                heapq.heappush(heap, (g2 + ((hx + hy - 2 * lo) + SQRT2 * lo), g2, nx, ny))
    if not math.isfinite(best):
        return (math.inf, [])
    path = [goal]
    node = goal
    while node != start:
        enc = parent[(node[1] + 1) * stride + node[0] + 1]
        node = (enc % stride - 1, enc // stride - 1)
        path.append(node)
    path.reverse()
    return (best * cell, path)


def astar_shortest(grid: OccupancyGrid, start: tuple[int, int], goal: tuple[int, int]) -> float:
    """Shortest 8-connected path length in metres, inf when unreachable."""
    return astar_path(grid, start, goal)[0]


def connected(grid: OccupancyGrid, cells: Sequence[tuple[int, int]]) -> bool:
    """True when all the given free cells lie in one 4-connected component.

    This is astar_path's reachability without a search. A diagonal move needs
    both orthogonal neighbours free, so it splits into two 4-connected moves,
    and the cells A* can reach are exactly the start's 4-connected component.
    A* is complete, so astar_shortest(grid, s, g) is finite exactly when
    connected(grid, (s, g)). Components come from one pass over the runs of
    free cells in each row: runs of adjacent rows whose columns overlap are
    joined in a union-find (Rosenfeld & Pfaltz 1966).
    """
    rows, cols = grid.occupied.shape
    for ix, iy in cells:
        if not (0 <= ix < cols and 0 <= iy < rows) or grid.occupied[iy, ix]:
            raise UsageError(f"cell {(ix, iy)} is outside grid {cols} x {rows} or occupied")
    # runs are the changes of the flattened free mask, each row padded by an
    # occupied column and the whole led by one: run k covers flat indices
    # start[k]:end[k], where cell (ix, iy) is iy * stride + ix
    stride = cols + 1
    free = np.zeros(rows * stride + 1, bool)
    np.logical_not(grid.occupied, out=free[1:].reshape(rows, stride)[:, :cols])
    changes = np.flatnonzero(free[1:] != free[:-1])
    start, end = changes[::2], changes[1::2]
    # run k overlaps exactly the runs lo[k]:hi[k] of the next row
    lo = np.searchsorted(end, start + stride, "right").tolist()
    hi = np.searchsorted(start, end + stride).tolist()
    root = list(range(len(lo)))
    for k, (a, b) in enumerate(zip(lo, hi)):
        while root[k] != k:  # find k's root, halving its path
            root[k] = k = root[root[k]]
        for j in range(a, b):
            while root[j] != j:
                root[j] = j = root[root[j]]
            root[j] = k
    start = start.tolist()
    labels = set()
    for ix, iy in cells:
        k = bisect.bisect_right(start, iy * stride + ix) - 1
        while root[k] != k:
            k = root[k]
        labels.add(k)
    return len(labels) <= 1


def nearest_free_cell(grid: OccupancyGrid, ix: int, iy: int, radius: int = 3) -> tuple[int, int]:
    """The given cell, or the closest free cell within a small window.

    A pose can be collision-free while the centre of its cell sits inside
    the inflated set; snapping keeps the planner usable at coarse
    resolutions.
    """
    if not grid.occupied[iy, ix]:
        return (ix, iy)
    best = None
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            nx, ny = ix + dx, iy + dy
            if 0 <= nx < grid.cols and 0 <= ny < grid.rows and not grid.occupied[ny, nx]:
                d = dx * dx + dy * dy
                if best is None or d < best[0]:
                    best = (d, nx, ny)
    if best is None:
        raise UsageError(f"no free cell near ({ix}, {iy}) within {radius} cells")
    return (best[1], best[2])


def _check_cell(cell: float) -> None:
    if not 0.0 < cell < math.inf:
        raise ConfigurationError(f"cell size must be positive and finite, got {cell}")


def planner_grid(world: WorldSpec, cell: float) -> OccupancyGrid:
    """The world's planner grid at this cell size, rasterised once per (world, cell).

    Cached on the world, so it can only ever answer for that world.
    """
    grid = world._planner.get(cell)
    if grid is None:
        grid = world._planner[cell] = rasterize(world, cell)
    return grid


class ShortestPathOracle:
    """Shortest-path lengths on each world's planner grid at one cell size.

    Grids and A* lengths are cached on the world (see planner_grid); the
    oracle only fixes the cell. Query endpoints snap to the nearest free
    cell within a few cells.
    """

    def __init__(self, cell: float = 0.05) -> None:
        _check_cell(cell)
        self.cell = cell

    def shortest(self, world: WorldSpec, start_xy, goal_xy) -> float:
        grid = planner_grid(world, self.cell)
        s = nearest_free_cell(grid, *grid.cell_of(*start_xy))
        g = nearest_free_cell(grid, *grid.cell_of(*goal_xy))
        key = (self.cell, s, g)
        length = world._planner.get(key)
        if length is None:
            length = world._planner[key] = astar_shortest(grid, s, g)
        return length
