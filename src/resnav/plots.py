"""Deterministic SVG figures, written without a plotting dependency.

Three figures cover the workflow: an arena map with the driven path, a
per-step decomposition of the turn command into prior and correction,
and cross-seed training curves. Output is plain SVG with fixed-precision
coordinates so that rewriting the same data gives identical bytes.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigurationError, UsageError
from .fileio import write_atomically
from .rollout import TrajectoryRow
from .td3 import TrainLogRow
from .world import Rect, Shape, WorldSpec

_ARENA_STROKE = "#333333"
_OBSTACLE_FILL = "#9aa0a6"
_START_FILL = "#dbeedd"
_GOAL_FILL = "#f3d9d9"
_PLANNER_STROKE = "#2a7de1"
_HYBRID_STROKE = "#d62728"
_FALLBACK_STROKE = "#2ca02c"
_PRIOR_BAR = "#7f7f7f"
_RESIDUAL_BAR = "#1f77b4"
_EPSILON_STROKE = "#9467bd"
_MEAN_STROKE = "#1f77b4"
_BAND_FILL = "#aec7e8"
_EVAL_STROKE = "#2ca02c"
_EVAL_BAND_FILL = "#b5e0b5"


def _f(x: float) -> str:
    return f"{x:.2f}"


class _Svg:
    def __init__(self, width: float, height: float) -> None:
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
            f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">'
        ]

    def rect(self, x, y, w, h, fill="none", stroke="none", stroke_width=1.0, opacity=None) -> None:
        op = f' fill-opacity="{_f(opacity)}"' if opacity is not None else ""
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{_f(stroke_width)}"{op}/>'
        )

    def circle(self, cx, cy, r, fill="none", stroke="none", stroke_width=1.0) -> None:
        self.parts.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{_f(stroke_width)}"/>'
        )

    def line(self, x1, y1, x2, y2, stroke, stroke_width=1.0, dash=None) -> None:
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{_f(stroke_width)}"{d}/>'
        )

    def polyline(self, points, stroke, stroke_width=1.5, dash=None) -> None:
        d = f' stroke-dasharray="{dash}"' if dash else ""
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_f(stroke_width)}"{d}/>'
        )

    def polygon(self, points, fill, opacity=0.5) -> None:
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        self.parts.append(f'<polygon points="{pts}" fill="{fill}" fill-opacity="{_f(opacity)}"/>')

    def text(self, x, y, s, size=11, anchor="start", fill="#333333") -> None:
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="monospace" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{fill}">{s}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _write(svg: _Svg, path: str | Path | None) -> str:
    text = svg.render()
    if path is not None:
        write_atomically(path, text)
    return text


class _MapProjection:
    """World metres to canvas pixels, y flipped."""

    def __init__(self, world: WorldSpec, canvas: float = 600.0, margin: float = 30.0) -> None:
        self.margin = margin
        self.scale = (canvas - 2 * margin) / max(world.width, world.height)
        self.height_px = world.height * self.scale + 2 * margin
        self.width_px = world.width * self.scale + 2 * margin

    def to_canvas(self, x: float, y: float) -> tuple[float, float]:
        return (self.margin + x * self.scale, self.height_px - self.margin - y * self.scale)


def _draw_shape(svg: _Svg, proj: _MapProjection, shape: Shape, fill: str) -> None:
    if isinstance(shape, Rect):
        x, y = proj.to_canvas(shape.x_min, shape.y_max)
        svg.rect(x, y, (shape.x_max - shape.x_min) * proj.scale,
                 (shape.y_max - shape.y_min) * proj.scale, fill=fill)
    else:
        x, y = proj.to_canvas(shape.cx, shape.cy)
        svg.circle(x, y, shape.r * proj.scale, fill=fill)


def _draw_world(svg: _Svg, proj: _MapProjection, world: WorldSpec) -> None:
    x0, y0 = proj.to_canvas(0.0, world.height)
    svg.rect(x0, y0, world.width * proj.scale, world.height * proj.scale,
             fill="#ffffff", stroke=_ARENA_STROKE, stroke_width=2.0)
    _draw_shape(svg, proj, world.start_region, _START_FILL)
    _draw_shape(svg, proj, world.goal_region, _GOAL_FILL)
    for ob in world.obstacles:
        _draw_shape(svg, proj, ob, _OBSTACLE_FILL)


def plot_trajectory(
    rows: list[TrajectoryRow],
    world: WorldSpec,
    path: str | Path | None = None,
    planner: list[tuple[float, float]] | None = None,
    goal: tuple[float, float] | None = None,
    goal_radius: float | None = None,
) -> str:
    """Arena map with the driven path; prior-fallback steps drawn apart.

    Steps executed by the uncertainty gate's fallback are drawn in a second
    colour so switching behaviour is visible along the route.
    """
    if len(rows) < 2:
        raise UsageError("trajectory plot needs a start row and at least one step")
    proj = _MapProjection(world)
    svg = _Svg(proj.width_px, proj.height_px)
    _draw_world(svg, proj, world)
    if planner:
        svg.polyline([proj.to_canvas(x, y) for x, y in planner], _PLANNER_STROKE,
                     stroke_width=1.5, dash="6 4")
    # split the path into runs of equal switching state so each segment
    # keeps its own colour
    segments: list[tuple[bool, list[tuple[float, float]]]] = []
    for prev, cur in zip(rows, rows[1:]):
        fallback = bool(cur.used_prior_only)
        p0 = proj.to_canvas(prev.x, prev.y)
        p1 = proj.to_canvas(cur.x, cur.y)
        if segments and segments[-1][0] == fallback:
            segments[-1][1].append(p1)
        else:
            segments.append((fallback, [p0, p1]))
    for fallback, pts in segments:
        svg.polyline(pts, _FALLBACK_STROKE if fallback else _HYBRID_STROKE, stroke_width=2.0)
    sx, sy = proj.to_canvas(rows[0].x, rows[0].y)
    svg.circle(sx, sy, 4.0, fill="#000000")
    if goal is not None:
        gx, gy = proj.to_canvas(goal[0], goal[1])
        svg.circle(gx, gy, 3.0, fill=_HYBRID_STROKE)
        if goal_radius is not None:
            svg.circle(gx, gy, goal_radius * proj.scale, stroke=_HYBRID_STROKE)
    svg.text(proj.margin, 16.0, f"steps={len(rows) - 1}")
    return _write(svg, path)


def plot_components(rows: list[TrajectoryRow], path: str | Path | None = None) -> str:
    """Per-step turn command split into the prior's share and the applied
    correction, with the switching probability overlaid when present.

    The two bar pieces stack exactly to the executed command: the
    correction piece spans from the prior value to the executed value.
    """
    steps = [r for r in rows if r.t > 0]
    if not steps:
        raise UsageError("component plot needs at least one executed step")
    if any(r.omega_prior is None or r.omega_exec is None for r in steps):
        raise UsageError("component plot needs prior commands in the trajectory "
                         "(end-to-end runs have none)")
    width, height, margin = 640.0, 360.0, 40.0
    svg = _Svg(width, height)
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    # omega axis fixed to [-1, 1]: commands are clipped there by contract
    def sy(v: float) -> float:
        return margin + (1.0 - v) / 2.0 * plot_h

    def sx(i: int) -> float:
        return margin + (i / max(len(steps), 1)) * plot_w

    bar_w = max(plot_w / max(len(steps), 1) - 1.0, 0.5)
    svg.rect(margin, margin, plot_w, plot_h, fill="#ffffff", stroke=_ARENA_STROKE)
    svg.line(margin, sy(0.0), margin + plot_w, sy(0.0), "#bbbbbb")
    for i, r in enumerate(steps):
        x = sx(i)
        top = min(sy(0.0), sy(r.omega_prior))
        svg.rect(x, top, bar_w, abs(sy(r.omega_prior) - sy(0.0)), fill=_PRIOR_BAR)
        applied = r.omega_exec - r.omega_prior
        if applied != 0.0:
            top = min(sy(r.omega_prior), sy(r.omega_exec))
            svg.rect(x, top, bar_w, abs(sy(r.omega_exec) - sy(r.omega_prior)),
                     fill=_RESIDUAL_BAR)
    if all(r.epsilon is not None for r in steps):
        pts = [(sx(i) + bar_w / 2.0, margin + (1.0 - r.epsilon) * plot_h)
               for i, r in enumerate(steps)]
        svg.polyline(pts, _EPSILON_STROKE, stroke_width=1.5)
        svg.text(margin, 30.0, "switch probability in violet (scale 0..1)")
    svg.text(margin, 16.0, "turn command: prior share (grey), applied correction (blue)")
    svg.text(margin - 4, sy(1.0) + 4, "+1", anchor="end")
    svg.text(margin - 4, sy(-1.0) + 4, "-1", anchor="end")
    svg.text(margin - 4, sy(0.0) + 4, "0", anchor="end")
    return _write(svg, path)


def _band_and_mean(svg: _Svg, xs, values, to_x, to_y, band_fill, mean_stroke) -> None:
    """Mean of each x's values across runs, over a min-to-max band."""
    lows, highs = [min(v) for v in values], [max(v) for v in values]
    means = [sum(v) / len(v) for v in values]
    if len(xs) > 1 and any(h > l for h, l in zip(highs, lows)):
        upper = [(to_x(x), to_y(h)) for x, h in zip(xs, highs)]
        lower = [(to_x(x), to_y(l)) for x, l in zip(reversed(xs), reversed(lows))]
        svg.polygon(upper + lower, band_fill)
    svg.polyline([(to_x(x), to_y(m)) for x, m in zip(xs, means)], mean_stroke, stroke_width=1.8)


def plot_training(logs: list[list[TrainLogRow]], path: str | Path | None = None) -> str:
    """Cross-seed training curves: per-episode path length (mean with a
    min-to-max band) on top, greedy evaluation success below."""
    if not logs or any(not log for log in logs):
        raise UsageError("training plot needs at least one non-empty log")
    episodes = [row.episode for row in logs[0]]
    for log in logs[1:]:
        if [row.episode for row in log] != episodes:
            raise ConfigurationError("training logs cover different episode ranges")
    width, height, margin = 640.0, 480.0, 42.0
    panel_h = (height - 3 * margin) / 2.0
    svg = _Svg(width, height)
    plot_w = width - 2 * margin

    def x_of(ep: float) -> float:
        lo, hi = episodes[0], episodes[-1]
        span = (hi - lo) or 1
        return margin + (ep - lo) / span * plot_w

    lengths = [[log[i].path_length_m for log in logs] for i in range(len(episodes))]
    max_len = max(max(vals) for vals in lengths) or 1.0

    def y_top(v: float) -> float:
        return margin + (1.0 - v / max_len) * panel_h

    svg.rect(margin, margin, plot_w, panel_h, fill="#ffffff", stroke=_ARENA_STROKE)
    _band_and_mean(svg, episodes, lengths, x_of, y_top, _BAND_FILL, _MEAN_STROKE)
    svg.text(margin, margin - 8, "episode path length, m (mean and min..max across runs)")
    svg.text(margin - 4, y_top(max_len) + 4, _f(max_len), anchor="end")
    svg.text(margin - 4, y_top(0.0) + 4, "0", anchor="end")

    eval_eps = [row.episode for row in logs[0] if row.eval_success is not None]
    top2 = 2 * margin + panel_h

    def y_bot(v: float) -> float:
        return top2 + (1.0 - v) * panel_h

    svg.rect(margin, top2, plot_w, panel_h, fill="#ffffff", stroke=_ARENA_STROKE)
    if eval_eps:
        index = {row.episode: i for i, row in enumerate(logs[0])}
        succ = [[log[index[ep]].eval_success for log in logs] for ep in eval_eps]
        if any(s is None for vals in succ for s in vals):
            raise ConfigurationError("training logs disagree on evaluation episodes")
        _band_and_mean(svg, eval_eps, succ, x_of, y_bot, _EVAL_BAND_FILL, _EVAL_STROKE)
    svg.text(margin, top2 - 8, "greedy evaluation success rate")
    svg.text(margin - 4, y_bot(1.0) + 4, "1", anchor="end")
    svg.text(margin - 4, y_bot(0.0) + 4, "0", anchor="end")
    svg.text(margin, height - 10, f"episodes {episodes[0]}..{episodes[-1]}, {len(logs)} run(s)")
    return _write(svg, path)
