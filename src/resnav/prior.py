"""Potential-field reactive controller used as the hand-designed prior.

The controller sums a unit attraction toward the goal with per-beam
repulsion from every scan return closer than d_influence, all in the robot
frame, then steers along the resultant. It sees only the current scan and
the goal bearing, so it is memoryless and rotation-equivariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import bounded, check_fields
from .world import beam_angles


@dataclass(frozen=True)
class Action:
    """A velocity command: linear v in m/s, angular omega in rad/s."""

    v: float
    omega: float


@dataclass(frozen=True)
class PriorParams:
    k_att: float = bounded(1.0, gt=0.0)  # attraction gain (unit goal vector scale)
    k_rep: float = bounded(0.012, gt=0.0)  # per-beam repulsion gain
    d_influence: float = bounded(1.5, gt=0.0)  # m, beams farther than this are ignored
    k_omega: float = bounded(2.0, gt=0.0)  # bearing-to-turn-rate gain
    v_max: float = bounded(1.0, gt=0.0)  # m/s

    def __post_init__(self) -> None:
        check_fields(self)


@cache
def _beam_directions(n_rays: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of beam_angles(n_rays), built once per ray count; shared read-only arrays."""
    angles = beam_angles(n_rays)
    directions = (np.cos(angles), np.sin(angles))
    for d in directions:
        d.flags.writeable = False
    return directions


def prior_command(ranges: np.ndarray, angle_to_goal: float, params: PriorParams) -> Action:
    """Compute the prior's command from raw scan ranges and the goal bearing.

    ranges[i] is the return of beam beam_angles(len(ranges))[i]. Repulsion
    per beam with range d < d_influence has magnitude
    k_rep * (1/d - 1/d_influence) / d**2 and points back along the beam.
    The command is v = clip(v_max * max(0, cos(b)), 0, 1) and
    omega = clip(k_omega * b, -1, 1) where b is the resultant bearing. The
    attraction term is deliberately distance-independent.
    """
    fx = params.k_att * math.cos(angle_to_goal)
    fy = params.k_att * math.sin(angle_to_goal)

    near = ranges < params.d_influence
    if near.any():
        rn = ranges[near]
        mag = params.k_rep * (1.0 / rn - 1.0 / params.d_influence) / (rn * rn)
        cos_b, sin_b = _beam_directions(len(ranges))
        fx -= float(np.dot(mag, cos_b[near]))
        fy -= float(np.dot(mag, sin_b[near]))

    bearing = math.atan2(fy, fx)
    omega = min(max(params.k_omega * bearing, -1.0), 1.0)
    v = min(max(params.v_max * max(0.0, math.cos(bearing)), 0.0), 1.0)
    return Action(v, omega)


def compose_hybrid(prior_action: Action, residual) -> Action:
    """Executed command: prior plus residual, clipped per dimension to [-1, 1]."""
    r = np.asarray(residual, dtype=np.float64)
    return Action(
        min(max(prior_action.v + float(r[0]), -1.0), 1.0),
        min(max(prior_action.omega + float(r[1]), -1.0), 1.0),
    )
