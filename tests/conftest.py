"""Shared fixtures: small hand-built worlds used across test modules."""

from __future__ import annotations

import numpy as np
import pytest

from resnav.nn import Mlp, Trace
from resnav.world import Circle, Rect, WorldSpec


def param_grad(net: Mlp, trace: Trace, upstream: np.ndarray) -> np.ndarray:
    """Parameter gradient vector of net.backward for one trace, in a fresh buffer."""
    grad = np.empty_like(net.params)
    net.backward(trace, upstream, out=grad)
    return grad


# Largest error of a float32 result against the float64 result of the same
# parameters and inputs, relative to the float64 result's largest magnitude.
# Fixed before the comparisons were first run; a prototype of the float32
# learner measured at most 5.5e-7 on 20 critics (23 -> 64 -> 64 -> 1, batch 128).
FLOAT32_AGREEMENT = 1e-5


def narrowed(net: Mlp) -> Mlp:
    """A float32 copy of a network, made as Td3Nets.from_networks narrows the learner's."""
    return net.with_params(net.params.astype(np.float32))


def relative_error(narrow, wide) -> float:
    """max |narrow - wide| / max |wide|, for a float32 result and its float64 counterpart."""
    assert np.asarray(narrow).dtype == np.float32 and np.asarray(wide).dtype == np.float64
    return float(np.max(np.abs(narrow - wide)) / np.max(np.abs(wide)))


def make_empty_world(side: float = 10.0, robot_radius: float = 0.15) -> WorldSpec:
    return WorldSpec(
        width=side,
        height=side,
        robot_radius=robot_radius,
        obstacles=(),
        start_region=Rect(0.2 * side, 0.2 * side, 0.35 * side, 0.8 * side),
        goal_region=Rect(0.65 * side, 0.2 * side, 0.8 * side, 0.8 * side),
    )


def make_cluttered_world() -> WorldSpec:
    """8x8 arena with a central start box, right-side goal strip, mixed obstacles."""
    return WorldSpec(
        width=8.0,
        height=8.0,
        robot_radius=0.15,
        obstacles=(
            Rect(5.2, 1.2, 5.9, 2.1),
            Rect(5.3, 5.6, 6.0, 6.3),
            Circle(5.7, 3.9, 0.35),
            Circle(2.0, 6.0, 0.3),
            Rect(1.4, 1.5, 2.1, 2.2),
        ),
        start_region=Rect(3.55, 3.55, 4.45, 4.45),
        goal_region=Rect(6.8, 1.0, 7.3, 7.0),
    )


@pytest.fixture
def empty_world() -> WorldSpec:
    return make_empty_world()


@pytest.fixture
def cluttered_world() -> WorldSpec:
    return make_cluttered_world()
