"""Point-goal navigation with a potential-field prior and a learned residual.

The package bundles a 2D kinematic simulator with a planar lidar, an
artificial-potential-field controller, TD3 training of a residual (or
end-to-end) actor on a sparse goal reward, an uncertainty gate that falls
back to the prior when Monte-Carlo dropout disagrees with itself, and an
evaluation harness reporting success rate, SPL against an A* oracle, and
actuation time. Import the submodules (resnav.env, resnav.td3, ...); the
names below are the layer entry points perfbench/tracer.py also patches here.
"""

from .evaluation import evaluate
from .grid import astar_shortest, rasterize
from .nn import mc_statistics
from .prior import prior_command
from .rollout import run_episode
from .td3 import train
from .world import scan
from .worldgen import generate_suite
