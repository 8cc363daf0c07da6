"""Span tracing of resnav's layers, patched in from outside the package.

Nothing under src/ knows about tracing. The tracer replaces each layer's
public function with a recording wrapper at every name that code looks up
at call time: the defining module, and every module that copied the name
in with ``from ... import``. BINDINGS lists those sites; check_bindings()
compares the list with what the imported modules actually hold, so a
refactor that moves a call site fails the run instead of blanking a layer.
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
from time import perf_counter_ns

# layer -> (defining module, attribute, modules that bind it by `from ... import`).
# An attribute "Cls.meth" is patched on the class, which every caller shares.
BINDINGS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "world.scan": ("resnav.world", "scan", ("resnav", "resnav.env")),
    "world.raycast_angles": ("resnav.world", "raycast_angles", ()),
    "prior.prior_command": ("resnav.prior", "prior_command", ("resnav", "resnav.env")),
    "env.NavEnv.step": ("resnav.env", "NavEnv.step", ()),
    "env.NavEnv.reset": ("resnav.env", "NavEnv.reset", ()),
    "nn.mc_statistics": ("resnav.nn", "mc_statistics", ("resnav", "resnav.policy")),
    "nn.Mlp.draw_masks": ("resnav.nn", "Mlp.draw_masks", ()),
    "nn.Mlp.forward": ("resnav.nn", "Mlp.forward", ()),
    "nn.Mlp.forward_trace": ("resnav.nn", "Mlp.forward_trace", ()),
    "nn.Mlp.backward": ("resnav.nn", "Mlp.backward", ()),
    "nn.Adam.step": ("resnav.nn", "Adam.step", ()),
    "nn.polyak_update": ("resnav.nn", "polyak_update", ("resnav.td3",)),
    "td3.train": ("resnav.td3", "train", ("resnav", "resnav.cli")),
    "td3.critic_update": ("resnav.td3", "critic_update", ()),
    "td3.actor_update": ("resnav.td3", "actor_update", ()),
    "td3.ReplayBuffer.add": ("resnav.td3", "ReplayBuffer.add", ()),
    "td3.ReplayBuffer.sample": ("resnav.td3", "ReplayBuffer.sample", ()),
    "td3.greedy_episode": ("resnav.td3", "greedy_episode", ()),
    "policy.GatedResidualPolicy.act": ("resnav.policy", "GatedResidualPolicy.act", ()),
    "policy.PriorPolicy.act": ("resnav.policy", "PriorPolicy.act", ()),
    "grid.ShortestPathOracle.shortest": ("resnav.grid", "ShortestPathOracle.shortest", ()),
    "grid.astar_shortest": ("resnav.grid", "astar_shortest", ("resnav",)),
    "grid.rasterize": ("resnav.grid", "rasterize", ("resnav",)),
    "worldgen.generate_suite": ("resnav.worldgen", "generate_suite", ("resnav", "resnav.cli")),
    "rollout.run_episode": ("resnav.rollout", "run_episode", ("resnav", "resnav.cli", "resnav.evaluation")),
    "evaluation.evaluate": ("resnav.evaluation", "evaluate", ("resnav", "resnav.cli")),
}

# Layers whose single calls are per control step or per update; these also
# get latency percentiles. "control_loop" is policy act plus the NavEnv.step
# that executes its action.
PER_STEP = (
    "world.scan", "world.raycast_angles", "prior.prior_command", "env.NavEnv.step",
    "nn.mc_statistics", "nn.Mlp.draw_masks", "policy.GatedResidualPolicy.act",
    "policy.PriorPolicy.act", "td3.critic_update", "td3.actor_update",
)
CONTROL_LOOP = "control_loop"
_ACTS = ("policy.GatedResidualPolicy.act", "policy.PriorPolicy.act")

# Layers that start a new span group: one id per episode and one per update.
_GROUP_STARTS = ("env.NavEnv.reset", "td3.critic_update")

# Per-layer counters read from a call's arguments or result.
_COUNTERS = {
    "nn.mc_statistics": lambda args, kwargs, out: ("passes", kwargs.get("n_passes", args[2] if len(args) > 2 else 0)),
    "policy.GatedResidualPolicy.act": lambda args, kwargs, out: ("prior_only", int(bool(out.used_prior_only))),
}


def _resolve(module, attr: str):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def import_package(package: str = "resnav") -> None:
    """Import every submodule, so that check_bindings sees all call sites."""
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        importlib.import_module(info.name)


def check_bindings() -> list[str]:
    """Differences between BINDINGS and the names the modules really hold."""
    import sys

    problems = []
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == "resnav" or name.startswith("resnav."))}
    for layer, (mod_name, attr, sites) in BINDINGS.items():
        owner, name = _resolve(modules[mod_name], attr)
        fn = getattr(owner, name, None)
        if not callable(fn):
            problems.append(f"{layer}: {mod_name}.{attr} is gone")
            continue
        if "." in attr:
            continue
        found = {m for m, mod in modules.items() if m != mod_name and vars(mod).get(name) is fn}
        aliased = [f"{m}.{k}" for m, mod in modules.items() for k, v in vars(mod).items()
                   if v is fn and k != name]
        if found != set(sites):
            problems.append(f"{layer}: bound in {sorted(found)}, table lists {sorted(sites)}")
        if aliased:
            problems.append(f"{layer}: bound under other names {aliased}")
    return problems


class Tracer:
    """Records spans (layer, start_ns, end_ns, parent, group) in memory.

    group is one id per episode (bumped by NavEnv.reset) or per update
    (bumped by td3.critic_update); spans started later carry it.
    """

    def __init__(self) -> None:
        self.layers = list(BINDINGS) + [CONTROL_LOOP]
        self.spans: list[list[int]] = []
        self.counts: dict[tuple[str, str], int] = {}
        self._stack: list[int] = []
        self._group = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        layer_id = self.layers.index(layer)
        spans = self.spans
        stack = self._stack
        counter = _COUNTERS.get(layer)
        new_group = layer in _GROUP_STARTS
        tracer = self

        def traced(*args, **kwargs):
            if new_group:
                tracer._group += 1
            span = [layer_id, 0, 0, stack[-1] if stack else -1, tracer._group]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                key, n = counter(args, kwargs, out)
                tracer.counts[(layer, key)] = tracer.counts.get((layer, key), 0) + n
            return out

        return traced

    def install(self) -> None:
        import sys

        for layer, (mod_name, attr, sites) in BINDINGS.items():
            owner, name = _resolve(sys.modules[mod_name], attr)
            original = getattr(owner, name)
            wrapper = self._wrap(layer, original)
            targets = [owner] if "." in attr else [owner] + [sys.modules[s] for s in sites]
            # a listed site that no longer holds the function is left alone;
            # check_bindings reports it
            for target in targets:
                if getattr(target, name, None) is original:
                    self._saved.append((target, name, original))
                    setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._saved):
            setattr(target, name, original)
        self._saved.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def unit_summary(self, root_layer: str) -> dict:
        """Per-layer calls, total and self time, and durations, for the spans so far.

        root_wall_ns is the summed duration of root_layer's spans, the traced
        counterpart of an untraced repetition's wall time.
        """
        n_layers = len(self.layers)
        calls = [0] * n_layers
        total = [0] * n_layers
        selfs = [0] * n_layers
        child = [0] * len(self.spans)
        durations: dict[int, list[int]] = {}
        for _layer_id, t0, t1, parent, _group in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (layer_id, t0, t1, _parent, _group) in enumerate(self.spans):
            d = t1 - t0
            calls[layer_id] += 1
            total[layer_id] += d
            selfs[layer_id] += d - child[i]
            durations.setdefault(layer_id, []).append(d)
        # control loop: an act span and the NavEnv.step span right after it,
        # both under the same run_episode span
        act_ids = {self.layers.index(a) for a in _ACTS}
        step_id = self.layers.index("env.NavEnv.step")
        loop = []
        pending = None
        for layer_id, t0, t1, parent, _group in self.spans:
            if layer_id in act_ids:
                pending = (parent, t1 - t0)
            elif layer_id == step_id and pending is not None and pending[0] == parent:
                loop.append(pending[1] + t1 - t0)
                pending = None
        loop_id = self.layers.index(CONTROL_LOOP)
        if loop:
            calls[loop_id] = len(loop)
            total[loop_id] = sum(loop)
            durations[loop_id] = loop
        return {
            "calls": dict(zip(self.layers, calls)),
            "total_ns": dict(zip(self.layers, total)),
            "self_ns": dict(zip(self.layers, selfs)),
            "durations_ns": {self.layers[k]: v for k, v in durations.items()},
            "counts": {f"{layer}.{key}": n for (layer, key), n in self.counts.items()},
            "root_wall_ns": total[self.layers.index(root_layer)],
        }


def empty_unit() -> dict:
    """A unit summary with no calls, for runs where tracing never completed."""
    zeros = dict.fromkeys(list(BINDINGS) + [CONTROL_LOOP], 0)
    return {"calls": zeros, "total_ns": zeros, "self_ns": zeros, "durations_ns": {},
            "counts": {}, "root_wall_ns": 0}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return float(ordered[k])


def layer_metrics(units: list[dict], untraced_wall_s: list[float]) -> dict[str, float]:
    """Per-layer metrics from traced units (set-up plus one repetition each).

    Counts come from the first unit (they repeat exactly, which
    self_test checks); times are medians over units; latency
    percentiles pool every call of every unit. untraced_wall_s[i] is the
    wall time of the untraced repetition run just before unit i.
    """
    first = units[0]
    out: dict[str, float] = {}
    for layer in BINDINGS:
        out[f"{layer}.calls"] = float(first["calls"][layer])
        out[f"{layer}.total_s"] = statistics.median(u["total_ns"][layer] for u in units) / 1e9
        out[f"{layer}.self_s"] = statistics.median(u["self_ns"][layer] for u in units) / 1e9
    for layer in PER_STEP + (CONTROL_LOOP,):
        pooled = [d for u in units for d in u["durations_ns"].get(layer, ())]
        out[f"{layer}.p50_us"] = percentile(pooled, 50) / 1e3
        out[f"{layer}.p99_us"] = percentile(pooled, 99) / 1e3
    calls = first["calls"]
    out["nn.mc_statistics.passes"] = float(first["counts"].get("nn.mc_statistics.passes", 0))
    steps = calls["env.NavEnv.step"]
    out["td3.updates_per_env_step"] = calls["td3.critic_update"] / steps if steps else 0.0
    acts = calls["policy.GatedResidualPolicy.act"]
    fired = first["counts"].get("policy.GatedResidualPolicy.act.prior_only", 0)
    out["policy.gate_fire_frac"] = fired / acts if acts else 0.0
    queries = calls["grid.ShortestPathOracle.shortest"]
    out["grid.oracle.hit_frac"] = 1.0 - calls["grid.astar_shortest"] / queries if queries else 0.0
    ratios = [u["root_wall_ns"] / 1e9 / w for u, w in zip(units, untraced_wall_s) if w]
    out["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    return out


def self_test(units: list[dict], active: frozenset[str]) -> list[str]:
    """Layers that ran where they should be bypassed, or not where they should run.

    Also flags call counts that differ between units, which would mean
    the repetitions did not do the same work.
    """
    problems = []
    calls = units[0]["calls"]
    for layer in BINDINGS:
        if layer in active and calls[layer] == 0:
            problems.append(f"{layer}: zero calls on a workload where it should run")
        elif layer not in active and calls[layer] != 0:
            problems.append(f"{layer}: {calls[layer]} calls on a workload that should bypass it")
    for u in units[1:]:
        if u["calls"] != calls:
            diff = sorted(k for k in calls if u["calls"][k] != calls[k])
            problems.append(f"call counts differ between traced repetitions: {diff}")
            break
    return problems
