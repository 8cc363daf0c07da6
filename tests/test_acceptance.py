"""Full-scale acceptance checks for the navigation stack.

Each test here verifies one advertised guarantee end to end and prints a
labelled PASS/FAIL line with the measured numbers.  Checks that need
trained policies share one set of desk-scale runs (ten trainings, then
three held-out evaluations, each set run two at a time in worker
processes).  While iterating locally you can point RESNAV_ACCEPTANCE_CACHE
at a directory to keep the runs between invocations; the official run
trains from scratch.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from resnav.env import (
    E2E_OBS_DIM,
    RESIDUAL_OBS_DIM,
    EpisodeConfig,
    NavEnv,
    SensorConfig,
)
from resnav.evaluation import evaluate
from resnav.fileio import read_rows
from resnav.grid import OccupancyGrid, ShortestPathOracle, astar_shortest
from resnav.nn import Adam, Mlp, load_checkpoint
from resnav.plots import plot_components, plot_trajectory, plot_training
from resnav.policy import (
    EndToEndPolicy,
    GatedResidualPolicy,
    PriorPolicy,
    RandomPolicy,
    ResidualPolicy,
    make_policy,
)
from resnav.prior import PriorParams
from resnav.rollout import policy_rng, run_episode, save_trajectory
from resnav.td3 import EVAL_SEED_OFFSET, Td3Config, TrainLogRow, train
from resnav.world import Circle, Pose, Rect, WorldSpec, point_clear, raycast_angles
from resnav.worldgen import WorldGenParams, generate_suite

# Frozen experiment: a 6 m arena with 3-5 obstacles, goal strip pulled one
# and a half metres off the far wall, and a deliberately cautious potential
# field (k_rep 0.15) that takes wide detours.  These numbers were tuned so
# that the prior solves most episodes inefficiently, leaving the learned
# residual real room to improve both success and path quality.
ARENA = WorldGenParams(
    width=6.0,
    height=6.0,
    n_obstacles_min=3,
    n_obstacles_max=5,
    goal_wall_offset=1.5,
    goal_strip_margin=1.2,
)
N_TRAIN_WORLDS = 10
N_HELDOUT_WORLDS = 5
TRAIN_SUITE_SEED = 1000
HELDOUT_SUITE_SEED = 2000

PRIOR = PriorParams(k_rep=0.15, d_influence=1.5)
EPISODE = EpisodeConfig()
SENSOR = SensorConfig()
DESK = Td3Config(
    hidden_sizes=(64, 64),
    batch_size=128,
    warmup_steps=3000,
    exploration_noise_sigma=0.2,
    total_episodes=600,
    eval_every=25,
    eval_episodes=20,
)
TRAIN_SEEDS = (0, 1, 2, 3, 4)
HELDOUT_EVAL_SEEDS = (0, 1, 2)
HELDOUT_EPISODES = 100
MC_PASSES = 100


def _line(msg: str) -> None:
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# shared desk-scale runs


@dataclass(frozen=True)
class TrainedRun:
    mode: str
    seed: int
    log: list
    actor_path: Path


@pytest.fixture(scope="session")
def train_suite():
    return generate_suite(ARENA, N_TRAIN_WORLDS, seed=TRAIN_SUITE_SEED)


@pytest.fixture(scope="session")
def heldout_suite():
    return generate_suite(ARENA, N_HELDOUT_WORLDS, seed=HELDOUT_SUITE_SEED)


# set in the environment a spawned worker starts from, before it imports numpy
_ONE_BLAS_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@contextlib.contextmanager
def _pinned_pool():
    """Up to two spawned worker processes, each started with one BLAS thread.

    A worker starts only when a task is submitted.
    """
    with mock.patch.dict(os.environ, _ONE_BLAS_THREAD), ProcessPoolExecutor(
        max_workers=min(2, os.cpu_count() or 1), mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        yield pool


# Every (mode, seed) run, longest first by the per-run times the fixture prints
# (2-core box, one BLAS thread): with the slowest runs started first, the last
# runs to start are short and the two workers finish close together.
_LONGEST_FIRST = (
    ("end_to_end", 1), ("end_to_end", 4), ("residual", 3), ("residual", 0), ("residual", 2),
    ("residual", 1), ("end_to_end", 3), ("residual", 4), ("end_to_end", 0), ("end_to_end", 2),
)


def _timed_train(*args, **kwargs) -> float:
    """Wall time of one train(*args, **kwargs) in the worker that runs it, in seconds."""
    t0 = time.perf_counter()
    train(*args, **kwargs)
    return time.perf_counter() - t0


@pytest.fixture(scope="session")
def trained_runs(train_suite, tmp_path_factory):
    cache = os.environ.get("RESNAV_ACCEPTANCE_CACHE")
    base = Path(cache) if cache else tmp_path_factory.mktemp("training")
    outs = {(mode, seed): base / f"{mode}_s{seed}"
            for mode in ("residual", "end_to_end") for seed in TRAIN_SEEDS}
    assert sorted(_LONGEST_FIRST) == sorted(outs)
    # The runs are independent and deterministic, so fresh worker processes
    # train them side by side with the same outputs.
    with _pinned_pool() as pool:
        futures = {
            (mode, seed): pool.submit(_timed_train, train_suite, mode, DESK, EPISODE, SENSOR, PRIOR,
                                      seed=seed, out_dir=outs[mode, seed])
            for mode, seed in _LONGEST_FIRST if not (outs[mode, seed] / "actor.ckpt").exists()
        }
        for (mode, seed), future in futures.items():
            _line(f"[acceptance] trained {mode} seed {seed} in {future.result():.1f}s")
    return {
        (mode, seed): TrainedRun(
            mode=mode,
            seed=seed,
            log=read_rows(out / "train_log.csv", TrainLogRow),
            actor_path=out / "actor.ckpt",
        )
        for (mode, seed), out in outs.items()
    }


def _evaluate_heldout(heldout_suite, residual_ckpt: Path, end_to_end_ckpt: Path, seed: int):
    """All five controllers on the held-out suite, with one training seed's actors."""
    res_actor, res_kind = load_checkpoint(residual_ckpt)
    e2e_actor, e2e_kind = load_checkpoint(end_to_end_ckpt)
    policies = {
        "prior": PriorPolicy(),
        "residual": make_policy(
            "residual", actor=res_actor, actor_kind=res_kind, n_passes=MC_PASSES
        ),
        "gated": make_policy(
            "gated", actor=res_actor, actor_kind=res_kind, n_passes=MC_PASSES
        ),
        "end_to_end": make_policy("end_to_end", actor=e2e_actor, actor_kind=e2e_kind),
        "random": RandomPolicy(),
    }
    return evaluate(
        heldout_suite,
        policies,
        n_episodes=HELDOUT_EPISODES,
        seed_base=seed * 100_000,
        episode_config=EPISODE,
        sensor_config=SENSOR,
        prior_params=PRIOR,
        oracle=ShortestPathOracle(cell=0.05),
    )


@pytest.fixture(scope="session")
def heldout_results(trained_runs, heldout_suite):
    """Per-training-seed evaluation of all five controllers on unseen worlds."""
    # independent and deterministic, so worker processes run them side by side
    with _pinned_pool() as pool:
        futures = {
            seed: pool.submit(_evaluate_heldout, heldout_suite, trained_runs[("residual", seed)].actor_path,
                              trained_runs[("end_to_end", seed)].actor_path, seed)
            for seed in HELDOUT_EVAL_SEEDS
        }
        return {seed: future.result() for seed, future in futures.items()}


def _residual_env(world) -> NavEnv:
    return NavEnv(world, episode=EPISODE, sensor=SENSOR, prior_params=PRIOR)


def _rows_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(
        ra.x == rb.x and ra.y == rb.y and ra.theta == rb.theta
        and ra.v_exec == rb.v_exec and ra.omega_exec == rb.omega_exec
        for ra, rb in zip(a, b)
    )


# ---------------------------------------------------------------------------
# numerics


def test_mlp_gradients_and_adam_match_references():
    """Backprop vs central differences on 100 random nets; Adam vs closed form."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(97)
    worst_rel = 0.0
    with_dropout = 0
    for _ in range(100):
        depth = int(rng.integers(1, 3))
        sizes = (
            [int(rng.integers(2, 6))]
            + [int(rng.integers(3, 9)) for _ in range(depth)]
            + [int(rng.integers(1, 4))]
        )
        activation = "tanh" if rng.random() < 0.5 else "identity"
        dropout_p = float(rng.choice([0.0, 0.2, 0.5]))
        net = Mlp(sizes, activation, dropout_p, rng=rng)
        batch = int(rng.integers(1, 4))
        loss_w = rng.normal(size=(batch, sizes[-1]))
        # Central differences are only valid away from ReLU kinks, so keep
        # redrawing the input until every pre-activation clears the
        # perturbation's reach by a wide margin.
        while True:
            x = rng.normal(size=(batch, sizes[0]))
            mask_seed = int(rng.integers(2**32))
            masks = net.draw_masks(batch, np.random.default_rng(mask_seed))
            hidden = x
            min_pre = math.inf
            for layer in range(net.n_hidden):
                pre = hidden @ net.weights[layer] + net.biases[layer]
                min_pre = min(min_pre, float(np.abs(pre).min()))
                hidden = np.maximum(pre, 0.0)
                if masks is not None:
                    hidden = hidden * masks[layer]
            if min_pre > 1e-3:
                break
        if masks is not None:
            with_dropout += 1
        _, trace = net.forward_trace(x, np.random.default_rng(mask_seed))
        gflat = np.empty_like(net.params)
        net.backward(trace, loss_w, out=gflat)
        h = 1e-6
        flat = net.params
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + h
            lp = float((net.forward(x, np.random.default_rng(mask_seed)) * loss_w).sum())
            flat[j] = saved - h
            lm = float((net.forward(x, np.random.default_rng(mask_seed)) * loss_w).sum())
            flat[j] = saved
            fd = (lp - lm) / (2.0 * h)
            rel = abs(fd - gflat[j]) / max(abs(fd), abs(gflat[j]), 1e-3)
            worst_rel = max(worst_rel, rel)

    worst_adam = 0.0
    for _ in range(50):
        g = float(rng.normal())
        theta0 = float(rng.normal())
        lr = float(rng.uniform(1e-4, 1e-1))
        param = np.array([theta0])
        Adam(param, lr=lr).step(param, np.array([g]))
        expected = theta0 - lr * g / (abs(g) + 1e-8)
        worst_adam = max(worst_adam, abs(float(param[0]) - expected))

    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-4 and worst_adam < 1e-10 and elapsed < 60.0
    _line(
        f"[acceptance] MLP gradients vs central differences (100 nets, {with_dropout} with "
        f"dropout): worst rel err {worst_rel:.2e}; Adam first-step err {worst_adam:.2e}; "
        f"{elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert with_dropout >= 30
    assert worst_rel < 1e-4
    assert worst_adam < 1e-10
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# geometric oracles


def _dijkstra_shortest(grid: OccupancyGrid, start, goal) -> float:
    """Plain Dijkstra over the same 8-connected, no-corner-cutting moves."""
    occ = grid.occupied
    rows, cols = occ.shape
    sqrt2 = math.sqrt(2.0)
    dist = np.full((rows, cols), np.inf)
    dist[start[1], start[0]] = 0.0
    heap = [(0.0, start[0], start[1])]
    while heap:
        d, ix, iy = heapq.heappop(heap)
        if d > dist[iy, ix]:
            continue
        if (ix, iy) == goal:
            return d * grid.cell
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
                    step = sqrt2
                else:
                    step = 1.0
                nd = d + step
                if nd < dist[ny, nx]:
                    dist[ny, nx] = nd
                    heapq.heappush(heap, (nd, nx, ny))
    return math.inf


def _march_ray(world: WorldSpec, x: float, y: float, angle: float, max_range: float) -> float:
    """1 mm ray marching: first sample blocked by an obstacle or the walls."""
    r = np.arange(0.0, max_range + 5e-4, 1e-3)
    px = x + r * math.cos(angle)
    py = y + r * math.sin(angle)
    blocked = (px < 0.0) | (px > world.width) | (py < 0.0) | (py > world.height)
    for ob in world.obstacles:
        if isinstance(ob, Rect):
            blocked |= (px >= ob.x_min) & (px <= ob.x_max) & (py >= ob.y_min) & (py <= ob.y_max)
        else:
            blocked |= (px - ob.cx) ** 2 + (py - ob.cy) ** 2 <= ob.r**2
    hits = np.nonzero(blocked)[0]
    return float(r[hits[0]]) if hits.size else max_range


def _random_scene(rng: np.random.Generator) -> tuple[WorldSpec, float, float]:
    width = float(rng.uniform(4.0, 8.0))
    height = float(rng.uniform(4.0, 8.0))
    obstacles = []
    for _ in range(int(rng.integers(1, 5))):
        cx = float(rng.uniform(0.2 * width, 0.8 * width))
        cy = float(rng.uniform(0.2 * height, 0.8 * height))
        if rng.random() < 0.5:
            w2 = float(rng.uniform(0.1, 0.5))
            h2 = float(rng.uniform(0.1, 0.5))
            obstacles.append(Rect(cx - w2, cy - h2, cx + w2, cy + h2))
        else:
            obstacles.append(Circle(cx, cy, float(rng.uniform(0.1, 0.5))))
    world = WorldSpec(
        width=width,
        height=height,
        robot_radius=0.1,
        obstacles=tuple(obstacles),
        start_region=Rect(0.01 * width, 0.01 * height, 0.05 * width, 0.05 * height),
        goal_region=Rect(0.95 * width, 0.95 * height, 0.99 * width, 0.99 * height),
    )
    while True:
        x = float(rng.uniform(0.1, width - 0.1))
        y = float(rng.uniform(0.1, height - 0.1))
        if point_clear(world, x, y, 0.05):
            return world, x, y


def test_planner_and_raycast_match_independent_references():
    """A* equals Dijkstra exactly on 100 grids; raycast vs 1 mm marching on 1000 scenes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(211)
    checked = 0
    while checked < 100:
        occ = rng.random((50, 50)) < float(rng.uniform(0.15, 0.35))
        free = np.argwhere(~occ)
        if free.shape[0] < 2:
            continue
        si, gi = rng.choice(free.shape[0], size=2, replace=False)
        start = (int(free[si][1]), int(free[si][0]))
        goal = (int(free[gi][1]), int(free[gi][0]))
        grid = OccupancyGrid(occupied=occ, cell=0.1)
        got = astar_shortest(grid, start, goal)
        want = _dijkstra_shortest(grid, start, goal)
        assert got == want or (math.isinf(got) and math.isinf(want)), (
            f"grid {checked}: astar {got!r} != dijkstra {want!r}"
        )
        checked += 1

    worst_mm = 0.0
    for _ in range(1000):
        world, x, y = _random_scene(rng)
        angles = rng.uniform(-math.pi, math.pi, size=12)
        analytic = raycast_angles(x, y, angles, 5.0, world)
        for angle, got in zip(angles, analytic):
            want = _march_ray(world, x, y, float(angle), 5.0)
            worst_mm = max(worst_mm, abs(float(got) - want) * 1e3)

    elapsed = time.perf_counter() - t0
    ok = worst_mm <= 2.0 and elapsed < 120.0
    _line(
        f"[acceptance] A* vs Dijkstra exact on 100 grids; raycast vs marching worst "
        f"|err| {worst_mm:.3f} mm over 1000 scenes; {elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert worst_mm <= 2.0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# switching behaviour


def test_gate_fallback_frequency_tracks_uncertainty(trained_runs, heldout_suite):
    """Fallback rate over 1e4 draws matches epsilon; epsilon stays in [0, 1]."""
    actor, kind = load_checkpoint(trained_runs[("residual", 0)].actor_path)
    gated = make_policy("gated", actor=actor, actor_kind=kind, n_passes=MC_PASSES)

    best_eps, best_obs = -1.0, None
    n_states = 0
    for i in range(10):
        env = _residual_env(heldout_suite[i % len(heldout_suite)])
        obs = env.reset(seed=EVAL_SEED_OFFSET + 31_000 + i)
        rng = policy_rng(31_000 + i)
        for _ in range(EPISODE.max_steps):
            out = gated.act(obs, rng)
            n_states += 1
            assert out.epsilon is not None and 0.0 <= out.epsilon <= 1.0
            if out.epsilon > best_eps:
                best_eps, best_obs = out.epsilon, obs.copy()  # the prior's command is in its slots
            result = env.step(out.action)
            obs = result.observation
            if result.terminal is not None:
                break

    draw_rng = np.random.default_rng(424242)
    fallbacks, eps_sum = 0, 0.0
    n_draws = 10_000
    for _ in range(n_draws):
        out = gated.act(best_obs, draw_rng)
        fallbacks += out.used_prior_only
        eps_sum += out.epsilon
    mean_eps = eps_sum / n_draws
    freq = fallbacks / n_draws
    three_sd = 3.0 * math.sqrt(max(mean_eps * (1.0 - mean_eps), 1e-12) / n_draws)

    # With dropout disabled the gate never fires and both policies walk the
    # same deterministic trajectory from a shared seed.
    plain = Mlp([RESIDUAL_OBS_DIM, 32, 32, 2], "tanh", 0.0, rng=np.random.default_rng(5))
    for w in plain.weights:
        w *= 8.0
    with pytest.warns(UserWarning):
        gated_plain = GatedResidualPolicy(plain, n_passes=16)
    residual_plain = ResidualPolicy(plain, n_passes=16)
    same = all(
        _rows_equal(
            run_episode(_residual_env(heldout_suite[0]), gated_plain, seed=EVAL_SEED_OFFSET + 55 + k).rows,
            run_episode(_residual_env(heldout_suite[0]), residual_plain, seed=EVAL_SEED_OFFSET + 55 + k).rows,
        )
        for k in range(3)
    )

    ok = abs(freq - mean_eps) <= three_sd and same
    _line(
        f"[acceptance] gate fallback stats: eps in [0,1] on {n_states} states; at the most "
        f"uncertain state freq {freq:.4f} vs eps {mean_eps:.4f} (3sd {three_sd:.4f}); "
        f"dropout-0 gated == residual: {same} -> {'PASS' if ok else 'FAIL'}"
    )
    assert abs(freq - mean_eps) <= three_sd
    assert same


def test_forced_gate_and_zero_residual_reduce_to_prior(trained_runs, heldout_suite):
    """eps == 1 and a zero-weight residual both replay the prior bitwise."""
    actor, kind = load_checkpoint(trained_runs[("residual", 0)].actor_path)
    assert kind == "residual"
    forced = GatedResidualPolicy(actor, n_passes=MC_PASSES, epsilon_override=1.0)
    zero = ResidualPolicy(Mlp([RESIDUAL_OBS_DIM, 64, 64, 2], "tanh", 0.2, rng=None), n_passes=16)

    forced_same, zero_same = True, True
    for k in range(3):
        seed = EVAL_SEED_OFFSET + 7_700 + k
        world = heldout_suite[k % len(heldout_suite)]
        base = run_episode(_residual_env(world), PriorPolicy(), seed=seed)
        forced_same &= _rows_equal(base.rows, run_episode(_residual_env(world), forced, seed=seed).rows)
        zero_same &= _rows_equal(base.rows, run_episode(_residual_env(world), zero, seed=seed).rows)

    ok = forced_same and zero_same
    _line(
        f"[acceptance] degenerate modes reduce to the prior bitwise: forced-gate {forced_same}, "
        f"zero-residual {zero_same} -> {'PASS' if ok else 'FAIL'}"
    )
    assert forced_same
    assert zero_same


# ---------------------------------------------------------------------------
# desk-scale training


def _first_crossing(log, level: float = 0.5):
    for row in log:
        if row.eval_success is not None and row.eval_success >= level:
            return row.episode
    return None


def test_desk_scale_training_learns_and_ranks_modes(trained_runs):
    """Residual reaches 0.9, crosses 0.5 sooner than end-to-end, varies less."""
    res_best = {
        s: max(r.eval_success for r in trained_runs[("residual", s)].log if r.eval_success is not None)
        for s in TRAIN_SEEDS
    }
    res_cross = {s: _first_crossing(trained_runs[("residual", s)].log) for s in TRAIN_SEEDS}
    e2e_cross = {s: _first_crossing(trained_runs[("end_to_end", s)].log) for s in TRAIN_SEEDS}
    faster = sum(
        (res_cross[s] or 10**9) < (e2e_cross[s] if e2e_cross[s] is not None else 10**9)
        for s in TRAIN_SEEDS
    )

    def final_eval(log):
        return [r.eval_success for r in log if r.eval_success is not None][-1]

    res_final = [final_eval(trained_runs[("residual", s)].log) for s in TRAIN_SEEDS]
    e2e_final = [final_eval(trained_runs[("end_to_end", s)].log) for s in TRAIN_SEEDS]
    res_var = float(np.var(res_final))
    e2e_var = float(np.var(e2e_final))

    ok = all(b >= 0.9 for b in res_best.values()) and faster >= 4 and e2e_var > res_var
    _line(
        f"[acceptance] desk-scale training: residual best eval per seed "
        f"{[round(b, 2) for b in res_best.values()]} (all >= 0.9); crossings residual "
        f"{list(res_cross.values())} vs end-to-end {list(e2e_cross.values())} "
        f"(faster on {faster}/5); final-success variance end-to-end {e2e_var:.4f} > "
        f"residual {res_var:.4f} -> {'PASS' if ok else 'FAIL'}"
    )
    assert all(b >= 0.9 for b in res_best.values())
    assert faster >= 4
    assert e2e_var > res_var


# ---------------------------------------------------------------------------
# held-out orderings


def test_heldout_controller_orderings_hold(heldout_results, tmp_path_factory):
    """Gated beats prior on success and SPL, beats end-to-end on success;
    random stays under 0.1 success while burning nearly the whole timeout."""
    seeds = list(HELDOUT_EVAL_SEEDS)
    succ = {c: [heldout_results[s][c].success_rate for s in seeds]
            for c in ("prior", "gated", "end_to_end", "random")}
    spl = {c: [heldout_results[s][c].spl for s in seeds] for c in ("prior", "gated")}
    random_act = [heldout_results[s]["random"].mean_actuation_s for s in seeds]

    orderings = [
        ("success gated >= prior", succ["gated"], succ["prior"]),
        ("spl gated >= prior", spl["gated"], spl["prior"]),
        ("success gated >= end_to_end", succ["gated"], succ["end_to_end"]),
    ]
    waivers = []
    failures = []
    summary = []
    for name, better, worse in orderings:
        diffs = [b - w for b, w in zip(better, worse)]
        mean_diff = float(np.mean(diffs))
        se = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
        summary.append(f"{name}: {mean_diff:+.4f} (se {se:.4f})")
        if mean_diff >= 0.0:
            continue
        if abs(mean_diff) <= se:
            waivers.append({"ordering": name, "mean_diff": mean_diff,
                            "standard_error": se, "per_seed_diffs": diffs})
        else:
            failures.append(name)

    if waivers:
        waiver_path = tmp_path_factory.mktemp("waivers") / "ordering_waivers.json"
        waiver_path.write_text(json.dumps(waivers, indent=2, sort_keys=True) + "\n")
        _line(f"[acceptance] ordering waivers (inversions within one standard error) "
              f"written to {waiver_path}: {waivers}")

    mean_random_succ = float(np.mean(succ["random"]))
    mean_random_act = float(np.mean(random_act))
    timeout_s = EPISODE.max_steps * EPISODE.dt
    random_ok = mean_random_succ <= 0.1 and abs(mean_random_act - timeout_s) <= 0.05 * timeout_s

    ok = not failures and random_ok
    _line(
        f"[acceptance] held-out orderings over seeds {seeds}: {'; '.join(summary)}; "
        f"random success {mean_random_succ:.3f} at {mean_random_act:.2f}s of {timeout_s:.0f}s "
        f"timeout; waived: {len(waivers)} -> {'PASS' if ok else 'FAIL'}"
    )
    assert not failures, f"orderings inverted beyond one standard error: {failures}"
    assert mean_random_succ <= 0.1
    assert abs(mean_random_act - timeout_s) <= 0.05 * timeout_s


# ---------------------------------------------------------------------------
# reward contract


def test_reward_is_sparse_and_spl_bounded(trained_runs, heldout_results, heldout_suite):
    """Episode rewards are exactly 0 or 1, SPL terms live in [0, 1], and an
    all-failure controller scores an SPL of exactly zero."""
    gamma = EPISODE.gamma
    for (mode, seed), run in trained_runs.items():
        for row in run.log:
            if row.success:
                assert math.isclose(row.ret, gamma ** (row.steps - 1), rel_tol=1e-9), (
                    f"{mode} s{seed} ep {row.episode}: return {row.ret} does not match "
                    f"a single terminal reward"
                )
            else:
                assert row.ret == 0.0

    n_terms = 0
    for result in heldout_results.values():
        for label in ("prior", "residual", "gated", "end_to_end", "random"):
            for ep in result[label].episodes:
                assert ep.spl_term is not None and 0.0 <= ep.spl_term <= 1.0
                n_terms += 1

    actor, kind = load_checkpoint(trained_runs[("residual", 0)].actor_path)
    sums_ok = True
    for k, policy in enumerate(
        (PriorPolicy(), RandomPolicy(),
         make_policy("gated", actor=actor, actor_kind=kind, n_passes=MC_PASSES))
    ):
        for i in range(4):
            env = _residual_env(heldout_suite[(k + i) % len(heldout_suite)])
            rec = run_episode(env, policy, seed=EVAL_SEED_OFFSET + 9_000 + 10 * k + i)
            total = sum(row.reward for row in rec.rows[1:])
            sums_ok &= total in (0.0, 1.0) and total == float(rec.success)

    inert = EndToEndPolicy(Mlp([E2E_OBS_DIM, 16, 2], "tanh", 0.0, rng=None))
    fail_result = evaluate(
        heldout_suite[:1],
        {"inert": inert},
        n_episodes=20,
        seed_base=4_321,
        episode_config=EPISODE,
        sensor_config=SENSOR,
        prior_params=PRIOR,
        oracle=ShortestPathOracle(cell=0.1),
    )
    all_fail = fail_result["inert"]

    ok = sums_ok and all_fail.success_rate == 0.0 and all_fail.spl == 0.0
    _line(
        f"[acceptance] sparse-reward contract: per-step sums in {{0,1}} on 12 episodes; "
        f"{n_terms} SPL terms in [0,1]; all-failure suite SPL {all_fail.spl!r} "
        f"(success {all_fail.success_rate}) -> {'PASS' if ok else 'FAIL'}"
    )
    assert sums_ok
    assert all_fail.success_rate == 0.0
    assert all_fail.spl == 0.0


# ---------------------------------------------------------------------------
# reproducibility


def test_pipeline_rerun_is_byte_identical(train_suite, tmp_path):
    """Train -> eval -> plot twice with one config; every artifact matches."""
    tiny = Td3Config(
        hidden_sizes=(16, 16),
        batch_size=32,
        warmup_steps=200,
        buffer_capacity=20_000,
        exploration_noise_sigma=0.2,
        total_episodes=40,
        eval_every=20,
        eval_episodes=4,
    )
    artifacts = (
        "train_log.csv",
        "actor.ckpt",
        "report.txt",
        "episodes.csv",
        "episode.csv",
        "episode.meta.json",
        "trajectory.svg",
        "components.svg",
        "training.svg",
    )

    def pipeline(out_dir: Path) -> None:
        result = train(
            train_suite[:2], "residual", tiny, EPISODE, SENSOR, PRIOR, seed=7, out_dir=out_dir,
            oracle=ShortestPathOracle(cell=0.1),
        )
        actor, kind = load_checkpoint(result.checkpoint_path)
        gated = make_policy("gated", actor=actor, actor_kind=kind, n_passes=16)
        eval_result = evaluate(
            train_suite[:2],
            {"prior": PriorPolicy(), "gated": gated, "random": RandomPolicy()},
            n_episodes=10,
            seed_base=50,
            episode_config=EPISODE,
            sensor_config=SENSOR,
            prior_params=PRIOR,
            oracle=ShortestPathOracle(cell=0.1),
        )
        (out_dir / "report.txt").write_text(eval_result.report())
        eval_result.write_episode_csv(out_dir / "episodes.csv")
        env = _residual_env(train_suite[0])
        record = run_episode(env, gated, seed=EVAL_SEED_OFFSET + 123)
        save_trajectory(record, env, out_dir / "episode.csv")
        plot_trajectory(
            record.rows,
            env.world,
            out_dir / "trajectory.svg",
            goal=record.goal,
            goal_radius=EPISODE.d_threshold,
        )
        plot_components(record.rows, out_dir / "components.svg")
        plot_training([result.log], out_dir / "training.svg")

    first, second = tmp_path / "first", tmp_path / "second"
    pipeline(first)
    pipeline(second)
    mismatched = [
        name for name in artifacts
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
    ok = not mismatched
    _line(
        f"[acceptance] pipeline rerun: {len(artifacts)} artifacts compared byte-for-byte, "
        f"mismatched: {mismatched or 'none'} -> {'PASS' if ok else 'FAIL'}"
    )
    assert not mismatched


def _cpu_features() -> str:
    """The CPU features numpy dispatches its SIMD kernels on, sorted, one line."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__  # numpy 2.x
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__  # numpy 1.x
    return " ".join(sorted(name for name, on in __cpu_features__.items() if on))


def platform_fingerprint() -> str:
    """numpy's version, its BLAS and the CPU features numpy dispatches on, as one line.

    Trained bytes depend on how the BLAS tiles its products and on which of
    numpy's SIMD kernels run, so recorded digests hold for one fingerprint.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except TypeError:  # numpy < 1.26 only prints its config
        blas = "unknown"
    return f"numpy {np.__version__}; blas {blas}; cpu {_cpu_features()}"


def numpy_fingerprint() -> str:
    """numpy's version and the CPU features it dispatches on: the key of artifacts that run no matrix product."""
    return f"numpy {np.__version__}; cpu {_cpu_features()}"


# numpy 2.4.6's dispatch CPU features on the one recorded platform, a Sapphire Rapids class x86-64
_AVX512_SPR = (
    "AVX AVX2 AVX512BF16 AVX512BITALG AVX512BW AVX512CD AVX512DQ AVX512F "
    "AVX512FP16 AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512VL AVX512VNNI "
    "AVX512VPOPCNTDQ AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SKX "
    "AVX512_SPR BMI BMI2 CX16 F16C FMA3 GFNI LAHF LZCNT MMX MOVBE POPCNT "
    "SSE SSE2 SSE3 SSE41 SSE42 SSSE3 VAES VPCLMULQDQ X86_V2 X86_V3 X86_V4"
)

# Full SHA-256 of each acceptance run's (actor.ckpt, train_log.csv), by the platform that
# trained them. A deliberate change of trained output records its new digests here.
RUN_DIGESTS = {
    f"numpy 2.4.6; blas scipy-openblas 0.3.31.188.0; cpu {_AVX512_SPR}": {
        ("end_to_end", 0): ("1ae99605bf7a04f13a164d629b07bf3a55a394fc2165770b6a3f2f95ef394a61",
                            "f85b11dfa6a240c0376d4392410c4df927751613ecd0993cd80389a949c50237"),
        ("end_to_end", 1): ("ceb912cbb8bfb93653da787cbc8de885713ceb201c92c4515d19117d8d535bc6",
                            "f3d43d9b88ac923ccc59d2d319f50ae3c28baf84daca5fa6f2d0228f9694706f"),
        ("end_to_end", 2): ("595bc533b9edaef085c845927737abdfa115170153340ec483b5641eb8168199",
                            "50106c7c47838a064a388569725f8a88e5ef198affe618dd565d6469d31edc79"),
        ("end_to_end", 3): ("3c78176a0942a147925092e6e612d313da9d4e6e432561e64d9e506306189e05",
                            "6e1bf040339cdc83ade146bd21ff99633365fd6f3f3a50d8cddc267724624ba1"),
        ("end_to_end", 4): ("b11b21ad3320a9547d852fea6e6226c05253ad4b23d59b69171a65b19d702d73",
                            "876a9383c6c343cd2f8ba2406cdcf23503cb6f76e2fc09619bd25f7946722a9a"),
        ("residual", 0): ("6aa24e0de5a7f210f59aa593e30158cc3df0e282f2a9b746f31c506ba3368fa2",
                          "89761f6f3b04fd29eb8bcb0f8f9e4f0ff84b89f77a3d10f909a02d1906617812"),
        ("residual", 1): ("d721e6ab0f26c481f4f9105ad198e97123e1b4999dae346fb8314f43889f6570",
                          "3bb69de1f314641f94c1e3395539213aa885e9aa770d6194f57f486c5b9f09b4"),
        ("residual", 2): ("47415df84fb655681fe6d9aa52653b2f0f247f4a8c4d064d1144b70ca318ca0b",
                          "339b9a07814347ae43c33d0cf5c57888a9102a71d0b8ba02211bde46a13ee7d9"),
        ("residual", 3): ("c023ae7b8c1f51c1885f11fdc60ed97f91b68dd2b3e66d25bfa426427488d660",
                          "88d46fae7d3443f322f9217eec2ee130d45ebe78ce5034ccf6b26603d0b77176"),
        ("residual", 4): ("5d1e2bfc3e177c328acce40c2e5098a373b61a3febee4584d4534ce48febad68",
                          "491898c218830611d9b1e74a5dd81653cb89907634984647a784f57a7afd3859"),
    },
}


def test_trained_runs_match_their_recorded_digests(trained_runs):
    """The ten acceptance runs' files, bit for bit, on a platform with recorded digests."""
    fingerprint = platform_fingerprint()
    if fingerprint not in RUN_DIGESTS:
        pytest.skip(f"no run digests recorded for this platform: {fingerprint}")
    digests = {
        key: tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (run.actor_path, run.actor_path.with_name("train_log.csv")))
        for key, run in trained_runs.items()
    }
    changed = sorted(key for key in digests if digests[key] != RUN_DIGESTS[fingerprint][key])
    _line(f"[acceptance] run digests: {len(digests)} runs compared, changed: {changed or 'none'} "
          f"-> {'PASS' if not changed else 'FAIL'}")
    assert digests == RUN_DIGESTS[fingerprint]


# ---------------------------------------------------------------------------
# controller artifacts, bit for bit


_DIGEST_PASSES = 8
_DIGEST_EPISODES = 6
_DIGEST_ROLLOUT_SEEDS = (0, 1)


def _digest_actor(n_in: int, seed: int) -> Mlp:
    """A seeded, untrained 16x16 actor with dropout 0.2, its output layer scaled up
    so that its correction moves the robot and the gate's variance is large enough to fire."""
    actor = Mlp([n_in, 16, 16, 2], "tanh", 0.2, rng=np.random.default_rng(seed))
    actor.weights[-1][...] *= 300.0
    return actor


def _digest_controllers() -> dict:
    residual = _digest_actor(RESIDUAL_OBS_DIM, 21)
    return {
        "prior": PriorPolicy(),
        "residual": ResidualPolicy(residual, n_passes=_DIGEST_PASSES),
        "gated": GatedResidualPolicy(residual, n_passes=_DIGEST_PASSES),
        "end_to_end": EndToEndPolicy(_digest_actor(E2E_OBS_DIM, 19)),
        "random": RandomPolicy(),
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rollout_digests(heldout_suite, names, out: Path) -> dict:
    """(controller, seed) -> SHA-256 of the trajectory CSV and its sidecar, for each named controller.

    Episode seed i runs on held-out world i from reset seed EVAL_SEED_OFFSET + i.
    """
    controllers = _digest_controllers()
    digests = {}
    for name in names:
        for i in _DIGEST_ROLLOUT_SEEDS:
            env = _residual_env(heldout_suite[i])
            path = out / f"{name}_{i}.csv"
            save_trajectory(run_episode(env, controllers[name], EVAL_SEED_OFFSET + i), env, path)
            digests[name, i] = (_sha256(path), _sha256(path.with_suffix(".meta.json")))
    return digests


def _evaluate_digest(heldout_suite, out: Path) -> str:
    """SHA-256 of episodes.csv from all five controllers on three held-out worlds."""
    result = evaluate(heldout_suite[:3], _digest_controllers(), _DIGEST_EPISODES, seed_base=0,
                      episode_config=EPISODE, sensor_config=SENSOR, prior_params=PRIOR,
                      oracle=ShortestPathOracle(cell=0.1))
    result.write_episode_csv(out / "episodes.csv")
    return _sha256(out / "episodes.csv")


# SHA-256 of the prior and random controllers' rollout files, by numpy_fingerprint(): they
# run no matrix product, so the BLAS does not enter. A deliberate change of their output
# records its new digests here.
PLAIN_DIGESTS = {
    f"numpy 2.4.6; cpu {_AVX512_SPR}": {
        ("prior", 0): ("24ede1d106afbc1131bc87271e0fa61b2f2717f26686df68f4e73fc1a5fde4ad",
                       "43bc1b1afec47ac8d67c7403ed19bc4f9ec2313efb48889fd68720a618d6f951"),
        ("prior", 1): ("72b5fae6e28f98d4b3883917462fc553a442a8d13ec718d1b7321f70a63db651",
                       "c33e365c4833015253bd427fa55ee46e761a2112980fe94e265f6657f5a10d74"),
        ("random", 0): ("4499ff401c158b87e2a72b0beaf2ccb6d2c1ca4584c82fecec00cb6094bf5ee7",
                        "97b4ee993c470b540974c93ffabd8067780e407baa8fb7c97ca9d7d3300129eb"),
        ("random", 1): ("7d43d7eba1f07decc776f589f05e89b983f01679ab6bc0595447cd040efa091f",
                        "560dfd32d60e5109516f9a9367c5dd3bd85c1ae9fe9a01f85b1863eab7bf547d"),
    },
}

# SHA-256 of the network controllers' rollout files and of the five-controller
# episodes.csv, by platform_fingerprint(). A deliberate change of their output records
# its new digests here.
NETWORK_DIGESTS = {
    f"numpy 2.4.6; blas scipy-openblas 0.3.31.188.0; cpu {_AVX512_SPR}": {
        "episodes.csv": "c3d573736e1bed46b3bb48c4f6c8247439425337d475fb665cdbabe17a5c21e7",
        ("residual", 0): ("a630abf2c1b5db82e27a014b8ce024dc959e5026144c7d27a3a4cb34a7eb85cb",
                          "cbaa050142e290efa5c3954f2ff4dcea047f9e676e64b198d4d704e047c1aa48"),
        ("residual", 1): ("3b57bab6e9192bc352582a9c9b2e7971a78ff48f22a6cd64a17187cfeb168998",
                          "f5e5d2281e4c048bb6bca786d93b452783f4d73f3362a8bc74b0493a28a04c3a"),
        ("gated", 0): ("ece87192149858c628c6ddd4e4b6eb63730653f77b98caf1f03075da820747a8",
                       "a395029040f10cc45aa76a8de32ab5e2cf65d8a49c6dbf8d7abfd9153d580655"),
        ("gated", 1): ("327508f286cee1ebc82459bd9b3e86810e1077f11963606b87f5e81cd46c9c78",
                       "3ae44e922e5ab239f8836fc53d33ca9543ac3e581bf4286285166d177065c126"),
        ("end_to_end", 0): ("810a67e242675d7551cb74b92498f1a3a6a70e2d89a2c636265781d87f00c926",
                            "b48ad3f612fd8c0acae8f82e806a59dde5f6921855707b85a906becb839d13a5"),
        ("end_to_end", 1): ("8c4dc122f4ee36cd37b50de0b61648395e97154071ec20428dc2238ed8f5d06e",
                            "0dc21656fffe5c4ea21b7237598a3ca6b6fe1f6094d7830fb264e260ea0a9ed9"),
    },
}


def test_prior_and_random_artifacts_match_their_recorded_digests(heldout_suite, tmp_path):
    """The prior and random controllers' rollout CSVs and sidecars, bit for bit."""
    key = numpy_fingerprint()
    if key not in PLAIN_DIGESTS:
        pytest.skip(f"no prior/random digests recorded for this numpy: {key}")
    digests = _rollout_digests(heldout_suite, ("prior", "random"), tmp_path)
    changed = sorted(k for k in digests if digests[k] != PLAIN_DIGESTS[key][k])
    _line(f"[acceptance] prior/random digests: {len(digests)} rollouts compared, changed: "
          f"{changed or 'none'} -> {'PASS' if not changed else 'FAIL'}")
    assert digests == PLAIN_DIGESTS[key]


def test_network_controller_artifacts_match_their_recorded_digests(heldout_suite, tmp_path):
    """The residual, gated and end-to-end rollouts and the five-controller episodes.csv, bit for bit."""
    key = platform_fingerprint()
    if key not in NETWORK_DIGESTS:
        pytest.skip(f"no network-controller digests recorded for this platform: {key}")
    digests = _rollout_digests(heldout_suite, ("residual", "gated", "end_to_end"), tmp_path)
    digests["episodes.csv"] = _evaluate_digest(heldout_suite, tmp_path)
    changed = sorted(map(str, (k for k in digests if digests[k] != NETWORK_DIGESTS[key][k])))
    _line(f"[acceptance] network-controller digests: {len(digests)} artifacts compared, changed: "
          f"{changed or 'none'} -> {'PASS' if not changed else 'FAIL'}")
    assert digests == NETWORK_DIGESTS[key]
