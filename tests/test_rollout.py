"""Tests for episode rollouts and trajectory file round-trips."""

import json
import math
import pickle
import re
import typing
from dataclasses import astuple, dataclass, fields, replace

import numpy as np
import pytest

from resnav import rollout
from resnav.env import (
    E2E_OBS_DIM, IDX_PREV_OMEGA, IDX_PREV_V, RESIDUAL_OBS_DIM, EpisodeConfig, NavEnv, SensorConfig, Terminal,
    prior_of,
)
from resnav.errors import ConfigurationError, UsageError
from resnav.evaluation import EpisodeMetrics, evaluate
from resnav.fileio import read_rows, write_rows
from resnav.nn import Mlp
from resnav.plots import plot_components
from resnav.policy import (
    CONTROLLERS, EndToEndPolicy, GatedResidualPolicy, PriorPolicy, RandomPolicy, controller_of, make_policy,
)
from resnav.rollout import (
    TrajectoryRow, drive, load_trajectory, meta_path_for, policy_rng, run_episode, save_trajectory,
)
from resnav.td3 import TrainLogRow

from conftest import make_cluttered_world, make_empty_world


def residual_env(world, max_steps=300):
    return NavEnv(world, episode=EpisodeConfig(max_steps=max_steps))


class TestRunEpisode:
    def test_prior_reaches_goal_in_the_open(self):
        env = residual_env(make_empty_world())
        record = run_episode(env, PriorPolicy(), seed=5)
        assert record.success
        assert record.terminal is Terminal.GOAL
        assert record.steps == len(record.rows) - 1
        assert record.rows[0].t == 0
        assert record.rows[0].v_exec is None and record.rows[0].reward is None
        assert record.rows[-1].reward == 1.0

    def test_sparse_return_is_gamma_power(self):
        env = residual_env(make_empty_world())
        record = run_episode(env, PriorPolicy(), seed=5)
        gamma = env.episode.gamma
        assert record.discounted_return == pytest.approx(gamma ** (record.steps - 1))

    def test_path_length_matches_the_rows(self):
        env = residual_env(make_empty_world())
        record = run_episode(env, PriorPolicy(), seed=8)
        total = 0.0
        for a, b in zip(record.rows, record.rows[1:]):
            total += math.hypot(b.x - a.x, b.y - a.y)
        assert record.path_length_m == pytest.approx(total, abs=1e-12)

    def test_same_seed_pairs_start_and_goal_across_controllers(self):
        world = make_empty_world()
        rec_res = run_episode(residual_env(world), PriorPolicy(), seed=21)
        actor = Mlp([E2E_OBS_DIM, 8, 2], "tanh", 0.0, rng=None)
        rec_e2e = run_episode(residual_env(world, max_steps=20), EndToEndPolicy(actor), seed=21)
        assert rec_res.start == rec_e2e.start
        assert rec_res.goal == rec_e2e.goal

    def test_end_to_end_rows_leave_the_prior_empty(self, tmp_path):
        # the prior's command is in every observation, but an end-to-end policy is not
        # driven by it, so run_episode leaves its prior columns empty and there is nothing to plot
        env = residual_env(make_cluttered_world(), max_steps=15)
        actor = Mlp([E2E_OBS_DIM, 8, 2], "tanh", 0.0, rng=np.random.default_rng(1))
        record = run_episode(env, EndToEndPolicy(actor), seed=4)
        assert record.steps >= 1
        for r in record.rows[1:]:
            assert r.v_prior is None and r.omega_prior is None
            assert r.v_exec is not None and r.omega_exec is not None
        path = tmp_path / "e2e.csv"
        save_trajectory(record, env, path)
        loaded, _world, _goal_radius = load_trajectory(path)
        with pytest.raises(UsageError, match="end-to-end runs have none"):
            plot_components(loaded.rows)

    def test_gated_rows_expose_the_decision(self):
        world = make_cluttered_world()
        actor = Mlp([21, 16, 16, 2], "tanh", 0.3, rng=np.random.default_rng(3))
        for w in actor.weights:
            w *= 10.0
        env = residual_env(world, max_steps=60)
        record = run_episode(env, GatedResidualPolicy(actor, n_passes=20), seed=2)
        decided = [r for r in record.rows if r.t > 0]
        assert all(r.epsilon is not None and r.used_prior_only is not None for r in decided)
        for r in decided:
            if r.used_prior_only:
                assert r.v_exec == r.v_prior and r.omega_exec == r.omega_prior
            else:
                assert r.v_exec == pytest.approx(
                    min(max(r.v_prior + r.mu_dv, -1.0), 1.0), abs=1e-12
                )
                assert r.omega_exec == pytest.approx(
                    min(max(r.omega_prior + r.mu_dw, -1.0), 1.0), abs=1e-12
                )
        assert any(r.used_prior_only for r in decided)
        assert any(not r.used_prior_only for r in decided)

    def test_random_policy_rows_leave_unused_fields_empty(self):
        env = residual_env(make_empty_world(), max_steps=15)
        record = run_episode(env, RandomPolicy(), seed=0)
        for r in record.rows[1:]:
            assert r.mu_dv is None and r.epsilon is None
            assert r.v_prior is not None  # the env still computes it

    def test_policy_rng_is_stable(self):
        a = policy_rng(7).uniform(size=4)
        b = policy_rng(7).uniform(size=4)
        assert np.array_equal(a, b)
        c = policy_rng(8).uniform(size=4)
        assert not np.array_equal(a, c)


def five_controllers() -> dict:
    """Every controller of the table, its networks seeded so that the gate both fires and holds."""
    actor = Mlp([RESIDUAL_OBS_DIM, 16, 16, 2], "tanh", 0.3, rng=np.random.default_rng(3))
    for w in actor.weights:
        w *= 10.0
    e2e = Mlp([E2E_OBS_DIM, 8, 2], "tanh", 0.0, rng=np.random.default_rng(1))
    actors = {"residual": actor, "gated": actor, "end_to_end": e2e}
    return {name: make_policy(name, actor=actors.get(name), n_passes=20) for name in CONTROLLERS}


def eager_rows(env: NavEnv, policy, seed: int) -> list[TrajectoryRow]:
    """The rows as run_episode built them while stepping, before they were built on demand."""
    records_prior = controller_of(policy)[1].records_prior
    rows = []
    for obs, out, result in drive(env, policy, seed):
        prior = prior_of(obs) if records_prior else None
        rows.append(TrajectoryRow(
            t=env.steps,
            x=env.pose.x, y=env.pose.y, theta=env.pose.theta,
            v_exec=float(result.observation[IDX_PREV_V]),
            omega_exec=float(result.observation[IDX_PREV_OMEGA]),
            v_prior=prior.v if prior is not None else None,
            omega_prior=prior.omega if prior is not None else None,
            mu_dv=float(out.residual_mean[0]) if out.residual_mean is not None else None,
            mu_dw=float(out.residual_mean[1]) if out.residual_mean is not None else None,
            var_dv=float(out.residual_variance[0]) if out.residual_variance is not None else None,
            var_dw=float(out.residual_variance[1]) if out.residual_variance is not None else None,
            epsilon=out.epsilon,
            used_prior_only=out.used_prior_only,
            reward=result.reward,
        ))
    start = env.start
    return [TrajectoryRow(t=0, x=start.x, y=start.y, theta=start.theta), *rows]


class TestRowsOnDemand:
    """run_episode keeps each step's objects; a record's rows are built when first read."""

    def test_evaluate_builds_no_row(self, monkeypatch):
        built = []

        def counted(**cells):
            built.append(cells["t"])
            return TrajectoryRow(**cells)

        monkeypatch.setattr(rollout, "TrajectoryRow", counted)
        result = evaluate([make_cluttered_world(), make_empty_world()], five_controllers(), n_episodes=4,
                          episode_config=EpisodeConfig(max_steps=40))
        assert sum(e.steps for res in result.results.values() for e in res.episodes) > 0
        assert built == []
        record = run_episode(residual_env(make_cluttered_world(), max_steps=10), PriorPolicy(), seed=1)
        assert built == []
        assert len(record.rows) == len(built) == record.steps + 1

    @pytest.mark.parametrize("name", list(CONTROLLERS))
    def test_rows_equal_the_eager_rows_field_for_field(self, name):
        policy = five_controllers()[name]
        for world, seed in ((make_cluttered_world(), 2), (make_empty_world(), 5)):
            want = eager_rows(residual_env(world, max_steps=60), policy, seed)
            record = run_episode(residual_env(world, max_steps=60), policy, seed)
            assert record.steps == len(want) - 1
            assert len(record.rows) == len(want)
            for got_row, want_row in zip(record.rows, want):
                for f in fields(TrajectoryRow):
                    got, expected = getattr(got_row, f.name), getattr(want_row, f.name)
                    assert type(got) is type(expected) and got == expected, (name, got_row.t, f.name)

    @pytest.mark.parametrize("read_first", [False, True])
    def test_record_pickles(self, read_first):
        policy = five_controllers()["gated"]
        record = run_episode(residual_env(make_cluttered_world(), max_steps=30), policy, seed=2)
        if read_first:
            assert len(record.rows) == record.steps + 1
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert copy.rows == record.rows
        assert copy.rows[-1].epsilon is not None


class TestTrajectoryFiles:
    def make_record(self, tmp_path, seed=3):
        env = residual_env(make_empty_world(), max_steps=40)
        record = run_episode(env, PriorPolicy(), seed=seed)
        path = tmp_path / "ep.csv"
        save_trajectory(record, env, path)
        return record, env, path

    def test_round_trip_preserves_rows(self, tmp_path):
        record, env, path = self.make_record(tmp_path)
        loaded, world, goal_radius = load_trajectory(path)
        assert loaded.rows == record.rows
        assert world == env.world
        assert loaded.mode == "prior"
        assert loaded.seed == 3
        assert loaded.success == record.success
        assert world.width == env.world.width
        assert loaded == record
        assert goal_radius == env.episode.d_threshold

    def test_rewrite_is_byte_identical(self, tmp_path):
        record, env, path = self.make_record(tmp_path)
        first = path.read_bytes()
        first_meta = meta_path_for(path).read_bytes()
        save_trajectory(record, env, path)
        assert path.read_bytes() == first
        assert meta_path_for(path).read_bytes() == first_meta

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n")
        with pytest.raises(ConfigurationError, match="header"):
            load_trajectory(p)

    def test_wrong_field_count_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(",".join(f.name for f in fields(TrajectoryRow)) + "\n1,2\n")
        with pytest.raises(ConfigurationError, match=":2"):
            load_trajectory(p)

    def test_non_consecutive_steps_rejected(self, tmp_path):
        record, env, path = self.make_record(tmp_path)
        lines = path.read_text().splitlines()
        del lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="consecutive"):
            load_trajectory(path)

    def test_missing_start_row_rejected(self, tmp_path):
        record, env, path = self.make_record(tmp_path)
        lines = path.read_text().splitlines()
        del lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="t=0"):
            load_trajectory(path)

    def test_missing_sidecar_rejected(self, tmp_path):
        record, env, path = self.make_record(tmp_path)
        meta_path_for(path).unlink()
        with pytest.raises(UsageError, match="sidecar"):
            load_trajectory(path)

    def test_malformed_sidecar_rejected(self, tmp_path):
        record, env, path = self.make_record(tmp_path)
        meta_path_for(path).write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_trajectory(path)

    @pytest.mark.parametrize("key", ["world", "start", "goal"])
    def test_sidecar_needs_the_keys_plots_read(self, tmp_path, key):
        record, env, path = self.make_record(tmp_path)
        meta_file = meta_path_for(path)
        meta = json.loads(meta_file.read_text())
        del meta[key]
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match=key):
            load_trajectory(path)

    @pytest.mark.parametrize("key,value", [
        ("start", "ab"), ("goal", 5), ("goal", [1.0]), ("start", [1.0, 2.0, 3.0]),
        ("start", [1.0, "x"]), ("goal", [True, 1.0]), ("goal", [1.0, 10**400]), ("goal_radius", "x"),
    ])
    def test_sidecar_start_and_goal_are_pairs_of_numbers(self, tmp_path, key, value):
        record, env, path = self.make_record(tmp_path)
        meta_file = meta_path_for(path)
        meta = json.loads(meta_file.read_text())
        meta[key] = value
        meta_file.write_text(json.dumps(meta))
        # start and goal are fields of the episode record, the goal radius is checked beside it
        where = "" if key == "goal_radius" else "episode: "
        with pytest.raises(ConfigurationError, match=f"meta.json: {where}{key}"):
            load_trajectory(path)

    @pytest.mark.parametrize("key, value", [
        ("steps", "x"), ("terminal", "crash"), ("success", 1), ("seed", None), ("bogus", 1),
    ])
    def test_sidecar_is_read_in_full(self, tmp_path, key, value):
        record, env, path = self.make_record(tmp_path)
        meta_file = meta_path_for(path)
        meta = json.loads(meta_file.read_text())
        meta[key] = value
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(str(meta_file))}: episode: .*\b{key}\b"):
            load_trajectory(path)

    @pytest.mark.parametrize("key, value", [("steps", 5), ("start", [0.5, 0.5])])
    def test_sidecar_must_match_the_csv(self, tmp_path, key, value):
        record, env, path = self.make_record(tmp_path)
        assert record.steps > 5 and record.start != (0.5, 0.5)
        meta_file = meta_path_for(path)
        meta = json.loads(meta_file.read_text())
        meta[key] = value
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(str(meta_file))}: episode: {key} is .*"
                                                     rf"{re.escape(str(path))}"):
            load_trajectory(path)

    def test_sidecar_format_checked(self, tmp_path):
        record, env, path = self.make_record(tmp_path)
        meta_file = meta_path_for(path)
        meta = json.loads(meta_file.read_text())
        meta["format"] = "traj/0"
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match="format"):
            load_trajectory(path)

    def test_bad_boolean_cell_reports_line(self, tmp_path):
        record, env, path = self.make_record(tmp_path)
        text = path.read_text().replace("true", "yes").replace("false", "no")
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="used_prior_only"):
            load_trajectory(path)


def cell_kinds(cls) -> dict[str, tuple[type, bool]]:
    """Field name -> (cell kind, may be empty), read off the row class's annotations."""
    kinds = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        kinds[name] = (next(a for a in args if a is not type(None)), True) if args else (hint, False)
    return kinds


def gated_rows() -> list[TrajectoryRow]:
    env = residual_env(make_cluttered_world(), max_steps=60)
    actor = Mlp([21, 16, 16, 2], "tanh", 0.3, rng=np.random.default_rng(3))
    for w in actor.weights:
        w *= 10.0  # so that the gate both fires and holds within the episode
    return run_episode(env, GatedResidualPolicy(actor, n_passes=20), seed=2).rows


# one table of each row class, holding empty (None), bool and int cells where the class has them
ROW_TABLES = {
    TrajectoryRow: gated_rows,
    TrainLogRow: lambda: [TrainLogRow(1, 30, 2.5, 0, 0.0), TrainLogRow(2, 12, 1.25, 1, 0.9**11, 0.5, 0.25)],
    EpisodeMetrics: lambda: [EpisodeMetrics("gated", 0, 7, 1, True, 12, 1.2, 3.5, 3.0, 3.0 / 3.5),
                             EpisodeMetrics("prior", 1, 8, 0, False, 300, 30.0, 9.1, 0.0, None)],
}


class TestRowCsv:
    """A row class is its CSV's schema: columns, cell kinds and which cells may be empty."""

    @pytest.mark.parametrize("cls", list(ROW_TABLES), ids=lambda c: c.__name__)
    def test_round_trip_keeps_every_cell_and_its_kind(self, tmp_path, cls):
        rows = ROW_TABLES[cls]()
        kinds = cell_kinds(cls)
        seen = {type(v) for row in rows for v in astuple(row)}
        assert type(None) in seen and int in seen
        assert bool in seen or bool not in {kind for kind, _ in kinds.values()}
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(first, cls, rows)
        read = read_rows(first, cls)
        assert read == rows
        for row in read:
            for name, (kind, optional) in kinds.items():
                value = getattr(row, name)
                assert type(value) is kind or (optional and value is None), (name, value)
        write_rows(second, cls, read)
        assert second.read_bytes() == first.read_bytes()

    def test_header_is_the_field_names_with_renamed_columns(self, tmp_path):
        path = tmp_path / "log.csv"
        write_rows(path, TrainLogRow, [])
        assert path.read_text().splitlines() == ["episode,steps,path_length_m,success,return,eval_success,eval_spl"]
        write_rows(path, TrajectoryRow, [])
        assert path.read_text().splitlines() == [",".join(f.name for f in fields(TrajectoryRow))]

    @pytest.mark.parametrize("cls", list(ROW_TABLES), ids=lambda c: c.__name__)
    def test_only_fields_that_admit_none_may_be_empty(self, tmp_path, cls):
        path = tmp_path / "x.csv"
        row = ROW_TABLES[cls]()[-1]
        for i, (name, (_kind, optional)) in enumerate(cell_kinds(cls).items()):
            write_rows(path, cls, [row])
            lines = path.read_text().splitlines()
            cells = lines[1].split(",")
            cells[i] = ""
            path.write_text("\n".join([lines[0], ",".join(cells)]) + "\n")
            if optional:
                assert read_rows(path, cls) == [replace(row, **{name: None})]
            else:
                with pytest.raises(ConfigurationError, match=f":2: missing {lines[0].split(',')[i]}$"):
                    read_rows(path, cls)

    def test_bad_boolean_names_the_column_and_line(self, tmp_path):
        @dataclass
        class Flagged:
            a: float
            flag: bool

        path = tmp_path / "x.csv"
        path.write_text("a,flag\n1.0,true\n2.0,maybe\n")
        with pytest.raises(ConfigurationError, match=":3: bad flag field 'maybe'"):
            read_rows(path, Flagged)

    def test_missing_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="absent.csv"):
            read_rows(tmp_path / "absent.csv", TrajectoryRow)
