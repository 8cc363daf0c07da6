"""Tests for episode rollouts and trajectory file round-trips."""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest

from resnav.env import E2E_OBS_DIM, EpisodeConfig, NavEnv, SensorConfig, Terminal
from resnav.errors import ConfigurationError, UsageError
from resnav.nn import Mlp
from resnav.plots import plot_components
from resnav.policy import EndToEndPolicy, GatedResidualPolicy, PriorPolicy, RandomPolicy
from resnav.rollout import (
    TRAJ_COLUMNS,
    load_trajectory,
    meta_path_for,
    policy_rng,
    read_csv,
    run_episode,
    save_trajectory,
    write_csv,
)
from resnav.td3 import TRAIN_LOG_COLUMNS, TrainLogRow

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
        rows, _meta, _world = load_trajectory(path)
        with pytest.raises(UsageError, match="end-to-end runs have none"):
            plot_components(rows)

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


class TestTrajectoryFiles:
    def make_record(self, tmp_path, seed=3):
        env = residual_env(make_empty_world(), max_steps=40)
        record = run_episode(env, PriorPolicy(), seed=seed)
        path = tmp_path / "ep.csv"
        save_trajectory(record, env, path)
        return record, env, path

    def test_round_trip_preserves_rows(self, tmp_path):
        record, env, path = self.make_record(tmp_path)
        rows, meta, world = load_trajectory(path)
        assert rows == record.rows
        assert world == env.world
        assert meta["mode"] == "prior"
        assert meta["seed"] == 3
        assert meta["success"] == record.success
        assert meta["world"]["width"] == env.world.width

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
        p.write_text(",".join(TRAJ_COLUMNS) + "\n1,2\n")
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
        with pytest.raises(ConfigurationError, match=f"meta.json: {key}"):
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


class TestReadCsv:
    def test_round_trips_both_file_kinds(self, tmp_path):
        env = residual_env(make_cluttered_world(), max_steps=60)
        actor = Mlp([21, 16, 16, 2], "tanh", 0.3, rng=np.random.default_rng(3))
        record = run_episode(env, GatedResidualPolicy(actor, n_passes=20), seed=2)
        log = [TrainLogRow(1, 30, 2.5, 0, 0.0), TrainLogRow(2, 12, 1.25, 1, 0.9**11, 0.5, 0.25)]
        for columns, types, rows in (
            (TRAJ_COLUMNS, {"t": int, "used_prior_only": bool}, [astuple(r) for r in record.rows]),
            (TRAIN_LOG_COLUMNS, {"episode": int, "steps": int, "success": int}, [astuple(r) for r in log]),
        ):
            first, second = tmp_path / "a.csv", tmp_path / "b.csv"
            write_csv(first, columns, rows)
            read = read_csv(first, columns, types)
            assert read == rows
            assert [type(v) for v in read[-1]] == [type(v) for v in rows[-1]]
            write_csv(second, columns, read)
            assert second.read_bytes() == first.read_bytes()

    def test_bad_boolean_names_the_column_and_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,flag\n1.0,true\n2.0,maybe\n")
        with pytest.raises(ConfigurationError, match=":3: bad flag field 'maybe'"):
            read_csv(path, ("a", "flag"), {"flag": bool})

    def test_missing_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="absent.csv"):
            read_csv(tmp_path / "absent.csv", TRAJ_COLUMNS, {})
