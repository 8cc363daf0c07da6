"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import json
import os
import re
import shutil
import site
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from resnav import cli
from resnav.cli import main
from resnav.config import ExperimentConfig, load_config
from resnav.errors import ConfigurationError
from resnav.fileio import read_rows
from resnav.grid import ShortestPathOracle
from resnav.nn import load_checkpoint, save_checkpoint
from resnav.policy import CONTROLLERS, TRAINING_MODES
from resnav.td3 import TrainLogRow, train
from resnav.worldgen import load_suite

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny but complete experiment: config, worlds, two trained runs."""
    root = tmp_path_factory.mktemp("cli")
    config = {
        "format": "exp/1",
        "mode": "residual",
        "seeds": [0],
        "out_dir": str(root / "runs"),
        "worlds": {
            "train_dir": str(root / "worlds" / "train"),
            "heldout_dir": str(root / "worlds" / "heldout"),
            "n_train": 2, "n_heldout": 1, "seed_train": 11, "seed_heldout": 22,
        },
        "worldgen": {"n_obstacles_min": 1, "n_obstacles_max": 2, "planner_cell": 0.1},
        "episode": {"max_steps": 25},
        "td3": {
            "total_episodes": 2, "warmup_steps": 10, "batch_size": 8,
            "hidden_sizes": [8, 8], "eval_every": 2, "eval_episodes": 1,
            "buffer_capacity": 1000,
        },
        "evaluation": {"n_episodes": 2, "n_passes": 4, "grid_cell": 0.2},
    }
    config_path = root / "exp.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    assert main(["gen-worlds", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path), "--mode", "end_to_end"]) == 0
    return root, config_path


class TestInitConfig:
    def test_writes_a_loadable_default(self, tmp_path):
        out = tmp_path / "exp.json"
        assert main(["init-config", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["format"] == "exp/1"

    def test_refuses_to_overwrite(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        assert main(["init-config", "--out", str(out)]) == 0
        assert main(["init-config", "--out", str(out)]) == 2
        assert "already exists" in capsys.readouterr().err


class TestWorkflow:
    def test_gen_worlds_wrote_suites(self, workspace):
        root, _config = workspace
        assert len(list((root / "worlds" / "train").glob("world_*.json"))) == 2
        assert len(list((root / "worlds" / "heldout").glob("world_*.json"))) == 1

    def test_train_wrote_checkpoints_and_logs(self, workspace):
        root, _config = workspace
        for mode in ("residual", "end_to_end"):
            run = root / "runs" / mode / "seed0"
            assert (run / "actor.ckpt").exists()
            assert (run / "train_log.csv").exists()

    def test_eval_all_controllers(self, workspace, capsys):
        root, config = workspace
        rc = main(["eval", "--config", str(config)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "controller" in out and "prior" in out and "gated" in out
        eval_dir = root / "runs" / "eval_heldout_seed0"
        assert (eval_dir / "report.txt").exists()
        assert (eval_dir / "episodes.csv").exists()

    def test_eval_unknown_controller(self, workspace, capsys):
        _root, config = workspace
        assert main(["eval", "--config", str(config), "--controllers", "prior,warp"]) == 2
        assert "unknown controller" in capsys.readouterr().err

    def test_eval_missing_checkpoint(self, workspace, capsys):
        _root, config = workspace
        rc = main(["eval", "--config", str(config), "--controllers", "residual", "--seed", "9"])
        assert rc == 2
        assert "no checkpoint" in capsys.readouterr().err

    def test_rollout_and_plots(self, workspace, capsys):
        root, config = workspace
        traj = root / "plots" / "ep.csv"
        rc = main(["rollout", "--config", str(config), "--controller", "gated",
                   "--episode-seed", "1", "--out", str(traj)])
        assert rc == 0
        assert traj.exists() and traj.with_suffix(".meta.json").exists()

        svg1 = root / "plots" / "traj.svg"
        assert main(["plot", "trajectory", str(traj), "--out", str(svg1),
                     "--planner", "--cell", "0.2"]) == 0
        assert svg1.read_text().startswith("<svg ")

        svg2 = root / "plots" / "comp.svg"
        assert main(["plot", "components", str(traj), "--out", str(svg2)]) == 0
        assert svg2.exists()

        svg3 = root / "plots" / "train.svg"
        run_dir = root / "runs" / "residual" / "seed0"
        assert main(["plot", "training", str(run_dir), "--out", str(svg3)]) == 0
        assert svg3.exists()

    @pytest.mark.parametrize("kind", ["trajectory", "components", "training"])
    def test_plot_creates_a_missing_directory(self, workspace, kind, tmp_path):
        root, config = workspace
        source = root / "runs" / "residual" / "seed0"
        if kind != "training":
            source = tmp_path / "ep.csv"
            assert main(["rollout", "--config", str(config), "--controller", "prior", "--out", str(source)]) == 0
        out = tmp_path / "nodir" / "deeper" / "x.svg"
        assert main(["plot", kind, str(source), "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg ")

    def test_train_seed_override_is_checked_as_a_config_seed(self, workspace, capsys):
        _root, config = workspace
        assert main(["train", "--config", str(config), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seeds must be >= 0, got -1")

    def test_rollout_world_index_checked(self, workspace, capsys):
        _root, config = workspace
        rc = main(["rollout", "--config", str(config), "--controller", "prior",
                   "--world-index", "5", "--out", "/tmp/never.csv"])
        assert rc == 2
        assert "world index" in capsys.readouterr().err

    def test_plot_training_missing_log(self, workspace, capsys, tmp_path):
        _root, _config = workspace
        rc = main(["plot", "training", str(tmp_path), "--out", str(tmp_path / "x.svg")])
        assert rc == 2
        assert "no training log" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["trajectory", "components"])
    def test_plot_missing_trajectory(self, kind, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        rc = main(["plot", kind, str(missing), "--out", str(tmp_path / "x.svg")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    @pytest.mark.parametrize("fault", ["malformed", "no goal"])
    @pytest.mark.parametrize("kind", ["trajectory", "components"])
    def test_plot_bad_sidecar(self, workspace, kind, fault, capsys, tmp_path):
        _root, config = workspace
        traj = tmp_path / "ep.csv"
        assert main(["rollout", "--config", str(config), "--controller", "prior", "--out", str(traj)]) == 0
        meta_file = traj.with_suffix(".meta.json")
        meta = json.loads(meta_file.read_text())
        del meta["goal"]
        meta_file.write_text("{not json" if fault == "malformed" else json.dumps(meta))
        rc = main(["plot", kind, str(traj), "--out", str(tmp_path / "x.svg")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key,value", [("start", "ab"), ("goal", 5), ("goal", [1.0]), ("goal_radius", "x")])
    def test_plot_trajectory_bad_sidecar_point(self, workspace, key, value, capsys, tmp_path):
        _root, config = workspace
        traj = tmp_path / "ep.csv"
        assert main(["rollout", "--config", str(config), "--controller", "prior", "--out", str(traj)]) == 0
        meta_file = traj.with_suffix(".meta.json")
        meta = json.loads(meta_file.read_text())
        meta[key] = value
        meta_file.write_text(json.dumps(meta))
        for planner in ([], ["--planner"]):
            rc = main(["plot", "trajectory", str(traj), "--out", str(tmp_path / "x.svg"), *planner])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and key in err

    def test_resume_flag(self, workspace, capsys):
        root, config = workspace
        rc = main(["train", "--config", str(config), "--resume"])
        assert rc == 0


def _variant(config_path: Path, tmp_path: Path, **sections) -> Path:
    """A copy of a config file under tmp_path, its out_dir there and the given sections updated."""
    data = json.loads(config_path.read_text())
    data["out_dir"] = str(tmp_path / "runs")
    for name, values in sections.items():
        data[name].update(values)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    return path


class TestImpossibleInputs:
    # sizes beyond what numpy can address, so they are refused without allocating
    @pytest.mark.parametrize("td3,named", [({"buffer_capacity": 10**18}, "buffer_capacity"),
                                           ({"hidden_sizes": [10**18]}, "layer sizes")])
    def test_train_names_an_impossible_allocation(self, workspace, tmp_path, capsys, td3, named):
        _root, config = workspace
        assert main(["train", "--config", str(_variant(config, tmp_path, td3=td3))]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}")

    def test_eval_rejects_a_non_finite_checkpoint(self, workspace, tmp_path, capsys):
        root, config = workspace
        actor, kind = load_checkpoint(root / "runs" / "residual" / "seed0" / "actor.ckpt")
        actor.params[0], actor.params[-1] = float("nan"), float("inf")
        ckpt = tmp_path / "runs" / "residual" / "seed0" / "actor.ckpt"
        ckpt.parent.mkdir(parents=True)
        save_checkpoint(actor, kind, ckpt)
        assert main(["eval", "--config", str(_variant(config, tmp_path)), "--controllers", "gated"]) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: 2 parameter(s) are not finite\n"

    def test_eval_rejects_a_corrupt_checkpoint_header(self, workspace, tmp_path, capsys):
        root, config = workspace
        raw = (root / "runs" / "residual" / "seed0" / "actor.ckpt").read_bytes()
        ckpt = tmp_path / "runs" / "residual" / "seed0" / "actor.ckpt"
        ckpt.parent.mkdir(parents=True)
        ckpt.write_bytes(re.sub(rb'"dropout_p": [^,]*', b'"dropout_p": "x"', raw, count=1))
        assert main(["eval", "--config", str(_variant(config, tmp_path)), "--controllers", "gated"]) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: header: dropout_p must be a number, got 'x'\n"

    def test_eval_rejects_a_mislabelled_checkpoint_at_load(self, workspace, tmp_path, capsys, monkeypatch):
        root, config = workspace
        actor, _kind = load_checkpoint(root / "runs" / "residual" / "seed0" / "actor.ckpt")
        ckpt = tmp_path / "runs" / "end_to_end" / "seed0" / "actor.ckpt"
        ckpt.parent.mkdir(parents=True)
        save_checkpoint(actor, "end_to_end", ckpt)  # a 21-input residual actor under the end-to-end tag
        monkeypatch.setattr(cli, "evaluate", None)  # refused before any episode runs
        assert main(["eval", "--config", str(_variant(config, tmp_path)), "--controllers", "end_to_end"]) == 2
        assert capsys.readouterr().err == "error: end_to_end policy needs a network with 19 inputs, got 21\n"


def _option(command: str, flag: str) -> argparse.Action:
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in commands.choices[command]._actions if flag in a.option_strings)


class TestTheTableIsTheOnlyList:
    def test_rollout_and_train_choices(self):
        assert list(_option("rollout", "--controller").choices) == list(CONTROLLERS)
        assert list(_option("train", "--mode").choices) == list(TRAINING_MODES)

    def test_eval_controllers(self, workspace, capsys):
        _root, config = workspace
        assert _option("eval", "--controllers").default.split(",") == list(CONTROLLERS)
        assert main(["eval", "--config", str(config), "--controllers", "warp"]) == 2
        assert capsys.readouterr().err.rstrip().split("pick from ")[1].split(", ") == list(CONTROLLERS)

    def test_config_mode_rule(self):
        for mode in TRAINING_MODES:
            assert ExperimentConfig(mode=mode).mode == mode
        for name in set(CONTROLLERS) - set(TRAINING_MODES):
            with pytest.raises(ConfigurationError, match=re.escape(f"mode must be one of {tuple(TRAINING_MODES)}")):
                ExperimentConfig(mode=name)


def test_train_scores_its_curve_on_the_evaluation_grid(tmp_path, monkeypatch):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({
        "format": "exp/1",
        "seeds": [0],
        "out_dir": str(tmp_path / "runs"),
        "worlds": {"train_dir": str(tmp_path / "train"), "heldout_dir": str(tmp_path / "heldout"),
                   "n_train": 2, "n_heldout": 1},
        "worldgen": {"n_obstacles_min": 1, "n_obstacles_max": 2, "planner_cell": 0.1},
        "td3": {"total_episodes": 2, "warmup_steps": 10, "batch_size": 8, "hidden_sizes": [8, 8],
                "eval_every": 2, "eval_episodes": 3, "buffer_capacity": 1000},
        "evaluation": {"grid_cell": 0.2},
    }))
    assert main(["gen-worlds", "--config", str(config_path)]) == 0
    cells = []
    monkeypatch.setattr("resnav.cli.ShortestPathOracle",
                        lambda cell: cells.append(cell) or ShortestPathOracle(cell))
    monkeypatch.setattr("resnav.td3.ShortestPathOracle", None)  # train may not build its own
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    assert cells == [0.2]
    logged = read_rows(tmp_path / "run" / "train_log.csv", TrainLogRow)

    config = load_config(config_path)
    worlds = load_suite(config.worlds.train_dir)

    direct = train(worlds, "residual", config.td3, config.episode, config.sensor, config.prior, seed=0,
                   oracle=ShortestPathOracle(config.evaluation.grid_cell))
    assert logged == direct.log
    assert logged[-1].eval_spl > 0.0


def _run(cmd, **kwargs):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, **kwargs)
    assert proc.returncode == 0, f"{cmd} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc


class TestConsoleScript:
    def test_script_is_installed_and_runs(self, tmp_path):
        """Install the package into a throwaway venv and run its `resnav` script.

        The install uses setuptools alone (no pip, no wheel, no network) on a
        copy of the project, so nothing is written into the checkout.
        """
        pytest.importorskip("setuptools")
        project = tmp_path / "project"
        project.mkdir()
        shutil.copy2(REPO / "pyproject.toml", project)
        shutil.copytree(REPO / "src", project / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))

        venv = tmp_path / "venv"
        _run([sys.executable, "-m", "venv", "--without-pip", "--system-site-packages",
              str(venv)])
        python = venv / "bin" / "python"
        # --system-site-packages reaches only the base interpreter's packages;
        # when the suite itself runs in a venv, numpy and setuptools live in
        # that venv (or in the user site), so those directories are appended
        # explicitly.
        purelib = _run([str(python), "-c",
                        "import sysconfig; print(sysconfig.get_path('purelib'))"])
        outer = site.getsitepackages()
        if site.ENABLE_USER_SITE:
            outer.append(site.getusersitepackages())
        Path(purelib.stdout.strip(), "outer-site.pth").write_text("\n".join(outer) + "\n")

        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        _run([str(python), "-c", "from setuptools import setup; setup()", "install",
              "--single-version-externally-managed", "--record", str(tmp_path / "rec.txt")],
             cwd=project, env=env)
        located = _run([str(python), "-c", "import resnav; print(resnav.__file__)"],
                       cwd=tmp_path, env=env)
        assert Path(located.stdout.strip()).resolve().is_relative_to(venv.resolve())

        exe = venv / "bin" / "resnav"
        assert exe.exists(), "install did not write the console script"
        out = tmp_path / "exp.json"
        proc = subprocess.run([str(exe), "init-config", "--out", str(out)],
                              capture_output=True, text=True, cwd=tmp_path, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestAllocatorSetting:
    def test_does_nothing_off_glibc(self, monkeypatch):
        def no_libc(*args, **kwargs):
            raise AssertionError("the C library was loaded off glibc")

        monkeypatch.setattr(cli.platform, "libc_ver", lambda *a, **k: ("", ""))
        monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
        assert cli.keep_freed_heap() is False

    @pytest.mark.parametrize("fails", [None, -1, -3], ids=["both-set", "trim-refused", "mmap-refused"])
    def test_sets_the_trim_and_mmap_thresholds_on_glibc(self, monkeypatch, fails):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 0 if param == fails else 1

        monkeypatch.setattr(cli.platform, "libc_ver", lambda *a, **k: ("glibc", "2.36"))
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert cli.keep_freed_heap() is (fails is None)
        # M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, 64 MiB each, both tried even when one is refused
        assert calls == [(-1, 64 * 1024 * 1024), (-3, 64 * 1024 * 1024)]

    def test_main_leaves_the_allocator_alone(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "keep_freed_heap", lambda: pytest.fail("main() set the allocator"))
        assert main(["init-config", "--out", str(tmp_path / "exp.json")]) == 0
