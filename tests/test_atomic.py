"""Artifacts are replaced atomically: a write that fails part-way leaves the previous file intact."""

import copy

import numpy as np
import pytest

from resnav import fileio
from resnav.fileio import read_rows, write_atomically, write_rows
from resnav.nn import Mlp, load_checkpoint, save_checkpoint
from resnav.td3 import TrainLogRow
from resnav.world import load_world, save_world
from resnav.worldgen import WorldGenParams, generate_suite


class Unconvertible:
    """Stands in for a parameter buffer whose bytes cannot be produced."""

    def __array__(self, *args, **kwargs):
        raise OSError("simulated failure while writing the payload")


def test_write_creates_the_missing_parent_directory(tmp_path):
    path = tmp_path / "a" / "b" / "x.txt"
    write_atomically(path, "text\n")
    assert path.read_text() == "text\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["x.txt"]


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    path.write_text("old\n")

    def crash(fd):
        raise OSError("simulated crash after the payload reached the temp file")

    monkeypatch.setattr(fileio.os, "fsync", crash)
    with pytest.raises(OSError):
        write_atomically(path, "new\n")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


def test_text_and_bytes_are_written_unchanged(tmp_path):
    write_atomically(tmp_path / "a.csv", "x,y\r\n1,2\r\n")
    write_atomically(tmp_path / "b.bin", b"\x00\xff")
    assert (tmp_path / "a.csv").read_bytes() == b"x,y\r\n1,2\r\n"
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"


def test_training_log_survives_a_failed_rewrite(tmp_path):
    path = tmp_path / "train_log.csv"
    rows = [TrainLogRow(1, 30, 2.5, 0, 0.0),
            TrainLogRow(2, 12, 1.25, 1, 0.5, eval_success=0.5, eval_spl=0.25)]
    write_rows(path, TrainLogRow, rows)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_rows(path, TrainLogRow, [TrainLogRow(3, 7, 0.75, 1, 0.9), None])  # fails after one new row
    assert path.read_bytes() == before
    assert read_rows(path, TrainLogRow) == rows
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train_log.csv"]


def test_checkpoint_survives_a_failed_rewrite(tmp_path):
    path = tmp_path / "actor.ckpt"
    net = Mlp([4, 8, 2], "tanh", 0.2, rng=np.random.default_rng(1))
    save_checkpoint(net, "residual", path)
    before = path.read_bytes()
    broken = copy.deepcopy(net)
    broken.params = Unconvertible()
    with pytest.raises(OSError):
        save_checkpoint(broken, "residual", path)  # the parameter bytes cannot be produced
    assert path.read_bytes() == before
    loaded, mode = load_checkpoint(path)
    assert mode == "residual" and np.array_equal(loaded.params, net.params)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["actor.ckpt"]


def test_world_survives_a_failed_rewrite(tmp_path, monkeypatch):
    old, new = generate_suite(WorldGenParams(), 2, 4)
    path = tmp_path / "world_000.json"
    save_world(old, path)
    before = path.read_bytes()

    def crash(fd):
        raise OSError("simulated crash after the new world reached the temp file")

    monkeypatch.setattr(fileio.os, "fsync", crash)
    with pytest.raises(OSError):
        save_world(new, path)
    assert path.read_bytes() == before
    assert load_world(path) == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["world_000.json"]
