import numpy as np
import pytest

from anonflow.checkpoint import (MAGIC, load_checkpoint, save_checkpoint,
                                 save_model)
from anonflow.errors import DataError


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "backbone/lay1.W": rng.standard_normal((4, 7)).astype(np.float32),
        "backbone/lay1.b": rng.standard_normal(4).astype(np.float32),
        "anonymizer/lin1.W": rng.standard_normal((2, 2)).astype(np.float32),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert loaded[k].tobytes() == tensors[k].tobytes()
        assert loaded[k].shape == tensors[k].shape
    # save-load-save is byte identical
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_magic_header(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"x": np.zeros(1, dtype=np.float32)})
    assert path.read_bytes()[:8] == MAGIC


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_sorted_order_deterministic(tmp_path):
    a = {"b": np.ones(2, dtype=np.float32), "a": np.zeros(3, dtype=np.float32)}
    b = {"a": np.zeros(3, dtype=np.float32), "b": np.ones(2, dtype=np.float32)}
    p1, p2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
    save_checkpoint(p1, a)
    save_checkpoint(p2, b)
    assert p1.read_bytes() == p2.read_bytes()


def test_float64_saved_as_float32(tmp_path):
    path = tmp_path / "f.ckpt"
    save_checkpoint(path, {"x": np.array([1.0 / 3.0], dtype=np.float64)})
    out = load_checkpoint(path)
    assert out["x"].dtype == np.float32
    assert out["x"][0] == np.float32(1.0 / 3.0)


def test_failed_model_write_keeps_previous_pair(tmp_path, torn_write_text):
    tensors = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
    save_model(tmp_path / "model", tensors, {"config": {"steps": 1}})
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert sorted(before) == ["model.ckpt", "model.json"]
    # the new checkpoint is written in full, then its sidecar write fails
    with torn_write_text(), pytest.raises(OSError, match="disk full"):
        save_model(tmp_path / "model", {"w": -tensors["w"]},
                   {"config": {"steps": 2}})
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
    save_model(tmp_path / "model", {"w": -tensors["w"]},
               {"config": {"steps": 2}})
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(before)
    assert np.array_equal(load_checkpoint(tmp_path / "model.ckpt")["w"],
                          -tensors["w"])
