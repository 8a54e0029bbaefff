"""Versioned binary checkpoint container for named float32 tensors.

Layout: 8-byte magic "F3VACKPT", u32 version, u32 tensor count, then per
tensor: u32 name length, UTF-8 name, u32 rank, u32 dims, row-major
little-endian float32 data.  Tensors are written in sorted name order so
the file is a deterministic function of its contents.

Also here: the ``.ckpt``/``.json`` model pair, the key and type
(``config_section``, ``fits``) and range (``check_ranges``) rules for
config values, and ``replacing``, the temp-file-then-rename writer of
every file the commands write.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

MAGIC = b"F3VACKPT"
VERSION = 1


def save_checkpoint(path, tensors: dict) -> None:
    path = Path(path)
    names = sorted(tensors)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(names)))
        for name in names:
            arr = np.ascontiguousarray(np.asarray(tensors[name], dtype="<f4"))
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    path = Path(path)
    data = path.read_bytes()
    if data[:8] != MAGIC:
        raise DataError(f"{path}: bad magic")
    if len(data) < 16:
        raise DataError(f"{path}: truncated header")
    version, count = struct.unpack_from("<II", data, 8)
    if version != VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    off = 16
    out = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", data, off)
            off += 4
            name = data[off:off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<I", data, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}I", data, off)
            off += 4 * rank
            n = int(np.prod(shape, dtype=np.int64)) if rank else 1
            arr = np.frombuffer(data, dtype="<f4", count=n, offset=off)
            out[name] = arr.reshape(shape).copy()
            off += 4 * n
    except (struct.error, ValueError) as e:
        raise DataError(f"{path}: truncated or corrupt at byte {off}: {e}") from e
    if off != len(data):
        raise DataError(f"{path}: trailing bytes")
    return out


def fits(value, default) -> bool:
    """``value`` has the JSON type of ``default``; an int fits a float."""
    if isinstance(default, (list, tuple)):
        return (isinstance(value, list)
                and all(fits(v, default[0]) for v in value))
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


def config_section(doc, section: str, defaults: dict, path, error) -> dict:
    """The ``section`` object of the JSON object ``doc`` read from ``path``,
    or {} when it has none.  Its keys must all be keys of ``defaults``, and
    each value must have the JSON type of its key's default (``fits``);
    otherwise ``error`` is raised, naming ``path`` and ``section.key``."""
    if not isinstance(doc, dict):
        raise error(f"{path}: not a JSON object")
    sec = doc.get(section, {})
    if not isinstance(sec, dict):
        raise error(f"{path}: {section} must be a JSON object")
    unknown = sorted(set(sec) - set(defaults))
    if unknown:
        raise error(f"{path}: unknown key(s) in {section}: "
                    f"{', '.join(unknown)}")
    for key, value in sec.items():
        if not fits(value, defaults[key]):
            raise error(f"{path}: {section}.{key} = {value!r} does not have "
                        f"the type of its default, "
                        f"{json.dumps(defaults[key])}")
    return sec


# config value rules for ``check_ranges``: (test, what it asks)
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "finite and >= 0")
WIDTHS = (lambda v: len(v) > 0 and min(v) >= 1,
          "a non-empty list of sizes >= 1")
# the fields that both trainers' configs give the schedule and optimizer
TRAINING_RANGES = {
    "time_dim": (lambda v: v >= 2 and v % 2 == 0, "even and >= 2"),
    "steps": AT_LEAST_1,
    "batch": AT_LEAST_1,
    "peak_lr": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "pct_start": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "weight_decay": NON_NEGATIVE,
    "seed": (lambda v: v >= 0, ">= 0"),
}


def check_ranges(section: str, config, ranges: dict) -> None:
    """Raise ConfigError naming ``section.key`` for the first field of
    ``config`` whose value fails its ``ranges[key]`` test."""
    for key, (ok, rule) in ranges.items():
        value = getattr(config, key)
        if not ok(value):
            raise ConfigError(f"{section}.{key} must be {rule}, "
                              f"got {value!r}")


@contextlib.contextmanager
def replacing(paths):
    """Write ``paths`` as one: yield a temporary path beside each, in the
    same order.  When the block ends, each temporary file replaces its
    path, and a path whose temporary file the block did not write is
    removed.  On an error the temporary files are removed and the old
    files stay as they were."""
    paths = [Path(p) for p in paths]
    tmp = [p.with_name(f".{p.name}.tmp") for p in paths]
    try:
        yield tmp
        for t, p in zip(tmp, paths):
            if t.exists():
                os.replace(t, p)
            else:
                p.unlink(missing_ok=True)
    except BaseException:
        for t in tmp:
            t.unlink(missing_ok=True)
        raise


def replace_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through ``replacing``."""
    with replacing([path]) as (tmp,):
        tmp.write_text(text)


def save_model(prefix, tensors: dict, meta: dict) -> None:
    """Write ``<prefix>.ckpt`` (tensors) and ``<prefix>.json`` (meta); the
    pair replaces an old one only once both files are written."""
    prefix = Path(prefix)
    with replacing([prefix.with_suffix(".ckpt"),
                    prefix.with_suffix(".json")]) as (ckpt, sidecar):
        save_checkpoint(ckpt, tensors)
        sidecar.write_text(json.dumps(meta, indent=1) + "\n")


def load_model(prefix, config_cls, build, keys: tuple = ()):
    """The model of a ``save_model`` pair.

    The sidecar must hold a ``config`` object that ``config_section``
    accepts for ``config_cls``, each of ``keys`` as a positive integer,
    and the values the config's own range checks accept; ``build(meta,
    config)`` makes the model, and the checkpoint must hold each of its
    tensors at its shape.  A missing sidecar is a ConfigError; a
    malformed sidecar or checkpoint is a DataError naming the file.
    """
    path = Path(prefix).with_suffix(".json")
    try:
        meta = json.loads(path.read_text())
    except FileNotFoundError as e:
        raise ConfigError(f"missing model metadata: {e}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: not valid JSON: {e}") from e
    sec = config_section(meta, "config", asdict(config_cls()), path, DataError)
    missing = [k for k in (*keys, "config") if k not in meta]
    if missing:
        raise DataError(f"{path}: missing key(s) {', '.join(missing)}")
    for k in keys:
        if type(meta[k]) is not int or meta[k] < 1:
            raise DataError(f"{path}: {k} must be a positive integer, "
                            f"got {meta[k]!r}")
    try:
        config = config_cls(**sec)
    except ConfigError as e:
        raise DataError(f"{path}: {e}") from e
    model = build(meta, config)
    ckpt = path.with_suffix(".ckpt")
    tensors = load_checkpoint(ckpt)
    for name, t in model.tensors().items():
        if name not in tensors:
            raise DataError(f"{ckpt}: missing tensor {name}")
        if tensors[name].shape != t.shape:
            raise DataError(f"{ckpt}: tensor {name} has shape "
                            f"{tensors[name].shape}, expected {t.shape}")
    model.load_tensors(tensors)
    return model
