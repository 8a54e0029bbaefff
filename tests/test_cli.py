import argparse
import dataclasses
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import anonflow
import anonflow.anonymizer as anonymizer_mod
import anonflow.backbone as backbone_mod
import anonflow.worldgen as worldgen_mod
from anonflow.anonymizer import AnonymizerConfig, WeightStrategy
from anonflow.backbone import _SHAPE_KEYS, BackboneConfig
from anonflow.checkpoint import load_checkpoint, save_checkpoint
from anonflow.cli import (ARG_RANGES, RADAR_DEFAULTS, RadarEntry,
                          build_parser, main, radar_normalize, write_manifest)
from anonflow.errors import ConfigError, DivergenceError
from anonflow.evaluation import build_trials
from anonflow.worldgen import (ARRAY_FIELDS, CACHE_FILES, DATASET_FILES,
                               PoolEntry, Speaker, Utterance, WorldConfig,
                               WorldParams, load_dataset, save_dataset,
                               sha256_file)


class TestRadar:
    def spec(self, name):
        return next(e for e in RADAR_DEFAULTS if e.name == name)

    def test_wer_example(self):
        assert radar_normalize(2.46, self.spec("WER")) == pytest.approx(
            0.9508, abs=5e-5)

    def test_a_eer_example(self):
        assert radar_normalize(62.85, self.spec("A-EER")) == pytest.approx(
            0.838, abs=5e-4)

    def test_endpoints(self):
        hi = RadarEntry("m", 0.0, 10.0, "higher")
        lo = RadarEntry("m", 0.0, 10.0, "lower")
        assert radar_normalize(0.0, hi) == 0.0
        assert radar_normalize(0.0, lo) == 1.0

    def test_clamping(self):
        hi = RadarEntry("m", 0.0, 10.0, "higher")
        assert radar_normalize(-5.0, hi) == 0.0
        assert radar_normalize(25.0, hi) == 1.0

    def test_monotone(self):
        hi = RadarEntry("m", 0.0, 1.0, "higher")
        vals = [radar_normalize(v, hi) for v in np.linspace(-0.5, 1.5, 41)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            RadarEntry("m", 1.0, 1.0, "higher")
        with pytest.raises(ConfigError):
            RadarEntry("m", 0.0, 1.0, "sideways")


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "world": {"D": 8, "F": 12, "v_common": 24, "n_speakers": 4,
                  "utts_per_speaker": 3, "noise_sigma": 0.05,
                  "duration_range": [6.0, 12.0], "pii_frac": 0.5},
        "backbone": {"content_dim": 8, "hidden": [48, 48], "steps": 300,
                     "batch": 128},
        "anonymizer": {"steps": 300, "batch": 64, "n_embeddings": 400},
    }))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, small_config):
    root = tmp_path_factory.mktemp("run")
    world = root / "world"
    assert main(["gen-world", "--config", small_config, "--seed", "1",
                 "--out", str(world)]) == 0
    bb = root / "bb"
    assert main(["train-backbone", "--config", small_config, "--seed", "1",
                 "--data", str(world), "--out", str(bb)]) == 0
    an = root / "an"
    assert main(["train-anonymizer", "--config", small_config, "--seed", "1",
                 "--data", str(world), "--out", str(an)]) == 0
    return root, world, bb, an, small_config


class TestPipeline:
    def test_gen_world_deterministic(self, tmp_path, small_config):
        for sub in ("x", "y"):
            assert main(["gen-world", "--config", small_config, "--seed", "3",
                         "--out", str(tmp_path / sub)]) == 0
        for name in ("world.json", "utterances.jsonl", "manifest.json"):
            assert (tmp_path / "x" / name).read_bytes() == \
                   (tmp_path / "y" / name).read_bytes()

    def test_gen_world_leaves_numpy_ma_unimported(self, tmp_path,
                                                  small_config):
        # np.median imports numpy.ma, which then stays resident (about
        # 1 MB); the pitch medians are read off one sort instead
        src = str(Path(anonflow.__file__).parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from anonflow.cli import main; "
                "rc = main(sys.argv[2:]); print(rc, 'numpy.ma' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code, src, "gen-world", "--config",
             small_config, "--out", str(tmp_path / "w")],
            capture_output=True, text=True)
        assert proc.stdout.split() == ["0", "False"], proc.stderr

    def test_manifests_written(self, pipeline):
        _, world, bb, an, _ = pipeline
        for d in (world, bb, an):
            man = json.loads((d / "manifest.json").read_text())
            assert "outputs" in man and man["outputs"]
            assert "seeds" in man
            assert man["outputs"] == {n: sha256_file(d / n)
                                      for n in man["outputs"]}

    def test_anonymize_and_evaluate(self, pipeline, tmp_path):
        root, world, bb, an, cfg = pipeline
        anon = tmp_path / "anon"
        assert main(["anonymize", "--data", str(world),
                     "--backbone", str(bb / "backbone"),
                     "--anonymizer", str(an / "anonymizer"),
                     "--strategy", "fixed:0", "--seed", "2",
                     "--out", str(anon)]) == 0
        assert (anon / "mapping.tsv").exists()
        ev = tmp_path / "eval"
        assert main(["evaluate", "--data", str(world), "--anon", str(anon),
                     "--mapping", str(anon / "mapping.tsv"),
                     "--attacker", "ignorant", "--mode", "acoustic",
                     "--seed", "2", "--out", str(ev)]) == 0
        rep = json.loads((ev / "report.json").read_text())
        assert 0.0 <= rep["a_eer"] <= 100.0
        assert rep["utility"]["token_error_rate"] is not None
        assert (ev / "scores.tsv").exists()

    def test_seca_runs(self, pipeline, tmp_path):
        _, world, bb, _, _ = pipeline
        out = tmp_path / "seca"
        assert main(["seca", "--data", str(world),
                     "--backbone", str(bb / "backbone"),
                     "--seed", "2", "--out", str(out)]) == 0
        reports = [json.loads(l)
                   for l in (out / "edits.jsonl").read_text().splitlines()]
        assert any(r["replacements"] for r in reports)

    def test_train_anonymizer_reads_world_json_only(self, pipeline, tmp_path):
        _, world, _, an, cfg = pipeline
        (tmp_path / "w").mkdir()
        shutil.copy(world / "world.json", tmp_path / "w" / "world.json")
        assert main(["train-anonymizer", "--config", cfg, "--seed", "1",
                     "--data", str(tmp_path / "w"),
                     "--out", str(tmp_path / "an")]) == 0
        for name in ("anonymizer.ckpt", "anonymizer.json", "manifest.json"):
            assert (tmp_path / "an" / name).read_bytes() == \
                   (an / name).read_bytes(), name

    def test_build_trials(self, pipeline, tmp_path):
        _, world, _, _, _ = pipeline
        out = tmp_path / "trials"
        assert main(["build-trials", "--data", str(world), "--mode",
                     "acoustic", "--seed", "0", "--out", str(out)]) == 0
        lines = (out / "trials.tsv").read_text().splitlines()
        assert lines and all(len(l.split("\t")) == 3 for l in lines)


    def test_nan_frame_of_unused_utterance_exits_4(self, pipeline, tmp_path,
                                                   capsys):
        # no trial uses the utterance, so only the utility probes see it
        _, world, bb, an, _ = pipeline
        anon = tmp_path / "anon"
        assert main(["anonymize", "--data", str(world),
                     "--backbone", str(bb / "backbone"),
                     "--anonymizer", str(an / "anonymizer"),
                     "--seed", "2", "--out", str(anon)]) == 0
        ds = load_dataset(anon)
        bad = ds.utterances[-1]
        bad.frames[3, 0] = math.nan
        save_dataset(ds, anon)
        trials = tmp_path / "trials.tsv"
        trials.write_text("".join(
            f"spk000\t{u.id}\t{int(u.speaker_id == 'spk000')}\n"
            for u in ds.utterances[:-1]))
        capsys.readouterr()
        assert main(["evaluate", "--data", str(world), "--anon", str(anon),
                     "--mapping", str(anon / "mapping.tsv"),
                     "--attacker", "ignorant", "--trials", str(trials),
                     "--out", str(tmp_path / "ev")]) == 4
        err = capsys.readouterr().err.strip()
        assert err == (f"error: embedding of anonymized utterance {bad.id!r} "
                       "is not finite")
        assert not (tmp_path / "ev" / "report.json").exists()

    def test_seca_divergence_names_the_run(self, pipeline, tmp_path, capsys):
        _, world, bb, _, _ = pipeline
        assert main(["seca", "--data", str(world),
                     "--backbone", str(bb / "backbone"),
                     "--seed", "2", "--out", str(tmp_path / "ok")]) == 0
        reports = [json.loads(l) for l in
                   (tmp_path / "ok" / "edits.jsonl").read_text().splitlines()]
        speaker_of = {u.id: u.speaker_id
                      for u in load_dataset(world).utterances}
        edited = [r["utterance_id"] for r in reports if r["replacements"]]
        run = [u for u in edited if speaker_of[u] == speaker_of[edited[0]]]
        run = run[:next((i for i, (a, b) in enumerate(zip(edited, run))
                         if a != b), len(run))]
        # a NaN output bias makes every frame-flow solve diverge at step 0
        shutil.copy(bb / "backbone.json", tmp_path / "backbone.json")
        tensors = load_checkpoint(bb / "backbone.ckpt")
        tensors["backbone/out.b"] = np.full_like(tensors["backbone/out.b"],
                                                 math.nan)
        save_checkpoint(tmp_path / "backbone.ckpt", tensors)
        capsys.readouterr()
        assert main(["seca", "--data", str(world),
                     "--backbone", str(tmp_path / "backbone"),
                     "--seed", "2", "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip()
        assert err == (f"error: utterances {run[0]}..{run[-1]}: "
                       "non-finite state at step 0")


def test_anonymize_divergence_mid_stream_keeps_previous_dataset(
        pipeline, tmp_path, monkeypatch, capsys):
    # the second run's frame solve diverges once the first run's rows are
    # written (one row per write batch): exit 3, and every file of the
    # previous anonymize run keeps its bytes, with no temporary file left
    _, world, bb, an, _ = pipeline
    out = _anonymized(world, bb, an, tmp_path / "o")
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    real, written = anonymizer_mod.reconstruct, []

    def diverging(*args):
        written.append((out / ".utterances.jsonl.tmp").stat().st_size)
        if len(written) == 2:
            raise DivergenceError("non-finite state at step 4", step=4)
        return real(*args)

    monkeypatch.setattr(worldgen_mod, "BATCH_VALUES", 1)
    monkeypatch.setattr(anonymizer_mod, "reconstruct", diverging)
    capsys.readouterr()
    assert main(["anonymize", "--data", str(world),
                 "--backbone", str(bb / "backbone"),
                 "--anonymizer", str(an / "anonymizer"),
                 "--seed", "3", "--out", str(out)]) == 3
    assert capsys.readouterr().err.strip().endswith(
        ": non-finite state at step 4")
    assert written[0] == 0 < written[1]
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def _anonymized(world, bb, an, out):
    assert main(["anonymize", "--data", str(world),
                 "--backbone", str(bb / "backbone"),
                 "--anonymizer", str(an / "anonymizer"),
                 "--seed", "2", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("cache", ["hit", "text"])
def test_evaluate_hashes_each_file_once(pipeline, tmp_path, sha256_passes,
                                        cache):
    """One evaluate hashes every file it reads or writes once, and its
    manifest gives each file's digest, whether the anonymized dataset is
    read from its array cache or, without one, from the text."""
    _, world, bb, an, _ = pipeline
    anon = _anonymized(world, bb, an, tmp_path / "anon")
    if cache == "text":
        for name in CACHE_FILES:
            (anon / name).unlink()
    assert main(["build-trials", "--data", str(world), "--seed", "3",
                 "--out", str(tmp_path / "bt")]) == 0
    inputs = {"world": world / "world.json", "anon": anon / "utterances.jsonl",
              "mapping": anon / "mapping.tsv",
              "trials": tmp_path / "bt" / "trials.tsv",
              "anonymizer": an / "anonymizer.ckpt"}
    out = tmp_path / "ev"
    with sha256_passes() as passes:
        assert main(["evaluate", "--data", str(world), "--anon", str(anon),
                     "--mapping", str(inputs["mapping"]),
                     "--trials", str(inputs["trials"]),
                     "--attacker", "lazy", "--strategy", "fixed:0",
                     "--anonymizer", str(an / "anonymizer"),
                     "--out", str(out)]) == 0
    outputs = [out / n for n in ("trials.tsv", "scores.tsv", "report.json")]
    files = [d / n for d in (world, anon) for n in DATASET_FILES
             if (d / n).exists()] + list(inputs.values())[2:] + outputs
    digest = {f: sha256_file(f) for f in files}
    # files with equal bytes (world.json, speakers.jsonl and the pool in
    # both datasets; trials.tsv in and out) share a count
    assert {f: passes(f) for f in files} == {
        f: list(digest.values()).count(d) for f, d in digest.items()}
    man = json.loads((out / "manifest.json").read_text())
    assert man["inputs"] == {k: {"file": p.name, "sha256": digest[p]}
                             for k, p in inputs.items()}
    assert man["outputs"] == {p.name: digest[p] for p in outputs}


@pytest.mark.parametrize("command,flag,key", [
    ("seca", "--mapping", "mapping"),
    ("evaluate", "--mapping", "mapping"),
    ("evaluate", "--trials", "trials"),
    ("evaluate", "--anonymizer", "anonymizer"),
])
def test_manifest_names_each_input_given(pipeline, tmp_path, command, flag,
                                         key):
    _, world, bb, an, _ = pipeline
    anon = _anonymized(world, bb, an, tmp_path / "anon")
    assert main(["build-trials", "--data", str(world), "--seed", "3",
                 "--out", str(tmp_path / "bt")]) == 0
    given = {"--mapping": anon / "mapping.tsv",
             "--trials": tmp_path / "bt" / "trials.tsv",
             "--anonymizer": an / "anonymizer"}[flag]
    read = {"--anonymizer": an / "anonymizer.ckpt"}.get(flag, given)
    argv = {"seca": ["seca", "--data", anon, "--backbone", bb / "backbone"],
            "evaluate": ["evaluate", "--data", world, "--anon", anon]}[command]
    for run, extra in (("without", []), ("with", [flag, given])):
        assert main([str(a) for a in argv + extra
                     + ["--out", tmp_path / run]]) == 0
    without, with_ = (json.loads((tmp_path / run / "manifest.json").read_text())
                      for run in ("without", "with"))
    assert key not in without["inputs"]
    assert with_["inputs"][key] == {"file": read.name,
                                    "sha256": sha256_file(read)}


class TestReportCommand:
    def test_radar_csv(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps({"WER": 2.46, "A-EER": 62.85}))
        out = tmp_path / "rep"
        assert main(["report", "--metrics", str(metrics),
                     "--out", str(out)]) == 0
        lines = (out / "radar.csv").read_text().splitlines()
        assert lines[0] == "metric,raw,normalized"
        table = {l.split(",")[0]: l.split(",")[2] for l in lines[1:]}
        assert table["WER"] == "0.9508"
        assert table["A-EER"] == "0.8380"

    def test_unknown_metric_exits_2(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps({"BLEU": 30.0}))
        assert main(["report", "--metrics", str(metrics),
                     "--out", str(tmp_path / "r")]) == 2

    def test_missing_metrics_exits_4(self, tmp_path):
        assert main(["report", "--metrics", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r")]) == 4


class TestExitCodes:
    def test_bad_config_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen-world", "--config", str(bad),
                     "--out", str(tmp_path / "w")]) == 2

    def test_int_accepted_for_float_config_value(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"world": {
            "D": 8, "F": 12, "v_common": 24, "n_speakers": 4,
            "utts_per_speaker": 3, "noise_sigma": 0,
            "duration_range": [6, 12]}}))
        assert main(["gen-world", "--config", str(cfg),
                     "--out", str(tmp_path / "w")]) == 0

    def test_missing_dataset_exits_4(self, tmp_path):
        assert main(["build-trials", "--data", str(tmp_path / "absent"),
                     "--mode", "acoustic",
                     "--out", str(tmp_path / "t")]) == 4

    def test_bad_strategy_exits_2(self, pipeline, tmp_path, capsys):
        _, world, bb, an, _ = pipeline
        for text in ("nonsense:9", "fixed:abc", "fixed:2", "range:0.5:0.1"):
            capsys.readouterr()
            assert main(["anonymize", "--data", str(world),
                         "--backbone", str(bb / "backbone"),
                         "--anonymizer", str(an / "anonymizer"),
                         "--strategy", text,
                         "--out", str(tmp_path / "a")]) == 2, text
            err = capsys.readouterr().err.strip()
            assert err.startswith("error: ") and "\n" not in err
            assert repr(text) in err


def _short_mapping_row(tmp, world, bb, an):
    bad = tmp / "mapping.tsv"
    bad.write_text("spk000\t0.5\n")
    return (["seca", "--data", world, "--backbone", bb / "backbone",
             "--mapping", bad], "mapping.tsv:1")


def _mapping(dims, command, named):
    """A mapping.tsv with one row of ``dims[i]`` values for speaker i."""
    def case(tmp, world, bb, an):
        path = tmp / "mapping.tsv"
        path.write_text("".join(f"spk{i:03d}\t0.5\t{','.join(['0.1'] * d)}\n"
                                for i, d in enumerate(dims)))
        argv = {"seca": ["seca", "--data", world, "--backbone", bb / "backbone"],
                "evaluate": ["evaluate", "--data", world, "--anon", world]}
        return argv[command] + ["--mapping", path], named
    return case


def _mapping_value(w, value, command):
    """A mapping.tsv whose second row has weight ``w`` and ``value`` as
    its first identity value."""
    def case(tmp, world, bb, an):
        path = tmp / "mapping.tsv"
        path.write_text("".join(
            f"spk{i:03d}\t{w if i == 1 else 0.5}\t"
            f"{','.join([value if i == 1 else '0.1'] + ['0.1'] * 7)}\n"
            for i in range(4)))
        argv = {"seca": ["seca", "--data", world, "--backbone", bb / "backbone"],
                "evaluate": ["evaluate", "--data", world, "--anon", world]}
        return argv[command] + ["--mapping", path], "mapping.tsv:2"
    return case


def _duplicate_mapping_row(tmp, world, bb, an):
    path = tmp / "mapping.tsv"
    path.write_text("".join(f"spk{i:03d}\t0.5\t{','.join(['0.1'] * 8)}\n"
                            for i in (0, 1, 2, 3, 1)))
    return (["seca", "--data", world, "--backbone", bb / "backbone",
             "--mapping", path], "mapping.tsv:5")


def _ignorant_with(flag, value, named):
    """The ignorant attacker, which does not use ``flag``, given it anyway;
    ``value(tmp, an)`` is the flag's value."""
    def case(tmp, world, bb, an):
        return (["evaluate", "--data", world, "--anon", world,
                 "--attacker", "ignorant", flag, value(tmp, an)], named)
    return case


def _truncated_anonymizer(tmp, an):
    for suffix in (".ckpt", ".json"):
        shutil.copy(an / f"anonymizer{suffix}", tmp / f"anonymizer{suffix}")
    _truncate(tmp / "anonymizer.json")
    return tmp / "anonymizer"


def _missing_model_json(tmp, world, bb, an):
    shutil.copy(bb / "backbone.ckpt", tmp / "backbone.ckpt")
    return (["anonymize", "--data", world, "--backbone", tmp / "backbone",
             "--anonymizer", an / "anonymizer"], "backbone.json")


def _truncated_checkpoint(tmp, world, bb, an):
    shutil.copy(bb / "backbone.json", tmp / "backbone.json")
    data = (bb / "backbone.ckpt").read_bytes()
    (tmp / "backbone.ckpt").write_bytes(data[:len(data) // 2])
    return (["seca", "--data", world, "--backbone", tmp / "backbone"],
            "backbone.ckpt")


def _bad_jsonl_line(tmp, world, bb, an):
    shutil.copytree(world, tmp / "w")
    path = tmp / "w" / "utterances.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:40]
    path.write_text("\n".join(lines) + "\n")
    return (["build-trials", "--data", tmp / "w"], "utterances.jsonl:2")


def _bad_utterance(edit):
    def case(tmp, world, bb, an):
        shutil.copytree(world, tmp / "w")
        path = tmp / "w" / "utterances.jsonl"
        lines = path.read_text().splitlines()
        d = json.loads(lines[1])
        edit(d)
        lines[1] = json.dumps(d)
        path.write_text("\n".join(lines) + "\n")
        return (["build-trials", "--data", tmp / "w"], "utterances.jsonl:2")
    return case


def _nan_frame(tmp, world, bb, an):
    """A world with one NaN frame value, evaluated against itself: its
    speaker's enrollment embedding, in the first trial, is not finite."""
    _bad_utterance(lambda d: d["frames"][0].__setitem__(0, math.nan))(
        tmp, world, bb, an)
    return (["evaluate", "--data", tmp / "w", "--anon", tmp / "w"],
            "speaker 'spk000' is not finite")


def _bad_speaker(edit):
    def case(tmp, world, bb, an):
        shutil.copytree(world, tmp / "w")
        path = tmp / "w" / "speakers.jsonl"
        lines = path.read_text().splitlines()
        d = json.loads(lines[1])
        edit(d)
        lines[1] = json.dumps(d)
        path.write_text("\n".join(lines) + "\n")
        return (["anonymize", "--data", tmp / "w",
                 "--backbone", bb / "backbone",
                 "--anonymizer", an / "anonymizer"], "speakers.jsonl:2")
    return case


def _bad_pool(edit):
    def case(tmp, world, bb, an):
        shutil.copytree(world, tmp / "w")
        path = tmp / "w" / "replacement_pool.jsonl"
        lines = path.read_text().splitlines()
        d = json.loads(lines[1])
        edit(d)
        lines[1] = json.dumps(d)
        path.write_text("\n".join(lines) + "\n")
        return (["seca", "--data", tmp / "w", "--backbone", bb / "backbone"],
                "replacement_pool.jsonl:2")
    return case


def _no_utterances(tmp, world, bb, an):
    shutil.copytree(world, tmp / "w")
    (tmp / "w" / "utterances.jsonl").write_text("")
    return ["train-backbone", "--data", tmp / "w"], "no utterances"


def _no_trials(mode, command="build-trials"):
    """``build-trials``, or ``evaluate`` of the world against itself
    without ``--trials``, on a world that has no candidate utterance for
    ``mode``: no utterance at all, or none with PII."""
    def case(tmp, world, bb, an):
        shutil.copytree(world, tmp / "w")
        path = tmp / "w" / "utterances.jsonl"
        path.write_text("" if mode == "acoustic" else "".join(
            json.dumps({**json.loads(line), "entity_spans": []}) + "\n"
            for line in path.read_text().splitlines()))
        anon = ["--anon", tmp / "w"] if command == "evaluate" else []
        return ([command, "--data", tmp / "w", *anon, "--mode", mode],
                f"{tmp / 'w'}: no {mode} trial can be built from this "
                f"dataset")
    return case


def _diverging(section):
    """``train-<section>`` at a peak learning rate whose first update
    overflows: the error names the model and the step."""
    def case(tmp, world, bb, an):
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({section: {"peak_lr": 1e300}}))
        return ([f"train-{section}", "--config", cfg, "--data", world],
                f"error: {section}: non-finite loss at step 1")
    return case


def _unknown_key(command, section):
    def case(tmp, world, bb, an):
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({section: {"stepz": 5}}))
        argv = [command, "--config", cfg]
        return (argv if command == "gen-world" else argv + ["--data", world],
                "stepz")
    return case


def _non_numeric_value(tmp, world, bb, an):
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps({"backbone": {"steps": "abc"}}))
    return (["train-backbone", "--config", cfg, "--data", world], "steps")


def _bad_trials(row, named):
    def case(tmp, world, bb, an):
        bad = tmp / "trials.tsv"
        bad.write_text("spk000\tutt00001\t1\n" + row + "\n")
        return (["evaluate", "--data", world, "--anon", world,
                 "--trials", bad], named)
    return case


def _empty_trials(tmp, world, bb, an):
    (tmp / "trials.tsv").write_text("")
    return (["evaluate", "--data", world, "--anon", world,
             "--trials", tmp / "trials.tsv"], "trials.tsv: empty trial file")


def _config_document(doc):
    """A ``--config`` whose whole document is ``doc``."""
    def case(tmp, world, bb, an):
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(doc))
        return ["gen-world", "--config", cfg], "config.json: not a JSON object"
    return case


def _truncate(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])


def _truncated_json(name, *argv):
    """``argv`` given the file ``name`` cut off inside a JSON document; the
    error must name the file."""
    def case(tmp, world, bb, an):
        (tmp / name).write_text('{"WER": ')
        return [*argv, tmp / name], name
    return case


def _metrics(text, named):
    """``report`` given a metrics file holding ``text``; the error must
    name the file and what is wrong with it."""
    def case(tmp, world, bb, an):
        (tmp / "metrics.json").write_text(text)
        return ["report", "--metrics", tmp / "metrics.json"], named
    return case


def _truncated_world_json(tmp, world, bb, an):
    shutil.copytree(world, tmp / "w")
    _truncate(tmp / "w" / "world.json")
    return (["build-trials", "--data", tmp / "w"], "world.json")


def _world_json(edit, named):
    def case(tmp, world, bb, an):
        shutil.copytree(world, tmp / "w")
        path = tmp / "w" / "world.json"
        d = json.loads(path.read_text())
        edit(d)
        path.write_text(json.dumps(d))
        return (["build-trials", "--data", tmp / "w"], f"world.json: {named}")
    return case


def _truncated_model_json(name):
    def case(tmp, world, bb, an):
        models = {"backbone": bb / "backbone", "anonymizer": an / "anonymizer"}
        for suffix in (".ckpt", ".json"):
            shutil.copy(models[name].with_suffix(suffix), tmp / (name + suffix))
        _truncate(tmp / f"{name}.json")
        models[name] = tmp / name
        return (["anonymize", "--data", world, "--backbone", models["backbone"],
                 "--anonymizer", models["anonymizer"]], f"{name}.json")
    return case


def _model_copy(name, edit_meta=None, edit_tensors=None, named=""):
    """The model pair ``name`` copied, with its sidecar dict or its tensor
    dict edited in place; the command loads it with the other model.  The
    error must name the edited file, followed by ``named``."""
    def case(tmp, world, bb, an):
        models = {"backbone": bb / "backbone", "anonymizer": an / "anonymizer"}
        meta = json.loads(models[name].with_suffix(".json").read_text())
        tensors = load_checkpoint(models[name].with_suffix(".ckpt"))
        (edit_meta or (lambda d: None))(meta)
        (edit_tensors or (lambda d: None))(tensors)
        (tmp / f"{name}.json").write_text(json.dumps(meta))
        save_checkpoint(tmp / f"{name}.ckpt", tensors)
        models[name] = tmp / name
        suffix = ".ckpt" if edit_tensors else ".json"
        return (["anonymize", "--data", world, "--backbone", models["backbone"],
                 "--anonymizer", models["anonymizer"]], name + suffix + named)
    return case


def _spoil_utf8(path):
    """Put a 0xff byte, which no UTF-8 text holds, ten bytes into ``path``."""
    data = path.read_bytes()
    path.write_bytes(data[:10] + b"\xff" + data[10:])


def _not_utf8(name):
    """The command that reads the file ``name``, given a copy of it (or,
    for a file the pipeline does not make, a valid one) spoilt by
    ``_spoil_utf8``; the error must name the file."""
    def case(tmp, world, bb, an):
        w = tmp / "w"
        shutil.copytree(world, w)
        for suffix in (".ckpt", ".json"):
            shutil.copy(bb / f"backbone{suffix}", tmp / f"backbone{suffix}")
        (tmp / "trials.tsv").write_text("spk000\tutt00001\t1\n")
        (tmp / "mapping.tsv").write_text("".join(
            f"spk{i:03d}\t0.5\t{','.join(['0.1'] * 8)}\n" for i in range(4)))
        (tmp / "config.json").write_text(json.dumps({"world": {"D": 8}}))
        (tmp / "metrics.json").write_text(json.dumps({"WER": 2.5}))
        argv = {
            "world.json": ["build-trials", "--data", w],
            "replacement_pool.jsonl": ["build-trials", "--data", w],
            "trials.tsv": ["evaluate", "--data", world, "--anon", world,
                           "--trials", tmp / "trials.tsv"],
            "mapping.tsv": ["seca", "--data", world, "--backbone",
                            bb / "backbone", "--mapping", tmp / "mapping.tsv"],
            "backbone.json": ["seca", "--data", world,
                              "--backbone", tmp / "backbone"],
            "config.json": ["gen-world", "--config", tmp / "config.json"],
            "metrics.json": ["report", "--metrics", tmp / "metrics.json"],
        }[name]
        _spoil_utf8(w / name if name in DATASET_FILES else tmp / name)
        return argv, name
    return case


def _config_value(section, key, value):
    """A ``--config`` whose ``section.key`` is ``value``, given to the
    command that reads the section."""
    def case(tmp, world, bb, an):
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        if section == "world":
            return (["gen-world", "--config", cfg], f"world.{key}")
        return ([f"train-{section}", "--config", cfg, "--data", world],
                f"{section}.{key}")
    return case


def _command(command, world, bb, an):
    """argv that runs ``command`` on the pipeline's world and models."""
    return {"gen-world": ["gen-world"],
            "build-trials": ["build-trials", "--data", world],
            "anonymize": ["anonymize", "--data", world,
                          "--backbone", bb / "backbone",
                          "--anonymizer", an / "anonymizer"],
            "seca": ["seca", "--data", world, "--backbone", bb / "backbone"],
            "evaluate": ["evaluate", "--data", world, "--anon", world,
                         "--attacker", "lazy", "--strategy", "fixed:0",
                         "--anonymizer", an / "anonymizer"]}[command]


def _argument(command, flag, value):
    """``command`` given ``flag=value``; the error must name the flag."""
    def case(tmp, world, bb, an):
        return _command(command, world, bb, an) + [f"{flag}={value}"], flag
    return case


@pytest.mark.parametrize("make_case,code", [
    (_short_mapping_row, 4),
    (_truncated_checkpoint, 4),
    (_bad_jsonl_line, 4),
    (_unknown_key("train-backbone", "backbone"), 2),
    (_unknown_key("train-anonymizer", "anonymizer"), 2),
    (_unknown_key("gen-world", "world"), 2),
    (_non_numeric_value, 2),
    (_bad_trials("spk001\tutt00002", "trials.tsv:2"), 4),
    (_bad_trials("spk001\tutt00002\tyes", "trials.tsv:2"), 4),
    (_bad_trials("spk001\tutt00002\t2", "trials.tsv:2"), 4),
    (_bad_trials("spk999\tutt00002\t0", "spk999"), 4),
    (_bad_trials("spk001\tutt99999\t0", "utt99999"), 4),
    (_truncated_world_json, 4),
    (_world_json(lambda d: d.pop("v_common"), "missing key(s) v_common"), 4),
    (_world_json(lambda d: d.update(vcommon=80), "unknown key(s) vcommon"), 4),
    (_world_json(lambda d: d.update(D="16"), ""), 4),
    (_world_json(lambda d: d.update(C=d["C"][:-1]),
                 "C has shape (11, 8), expected (12, 8)"), 4),
    (_world_json(lambda d: d.update(D=float(d["D"])), "D must be an integer"),
     4),
    (_world_json(lambda d: d.update(V=float(d["V"])), "V must be an integer"),
     4),
    (_world_json(lambda d: d.update(seed=True), "seed must be an integer"), 4),
    (_world_json(lambda d: d.update(n_pii_types=4),
                 "unknown key(s) n_pii_types"), 4),
    (_config_document([1, 2]), 2),
    (_config_document("x"), 2),
    (_nan_frame, 4),
    (_truncated_model_json("backbone"), 4),
    (_truncated_model_json("anonymizer"), 4),
    (_bad_utterance(lambda d: d.pop("frames")), 4),
    (_bad_utterance(lambda d: d.update(p_norm=d["p_norm"][:-3])), 4),
    (_bad_utterance(lambda d: d["tokens"].__setitem__(0, 99999)), 4),
    (_bad_utterance(lambda d: d.update(frames=d["frames"][:-1])), 4),
    (_bad_utterance(lambda d: d.update(
        frames=[row[:-1] for row in d["frames"]])), 4),
    (_bad_utterance(lambda d: d.update(
        frames_per_token=float(d["frames_per_token"]))), 4),
    (_bad_utterance(lambda d: d["tokens"].__setitem__(0, 1.5)), 4),
    (_bad_speaker(lambda d: d.update(embedding=d["embedding"][:-2])), 4),
    (_bad_speaker(lambda d: d.update(style=d["style"] + [0.0])), 4),
    (_bad_speaker(lambda d: d["embedding"].__setitem__(0, None)), 4),
    (_bad_utterance(lambda d: d["frames"][0].__setitem__(0, None)), 4),
    (_missing_model_json, 2),
    (_mapping([8, 8, 8], "seca", "spk003"), 4),
    (_mapping([8, 6, 8, 8], "evaluate", "mapping.tsv:2"), 4),
    (_model_copy("backbone", lambda d: d.pop("frame_dim")), 4),
    (_model_copy("backbone", lambda d: d.pop("speaker_dim")), 4),
    (_model_copy("backbone", lambda d: d.pop("vocab_size")), 4),
    (_model_copy("backbone", lambda d: d.pop("config")), 4),
    (_model_copy("anonymizer", lambda d: d.pop("config")), 4),
    (_model_copy("backbone", lambda d: d["config"].update(stepz=5)), 4),
    (_model_copy("anonymizer", lambda d: d["config"].update(stepz=5)), 4),
    (_model_copy("backbone", lambda d: d["config"].update(hidden="ab"),
                 named=": config.hidden"), 4),
    (_model_copy("anonymizer", lambda d: d["config"].update(steps=1.5),
                 named=": config.steps"), 4),
    (_model_copy("backbone", edit_tensors=lambda t: t.pop("backbone/codebook")), 4),
    (_model_copy("anonymizer", edit_tensors=lambda t: t.pop("anonymizer/lin1.W")), 4),
    (_model_copy("backbone", edit_tensors=lambda t: t.update(
        {"backbone/codebook": t["backbone/codebook"][:-1]})), 4),
    (_model_copy("anonymizer", edit_tensors=lambda t: t.update(
        {"anonymizer/lin1.W": t["anonymizer/lin1.W"].T})), 4),
    (_config_value("world", "duration_range", [5.0]), 2),
    (_config_value("world", "duration_range", [12.0, 6.0]), 2),
    (_config_value("world", "duration_range", [1e15, 1e15]), 2),
    (_config_value("world", "pii_frac", 2.0), 2),
    (_config_value("world", "noise_sigma", -0.1), 2),
    (_config_value("world", "noise_sigma", float("nan")), 2),
    (_config_value("world", "D", 0), 2),
    (_config_value("world", "F", 0), 2),
    (_config_value("world", "v_common", 0), 2),
    (_config_value("world", "n_speakers", 0), 2),
    (_config_value("world", "utts_per_speaker", 0), 2),
    (_config_value("backbone", "hidden", []), 2),
    (_config_value("backbone", "hidden", [48, 0]), 2),
    (_config_value("backbone", "peak_lr", -1.0), 2),
    (_config_value("backbone", "batch", 0), 2),
    (_config_value("backbone", "steps", 0), 2),
    (_config_value("backbone", "pct_start", 1.5), 2),
    (_config_value("backbone", "codebook_size", 1), 2),
    (_config_value("backbone", "time_dim", 0), 2),
    (_config_value("anonymizer", "batch", 0), 2),
    (_config_value("anonymizer", "steps", 0), 2),
    (_config_value("anonymizer", "time_dim", 3), 2),
    (_config_value("anonymizer", "weight_decay", -0.5), 2),
    (_config_value("anonymizer", "n_embeddings", 1), 2),
    (_model_copy("backbone", lambda d: d["config"].update(hidden=[]),
                 named=": backbone.hidden"), 4),
    (_model_copy("anonymizer", lambda d: d["config"].update(time_dim=0),
                 named=": anonymizer.time_dim"), 4),
    (_argument("anonymize", "--steps", 0), 2),
    (_argument("seca", "--steps", -1), 2),
    (_argument("evaluate", "--steps", 0), 2),
    (_argument("gen-world", "--seed", -1), 2),
    (_argument("build-trials", "--seed", -1), 2),
    (_argument("anonymize", "--seed", -1), 2),
    (_argument("seca", "--seed", -1), 2),
    (_argument("evaluate", "--seed", -1), 2),
    (_argument("seca", "--p-asr", 2.0), 2),
    (_argument("seca", "--p-asr", -0.5), 2),
    (_argument("seca", "--p-asr", "nan"), 2),
    (_config_value("anonymizer", "level_dims", [16, 8]), 2),
    (_model_copy("anonymizer", lambda d: d["config"].update(level_dims=[8, 4]),
                 named=": anonymizer.level_dims"), 4),
    (_duplicate_mapping_row, 4),
    (_mapping_value("0.5", "nan", "seca"), 4),
    (_mapping_value("0.5", "-inf", "evaluate"), 4),
    (_mapping_value("inf", "0.1", "evaluate"), 4),
    (_ignorant_with("--strategy", lambda tmp, an: "fixed:9", "'fixed:9'"), 2),
    (_ignorant_with("--strategy", lambda tmp, an: "gauss:1", "'gauss:1'"), 2),
    (_ignorant_with("--anonymizer", lambda tmp, an: tmp / "absent",
                    "absent.json"), 2),
    (_ignorant_with("--anonymizer", _truncated_anonymizer,
                    "anonymizer.json"), 4),
    (_not_utf8("world.json"), 4),
    (_not_utf8("replacement_pool.jsonl"), 4),
    (_not_utf8("trials.tsv"), 4),
    (_not_utf8("mapping.tsv"), 4),
    (_not_utf8("backbone.json"), 4),
    (_not_utf8("config.json"), 2),
    (_not_utf8("metrics.json"), 4),
    (_truncated_json("config.json", "gen-world", "--config"), 2),
    (_truncated_json("metrics.json", "report", "--metrics"), 4),
    *[(_metrics(f'{{"UTMOS": 3.5, "WER": {v}}}', "metrics.json: metric 'WER'"),
       4) for v in ('"abc"', "null", "true", "[1]", "NaN", "Infinity",
                    "-Infinity", "1e400", "1" + "0" * 400)],
    (_metrics("[1, 2]", "metrics.json: not a JSON object"), 4),
    (_config_value("world", "n_speakers", 3), 2),
    (_config_value("world", "utts_per_speaker", 1), 2),
    (_world_json(lambda d: d.update(D=0), "D must be >= 1"), 4),
    (_world_json(lambda d: d.update(V=0), "V must be >= 1"), 4),
    (_world_json(lambda d: d.update(F=0), "F must be >= 1"), 4),
    (_world_json(lambda d: d.update(B=d["B"] + [0.0, 0.0, 0.0]),
                 "B has shape (15,), expected (12,)"), 4),
    (_world_json(lambda d: d.update(
        gender_means=d["gender_means"] + d["gender_means"][:1]),
        "gender_means has shape (3, 8), expected (2, 8)"), 4),
    (_world_json(lambda d: d.update(noise_sigma=math.nan),
                 "noise_sigma must be a finite number"), 4),
    (_world_json(lambda d: d.update(noise_sigma=math.inf),
                 "noise_sigma must be a finite number"), 4),
    (_bad_speaker(lambda d: d.update(pii_lexicon=[1, 2])), 4),
    (_bad_speaker(lambda d: d["pii_lexicon"].update(PER=[99999])), 4),
    (_bad_speaker(lambda d: d["pii_lexicon"].update(PER="ab")), 4),
    (_bad_speaker(lambda d: d.update(id=["spk001"])), 4),
    (_bad_utterance(lambda d: d.update(duration_s="long")), 4),
    (_bad_utterance(lambda d: d.update(duration_s=math.nan)), 4),
    (_bad_utterance(lambda d: d.update(speaker_id="spk999")), 4),
    (_bad_utterance(lambda d: d.update(speaker_id=["spk001"])), 4),
    (_bad_pool(lambda d: d.update(tokens=[99999])), 4),
    (_bad_pool(lambda d: d.update(tokens=[1.5])), 4),
    (_model_copy("backbone", lambda d: d.update(vocab_size=d["vocab_size"] - 1),
                 lambda t: t.update({"backbone/token_embed":
                                     t["backbone/token_embed"][:-1]}),
                 named=": vocabulary of"), 4),
    (_no_utterances, 4),
    (_no_trials("acoustic"), 4),
    (_no_trials("content"), 4),
    (_diverging("backbone"), 3),
    (_diverging("anonymizer"), 3),
    (_no_trials("acoustic", "evaluate"), 4),
    (_no_trials("content", "evaluate"), 4),
    (_bad_utterance(lambda d: d.update(entity_spans=[5])), 4),
    (_bad_utterance(lambda d: d.update(entity_spans="abc")), 4),
    (_bad_utterance(lambda d: d.update(entity_spans=[["XYZ", 0, 1]])), 4),
    (_bad_utterance(lambda d: d.update(entity_spans=[["PER", 0, 99]])), 4),
    (_bad_speaker(lambda d: d.update(gender="robot")), 4),
    (_bad_utterance(lambda d: d.update(gender="robot")), 4),
    (_bad_utterance(lambda d: d.update(id=7)), 4),
    (_empty_trials, 4),
    (_bad_pool(lambda d: d.update(type="XYZ")), 4),
    (_bad_pool(lambda d: d.update(type=["PER"])), 4),
    (_bad_pool(lambda d: d.update(tokens=[])), 4),
    (_bad_speaker(lambda d: d.update(base_pitch_hz="abc")), 4),
    (_bad_speaker(lambda d: d.update(base_pitch_hz=math.inf)), 4),
    (_bad_speaker(lambda d: d["pii_lexicon"].update(
        XYZ=d["pii_lexicon"].pop("PER"))), 4),
    # sizes whose byte count overflows: numpy refuses them before it
    # allocates anything, so the unchecked load ends in a ValueError
    (_model_copy("backbone", lambda d: d.update(vocab_size=2**62),
                 named=": vocab_size"), 4),
    (_model_copy("anonymizer", lambda d: d["config"].update(time_dim=2**62),
                 named=": config.time_dim"), 4),
], ids=["short-mapping-row", "truncated-ckpt", "bad-jsonl-line",
        "unknown-backbone-key", "unknown-anonymizer-key", "unknown-world-key",
        "non-numeric-config-value", "two-column-trial", "non-integer-label",
        "label-out-of-range", "unknown-trial-speaker",
        "unknown-trial-utterance", "truncated-world-json",
        "world-json-without-v-common", "world-json-unknown-key",
        "world-json-string-D", "world-json-C-row-short",
        "world-json-float-D", "world-json-float-V", "world-json-bool-seed",
        "world-json-old-n-pii-types",
        "config-list", "config-string", "nan-frame-evaluate",
        "truncated-backbone-json", "truncated-anonymizer-json",
        "utterance-without-frames", "short-p-norm", "token-out-of-range",
        "frames-row-short", "frames-column-narrow", "float-frames-per-token",
        "float-token", "speaker-embedding-short", "speaker-style-long",
        "speaker-embedding-null", "frames-null", "missing-backbone-json",
        "mapping-missing-speaker", "mapping-short-identity",
        "backbone-json-without-frame-dim", "backbone-json-without-speaker-dim",
        "backbone-json-without-vocab-size", "backbone-json-without-config",
        "anonymizer-json-without-config", "backbone-config-unknown-key",
        "anonymizer-config-unknown-key", "backbone-config-hidden-string",
        "anonymizer-config-float-steps", "backbone-ckpt-without-codebook",
        "anonymizer-ckpt-without-tensor", "backbone-codebook-short",
        "anonymizer-tensor-transposed", "world-duration-range-one-value",
        "world-duration-range-reversed",
        "world-duration-range-above-ceiling", "world-pii-frac-above-1",
        "world-noise-sigma-negative", "world-noise-sigma-nan", "world-D-0",
        "world-F-0", "world-v-common-0", "world-n-speakers-0",
        "world-utts-per-speaker-0", "backbone-hidden-empty",
        "backbone-hidden-width-0", "backbone-peak-lr-negative",
        "backbone-batch-0", "backbone-steps-0", "backbone-pct-start-1.5",
        "backbone-codebook-size-1", "backbone-time-dim-0",
        "anonymizer-batch-0", "anonymizer-steps-0", "anonymizer-time-dim-3",
        "anonymizer-weight-decay-negative", "anonymizer-n-embeddings-1",
        "backbone-json-hidden-empty", "anonymizer-json-time-dim-0",
        "anonymize-steps-0", "seca-steps-negative", "evaluate-steps-0",
        "gen-world-seed-negative", "build-trials-seed-negative",
        "anonymize-seed-negative", "seca-seed-negative",
        "evaluate-seed-negative", "seca-p-asr-2", "seca-p-asr-negative",
        "seca-p-asr-nan", "anonymizer-level-dims-not-u-shaped",
        "anonymizer-json-level-dims-not-u-shaped", "mapping-duplicate-speaker",
        "mapping-nan-identity-seca", "mapping-inf-identity-evaluate",
        "mapping-inf-weight-evaluate",
        "ignorant-strategy-out-of-range", "ignorant-strategy-unknown",
        "ignorant-anonymizer-missing", "ignorant-anonymizer-truncated",
        "world-json-not-utf8", "pool-jsonl-not-utf8", "trials-not-utf8",
        "mapping-not-utf8", "backbone-json-not-utf8", "config-not-utf8",
        "metrics-not-utf8", "truncated-config", "truncated-metrics",
        "metric-string", "metric-null", "metric-bool", "metric-list",
        "metric-nan", "metric-inf", "metric-minus-inf", "metric-1e400",
        "metric-int-past-float-range", "metrics-list", "world-n-speakers-odd",
        "world-utts-per-speaker-1", "world-json-D-0", "world-json-V-0",
        "world-json-F-0", "world-json-B-long", "world-json-gender-means-3-rows",
        "world-json-noise-sigma-nan", "world-json-noise-sigma-inf",
        "speaker-lexicon-list", "speaker-lexicon-id-out-of-range",
        "speaker-lexicon-string", "speaker-id-list", "duration-string",
        "duration-nan", "utterance-unknown-speaker", "utterance-speaker-list",
        "pool-token-out-of-range", "pool-float-token",
        "backbone-vocabulary-smaller-than-dataset",
        "train-backbone-no-utterances", "build-trials-no-acoustic-trial",
        "build-trials-no-content-trial", "train-backbone-diverges",
        "train-anonymizer-diverges", "evaluate-no-acoustic-trial",
        "evaluate-no-content-trial", "entity-span-not-a-list",
        "entity-spans-string", "entity-span-unknown-type",
        "entity-span-past-tokens", "speaker-gender-unknown",
        "utterance-gender-unknown", "utterance-id-integer",
        "empty-trial-file", "pool-type-unknown", "pool-type-list",
        "pool-tokens-empty", "speaker-base-pitch-string",
        "speaker-base-pitch-inf", "speaker-lexicon-type-unknown",
        "backbone-json-vocab-size-2-62", "anonymizer-json-time-dim-2-62"])
def test_malformed_artifact_exit_code(pipeline, tmp_path, capsys, make_case,
                                      code):
    _, world, bb, an, _ = pipeline
    argv, named = make_case(tmp_path, world, bb, an)
    capsys.readouterr()
    assert main([str(a) for a in argv] + ["--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err and named in err


@pytest.fixture(scope="module")
def two_speaker_world(tmp_path_factory):
    """A 2-speaker world, and a backbone and an anonymizer of two steps
    trained on it."""
    root = tmp_path_factory.mktemp("two")
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "world": {"D": 8, "F": 12, "v_common": 24, "n_speakers": 2,
                  "utts_per_speaker": 3, "pii_frac": 0.5},
        "backbone": {"content_dim": 8, "hidden": [16], "steps": 2,
                     "batch": 16},
        "anonymizer": {"steps": 2, "batch": 8, "n_embeddings": 16}}))
    for argv in (["gen-world", "--out", root / "world"],
                 ["train-backbone", "--data", root / "world",
                  "--out", root / "bb"],
                 ["train-anonymizer", "--data", root / "world",
                  "--out", root / "an"]):
        assert main([str(a) for a in [*argv, "--config", cfg]]) == 0
    return root / "world", root / "bb" / "backbone", root / "an" / "anonymizer"


# JSON texts that a field of a dataset row is set to, and that a whole row
# is replaced by
WRONG_VALUES = ("null", '"a"', "1.5", "-1", "0", "[]", "{}", "true", "1e30",
                "[NaN]", "[[1]]", '["a"]')
WRONG_ROWS = ("5", "null", "true", "[]", '"x"')
RECORDS = dict(zip(ARRAY_FIELDS, (WorldParams, Speaker, Utterance,
                                  PoolEntry)))


def _row_cases():
    """(file, case, new text of the file's first row, the exit codes
    allowed, what an error must name) for each generated case of the
    dataset input contract.  A wrong field value may exit 0 and may fail
    in a row that refers to this one; a whole row or an unknown key exits
    4 naming the row (world.json holds one row, named by the file)."""
    for name, record in RECORDS.items():
        row = name if name == "world.json" else f"{name}:1"
        for f in dataclasses.fields(record):
            for value in WRONG_VALUES:
                yield (name, f"{f.name}={value}",
                       lambda d, k=f.name, v=value: json.dumps(
                           {**d, k: json.loads(v)}), (0, 4), name)
        for text in WRONG_ROWS:
            yield name, f"row {text}", lambda d, text=text: text, (4,), row
        yield (name, "unknown key",
               lambda d: json.dumps({**d, "unknown": 1}), (4,), row)


def test_dataset_row_contract(two_speaker_world, tmp_path, capsys):
    """Every field of the first row of each dataset file set to each of a
    fixed set of wrong values, the whole row replaced, and a key added:
    ``build-trials``, and ``seca`` for pool rows, exit as ``_row_cases``
    allows, and on 4 print one ``error:`` line naming the file."""
    world, backbone, _ = two_speaker_world
    data = tmp_path / "w"
    shutil.copytree(world, data)
    broken = []
    for name, case, edit, codes, named in _row_cases():
        text = (world / name).read_text()
        first, rest = text.split("\n", 1)
        (data / name).write_text(edit(json.loads(first)) + "\n" + rest)
        commands = [["build-trials", "--data", data]]
        if name == "replacement_pool.jsonl":
            commands.append(["seca", "--data", data, "--backbone", backbone])
        for argv in commands:
            code = main([str(a) for a in argv]
                        + ["--out", str(tmp_path / "o")])
            err = capsys.readouterr().err.strip()
            if code not in codes or code == 4 and not (
                    err.startswith("error: ") and "\n" not in err
                    and named in err):
                broken.append((name, case, argv[0], code, err))
        (data / name).write_text(text)
    assert not broken


# the values of the tab-separated files' columns: ``WRONG_VALUES`` as
# text, and two magnitudes that float64 holds and float32 does not
WRONG_COLUMNS = (*WRONG_VALUES, "1e300", "-1e300")


def _tsv_cases(first, identity):
    """(case, new text of a tab-separated file's first row ``first``) for
    each generated case of its contract: each column set to each of
    ``WRONG_COLUMNS``, a column left out and one added.  With
    ``identity``, the mapping's identity column (the last) also has its
    first comma-separated value set to each."""
    cols = first.split("\t")
    for i in range(len(cols)):
        for value in WRONG_COLUMNS:
            yield f"column {i}={value}", "\t".join(
                [*cols[:i], value, *cols[i + 1:]])
    if identity:
        rest = cols[-1].split(",")[1:]
        for value in WRONG_COLUMNS:
            yield f"identity[0]={value}", "\t".join(
                [*cols[:-1], ",".join([value, *rest])])
    yield "missing column", "\t".join(cols[:-1])
    yield "extra column", "\t".join([*cols, cols[-1]])


def _tsv_contract(commands, path, identity, tmp_path, capsys):
    """Run each of ``commands`` on each ``_tsv_cases`` edit of the first row
    of ``path``; the (case, command, code, error) of each run that does
    not exit 0, or 4 with one ``error:`` line naming the file."""
    text = path.read_text()
    first, rest = text.split("\n", 1)
    broken = []
    for case, row in _tsv_cases(first, identity):
        path.write_text(row + "\n" + rest)
        for argv in commands:
            code = main([str(a) for a in argv]
                        + ["--out", str(tmp_path / "o")])
            err = capsys.readouterr().err.strip()
            if code not in (0, 4) or code == 4 and not (
                    err.startswith("error: ") and "\n" not in err
                    and path.name in err):
                broken.append((case, argv[0], code, err))
    path.write_text(text)
    return broken


def test_mapping_contract(two_speaker_world, tmp_path, capsys):
    """Each ``_tsv_cases`` edit of the first row of an ``anonymize``
    mapping.tsv, given to ``seca --mapping`` and ``evaluate --mapping``:
    each exits 0 or 4, and on 4 prints one ``error:`` line naming the
    file."""
    world, backbone, anonymizer = two_speaker_world
    anon = tmp_path / "anon"
    assert main([str(a) for a in ["anonymize", "--data", world, "--backbone",
                                  backbone, "--anonymizer", anonymizer,
                                  "--out", anon]]) == 0
    mapping = anon / "mapping.tsv"
    commands = [["seca", "--data", world, "--backbone", backbone,
                 "--mapping", mapping],
                ["evaluate", "--data", world, "--anon", anon,
                 "--mapping", mapping]]
    assert _tsv_contract(commands, mapping, True, tmp_path, capsys) == []


def test_trial_file_contract(two_speaker_world, tmp_path, capsys):
    """Each ``_tsv_cases`` edit of the first row of a ``build-trials``
    trials.tsv, given to ``evaluate --trials``: each exits 0 or 4, and on
    4 prints one ``error:`` line naming the file."""
    world, _, _ = two_speaker_world
    assert main(["build-trials", "--data", str(world),
                 "--out", str(tmp_path / "t")]) == 0
    trials = tmp_path / "t" / "trials.tsv"
    commands = [["evaluate", "--data", world, "--anon", world,
                 "--trials", trials]]
    assert _tsv_contract(commands, trials, False, tmp_path, capsys) == []


def _sidecar_cases():
    """(model, key, value) for each generated case of the sidecar
    contract: each config field of both models, and each of the
    backbone's shape keys, set to each of ``WRONG_VALUES`` and to 2**62,
    a size whose byte count overflows before numpy allocates."""
    models = {"backbone": (BackboneConfig, _SHAPE_KEYS),
              "anonymizer": (AnonymizerConfig, ())}
    for name, (config_cls, shape_keys) in models.items():
        keys = [*shape_keys, *(f"config.{f.name}"
                               for f in dataclasses.fields(config_cls))]
        for key in keys:
            for value in (*map(json.loads, WRONG_VALUES), 2**62):
                yield name, key, value


def test_sidecar_contract(two_speaker_world, tmp_path, capsys):
    """Each value of ``_sidecar_cases`` in a copy of its model's sidecar:
    ``seca`` loads the backbone, ``evaluate --attacker ignorant
    --anonymizer`` the anonymizer; each exits 0 or 4, and on 4 prints one
    ``error:`` line naming the sidecar."""
    world, backbone, anonymizer = two_speaker_world
    models = {"backbone": backbone, "anonymizer": anonymizer}
    for name, model in models.items():
        shutil.copy(model.with_suffix(".ckpt"), tmp_path / f"{name}.ckpt")
    commands = {
        "backbone": ["seca", "--data", world, "--backbone", tmp_path / "backbone"],
        "anonymizer": ["evaluate", "--data", world, "--anon", world,
                       "--attacker", "ignorant",
                       "--anonymizer", tmp_path / "anonymizer"]}
    broken = []
    for name, key, value in _sidecar_cases():
        meta = json.loads(models[name].with_suffix(".json").read_text())
        section, _, field = key.rpartition(".")
        (meta[section] if section else meta)[field] = value
        (tmp_path / f"{name}.json").write_text(json.dumps(meta))
        code = main([str(a) for a in commands[name]]
                    + ["--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.strip()
        if code not in (0, 4) or code == 4 and not (
                err.startswith("error: ") and "\n" not in err
                and f"{name}.json" in err):
            broken.append((name, key, value, code, err))
    assert not broken


def _rules_of(config_cls, module) -> dict:
    """The ``check_ranges`` table that ``config_cls`` checks itself
    against on construction."""
    seen = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "check_ranges",
                   lambda section, config, ranges: seen.update(ranges))
        config_cls()
    return seen


AFTER_1 = math.nextafter(1.0, 2.0)
# rule key -> (values just outside its rule, a value just inside it)
BOUNDARY = {
    "D": ([0], 1), "F": ([0], 1), "v_common": ([0], 1),
    "n_speakers": ([0, 1, 3], 2), "utts_per_speaker": ([1], 2),
    "noise_sigma": ([-5e-324, math.inf, math.nan], 0.0),
    "pii_frac": ([-5e-324, AFTER_1, math.nan], 1.0),
    "duration_range": ([[0.0, 1.0], [1.0, 0.5], [1.0],
                        [1.0, math.nextafter(600.0, 601.0)], [1.0, 2.0, 3.0]],
                       [5e-324, 600.0]),
    "content_dim": ([0], 1), "hidden": ([[], [0], [16, 0]], [1]),
    "codebook_size": ([1], 2),
    "beta": ([-5e-324, math.inf, math.nan], 0.0),
    "lam": ([-5e-324, math.inf, math.nan], 0.0),
    "f_sem_noise": ([-5e-324, math.inf, math.nan], 0.0),
    "level_dims": ([[], [0], [8, 4], [8, 4, 8, 4], [8, 4, 4, 8]], [8, 4, 8]),
    "time_dim": ([0, 1, 3], 2), "steps": ([0], 1), "batch": ([0], 1),
    "peak_lr": ([0.0, math.inf, math.nan], 5e-324),
    "pct_start": ([0.0, 1.0], 5e-324),
    "weight_decay": ([-5e-324, math.inf, math.nan], 0.0),
    "seed": ([-1], 0), "p_asr": ([-5e-324, AFTER_1, math.nan], 1.0),
    "n_embeddings": ([1], 2),
}
# the rule tables: (section, or None for the flags) -> {key: (test, rule)}
RULES = {"world": _rules_of(WorldConfig, worldgen_mod),
         "backbone": _rules_of(BackboneConfig, backbone_mod),
         "anonymizer": _rules_of(AnonymizerConfig, anonymizer_mod),
         None: ARG_RANGES}
# WeightStrategy.parse: texts just outside its rules, and just inside
STRATEGIES = (["fixed:" + repr(AFTER_1), "fixed:-" + repr(AFTER_1),
               "fixed:nan", "range:-" + repr(AFTER_1) + ":1",
               "range:-1:" + repr(AFTER_1), "range:0.5:0.5", "range:0.5:0.4",
               "range:nan:1", "fixed", "fixed:0:1", "pool:0", "gauss:1"],
              ["fixed:1", "fixed:-1", "range:-1:1",
               "range:0.5:" + repr(math.nextafter(0.5, 1.0)), "pool"])


def test_boundary_values_straddle_each_rule():
    """Every rule of the tables has ``BOUNDARY`` values, which its own
    test rejects just outside it and accepts just inside it."""
    # a rule dropped from its table leaves a BOUNDARY entry unused
    assert set(BOUNDARY) == {k for table in RULES.values()
                             for k in table} | {"n_embeddings"}
    for table in RULES.values():
        for key, (ok, rule) in table.items():
            outside, inside = BOUNDARY[key]
            assert ok(inside) and not any(map(ok, outside)), (key, rule)
    for text in STRATEGIES[1]:
        WeightStrategy.parse(text)


def _flag_commands(dest) -> list:
    """argv of each command that takes the flag ``dest``, its required
    flags given placeholders: each flag is checked before a command reads
    anything."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [[name, *(x for a in p._actions if a.required and a.dest != "out"
                     for x in (a.option_strings[0], "x"))]
            for name, p in sub.choices.items()
            if any(a.dest == dest for a in p._actions)]


def _boundary_cases():
    """(case, make) for each value just outside each rule of ``RULES``
    and ``WeightStrategy.parse``; ``make(tmp, world, bb, an)`` gives the
    argv but --out and what the error must name, as for
    ``test_malformed_artifact_exit_code``.  A config key goes in the
    section of the command that reads it, a flag on each command that
    takes it.  A trainer's ``seed`` is left to ``--seed``, which sets it."""
    for section, table in RULES.items():
        keys = [k for k in table if section is None or k != "seed"]
        if section == "anonymizer":
            keys.append("n_embeddings")   # train-anonymizer's own rule
        for key in keys:
            for value in BOUNDARY[key][0]:
                if section is not None:
                    yield (f"{section}.{key}={value!r}",
                           _config_value(section, key, value))
                    continue
                flag = "--" + key.replace("_", "-")
                for argv in _flag_commands(key):
                    yield (f"{argv[0]} {flag}={value!r}",
                           lambda *_, a=[*argv, f"{flag}={value!r}"], n=flag:
                           (a, n))
    for text in STRATEGIES[0]:
        for argv in _flag_commands("strategy"):
            yield (f"{argv[0]} --strategy={text}",
                   lambda *_, a=[*argv, f"--strategy={text}"], n=repr(text):
                   (a, n))


def test_boundary_rules_exit_2_naming_the_key(two_speaker_world, tmp_path,
                                              capsys):
    """Each ``_boundary_cases`` value exits 2 with one ``error:`` line
    naming its ``<section>.<key>`` or flag, at the rule's one owner: the
    config dataclass, the argument check or ``WeightStrategy.parse``."""
    world, _, _ = two_speaker_world
    broken, seen = [], set()
    for case, make in _boundary_cases():
        argv, named = make(tmp_path, world, None, None)
        code = main([str(a) for a in argv] + ["--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        seen.add(named)
        if code != 2 or not (err.startswith("error: ")
                             and err.count("\n") == 1 and named in err):
            broken.append((case, code, err))
    assert not broken
    assert not (tmp_path / "o").exists()
    assert {"world.pii_frac", "backbone.hidden", "anonymizer.level_dims",
            "anonymizer.n_embeddings", "--seed", "--steps", "--p-asr",
            "'gauss:1'"} <= seen


def test_built_trials_missing_from_anon_name_both_datasets(
        pipeline, two_speaker_world, tmp_path, capsys):
    """evaluate without --trials builds its trials from --data and scores
    them on --anon: an --anon without one of their utterances exits 4
    naming --anon, the utterance and the --data they were built from."""
    _, world, _, _, _ = pipeline
    small, _, _ = two_speaker_world
    trials = build_trials(load_dataset(world), "acoustic",
                          np.random.default_rng(0))
    have = {u.id for u in load_dataset(small).utterances}
    missing = next(u for u in trials.test if u not in have)
    capsys.readouterr()
    assert main(["evaluate", "--data", str(world), "--anon", str(small),
                 "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == (
        f"error: {small}: no utterance {missing!r}, which a trial built "
        f"from {world} tests\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section", ["backbone", "anonymizer"])
def test_trainer_seed_is_not_a_config_key(pipeline, tmp_path, capsys,
                                          section):
    """``--seed`` alone seeds a trainer: a ``seed`` in its ``--config``
    section is an unknown key (exit 2), and the sidecar records
    ``--seed``."""
    _, world, bb, an, _ = pipeline
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({section: {"seed": -5}}))
    capsys.readouterr()
    assert main([f"train-{section}", "--data", str(world), "--config",
                 str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: unknown key(s) {section}.seed\n")
    sidecar = {"backbone": bb, "anonymizer": an}[section] / f"{section}.json"
    assert json.loads(sidecar.read_text())["config"]["seed"] == 1


def _ckpt_cases(data: bytes):
    """(case, bytes) for a checkpoint ``data``: the file cut at each
    length up to the end of its first tensor, and the file with each byte
    of its header and of the first tensor's header flipped."""
    (nlen,) = struct.unpack_from("<I", data, 16)
    (rank,) = struct.unpack_from("<I", data, 20 + nlen)
    head = 24 + nlen + 4 * rank
    first = head + 4 * math.prod(struct.unpack_from(f"<{rank}I", data,
                                                    24 + nlen))
    for n in range(first + 1):
        yield f"cut at {n}", data[:n]
    for i in range(head):
        yield f"byte {i} flipped", data[:i] + bytes([data[i] ^ 0xff]) + \
            data[i + 1:]


@pytest.fixture(scope="module")
def tiny_models(two_speaker_world, tmp_path_factory):
    """A backbone and an anonymizer of one step on the 2-speaker world,
    each with a first tensor of a few values."""
    world, _, _ = two_speaker_world
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "backbone": {"content_dim": 1, "hidden": [2], "codebook_size": 2,
                     "steps": 1, "batch": 1},
        "anonymizer": {"level_dims": [8, 2, 8], "time_dim": 2, "steps": 1,
                       "batch": 1, "n_embeddings": 2}}))
    for name in ("backbone", "anonymizer"):
        assert main([f"train-{name}", "--data", str(world), "--config",
                     str(cfg), "--out", str(root / name)]) == 0
    return world, root / "backbone" / "backbone", \
        root / "anonymizer" / "anonymizer"


def test_checkpoint_byte_contract(tiny_models, tmp_path, capsys):
    """Each ``_ckpt_cases`` edit of a model's .ckpt, loaded by the command
    that reads that model (``seca`` the backbone, ``evaluate --anonymizer``
    the anonymizer): each exits 0 or 4, and on 4 prints one ``error:``
    line naming the .ckpt."""
    world, backbone, anonymizer = tiny_models
    models = {"backbone": backbone, "anonymizer": anonymizer}
    commands = {
        "backbone": ["seca", "--data", world, "--backbone", tmp_path / "backbone"],
        "anonymizer": ["evaluate", "--data", world, "--anon", world,
                       "--anonymizer", tmp_path / "anonymizer",
                       "--strategy", "fixed:0"]}
    broken, runs = [], 0
    for name, model in models.items():
        shutil.copy(model.with_suffix(".json"), tmp_path / f"{name}.json")
        for case, data in _ckpt_cases(model.with_suffix(".ckpt").read_bytes()):
            (tmp_path / f"{name}.ckpt").write_bytes(data)
            code = main([str(a) for a in commands[name]]
                        + ["--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            runs += 1
            if code not in (0, 4) or code == 4 and not (
                    err.startswith("error: ") and err.count("\n") == 1
                    and f"{name}.ckpt" in err):
                broken.append((name, case, code, err))
    assert not broken
    assert runs > 150


@pytest.mark.parametrize("command", ["anonymize", "seca", "build-trials",
                                     "evaluate"])
def test_config_rejected_where_unread(pipeline, tmp_path, capsys, command):
    """Only gen-world and the two trainers read a config section; the
    other commands have no --config, and argparse exits 2 on it."""
    _, world, bb, an, cfg = pipeline
    argv = _command(command, world, bb, an) + ["--config", cfg,
                                               "--out", tmp_path / "o"]
    with pytest.raises(SystemExit) as ei:
        main([str(a) for a in argv])
    assert ei.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode", ["acoustic", "content"])
def test_build_trials_without_a_trial_writes_nothing(pipeline, tmp_path,
                                                     mode):
    _, world, bb, an, _ = pipeline
    argv, _ = _no_trials(mode)(tmp_path, world, bb, an)
    out = tmp_path / "o"
    out.mkdir()
    assert main([str(a) for a in argv] + ["--out", str(out)]) == 4
    assert list(out.iterdir()) == []


_WEIGHT = st.floats().map(repr)     # any float, nan and the infinities too
# flag -> (values of its type, in range and out of it; the commands that
# take it; its range, or None where the command itself parses the value)
ARGUMENTS = {
    "--steps": (st.integers(-3, 24), ("anonymize", "seca", "evaluate"),
                lambda v: v >= 1),
    "--seed": (st.integers(-2 ** 40, 2 ** 40),
               ("gen-world", "build-trials", "anonymize", "seca", "evaluate"),
               lambda v: v >= 0),
    "--p-asr": (st.floats(), ("seca",), lambda v: 0.0 <= v <= 1.0),
    "--strategy": (st.one_of(st.just("pool"),
                             st.builds("fixed:{}".format, _WEIGHT),
                             st.builds("range:{}:{}".format, _WEIGHT, _WEIGHT),
                             st.text(max_size=12)),
                   ("anonymize", "evaluate"), None),
}


@st.composite
def _argument_draw(draw):
    flag = draw(st.sampled_from(sorted(ARGUMENTS)))
    values, commands, _ = ARGUMENTS[flag]
    return flag, draw(st.sampled_from(commands)), draw(values)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argument_draw())
def test_argument_contract(pipeline, tmp_path, capsys, drawn):
    """One argument at a time, in range or out of it: the exit code is
    0, 2, 3 or 4 with at most one stderr line, and a number out of its
    flag's range exits 2 naming the flag."""
    _, world, bb, an, cfg = pipeline
    flag, command, value = drawn
    argv = _command(command, world, bb, an) + [f"{flag}={value}",
                                               "--out", tmp_path / "o"]
    if command == "gen-world":
        argv += ["--config", cfg]
    capsys.readouterr()
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    assert len(err.splitlines()) <= 1, err
    in_range = ARGUMENTS[flag][2]
    if in_range is not None and not in_range(value):
        assert code == 2 and flag in err, (code, err)


def test_main_runs_each_command_under_steady_memory(tmp_path, small_config,
                                                    monkeypatch):
    import anonflow.cli as cli
    calls, huge = [], [True]

    def set_huge(on):
        calls.append(("huge", on))
        old, huge[0] = huge[0], on
        return old

    monkeypatch.setattr(cli, "_SET_MADVISE_HUGEPAGE", set_huge)
    monkeypatch.setattr(cli, "_MALLOC_TRIM", lambda pad: calls.append(("trim", pad)))
    assert main(["gen-world", "--config", small_config, "--seed", "1",
                 "--out", str(tmp_path / "w")]) == 0
    assert main(["gen-world", "--config", str(tmp_path / "none.json"),
                 "--seed", "1", "--out", str(tmp_path / "x")]) == 2
    # huge pages off for the command, restored after; freed heap returned
    assert calls == [("huge", False), ("huge", True), ("trim", 0)] * 2
    assert huge == [True]


def test_failed_manifest_write_keeps_previous_manifest(tmp_path,
                                                      torn_write_text):
    out = tmp_path / "o"
    out.mkdir()
    (out / "radar.csv").write_text("a\n")
    write_manifest(out, "report", {}, {}, [out / "radar.csv"])
    before = (out / "manifest.json").read_bytes()
    (out / "radar.csv").write_text("b\n")
    with torn_write_text(), pytest.raises(OSError, match="disk full"):
        write_manifest(out, "report", {}, {}, [out / "radar.csv"])
    assert (out / "manifest.json").read_bytes() == before
    assert sorted(f.name for f in out.iterdir()) == ["manifest.json",
                                                     "radar.csv"]


# each output file outside the datasets and model pairs, and the command
# that writes it
TORN_OUTPUTS = [("trace.jsonl", "train-backbone"), ("mapping.tsv", "anonymize"),
                ("gazetteer.jsonl", "seca"), ("edits.jsonl", "seca"),
                ("trials.tsv", "build-trials"), ("scores.tsv", "evaluate"),
                ("report.json", "evaluate"), ("radar.csv", "report")]


@pytest.mark.parametrize("name,command", TORN_OUTPUTS,
                         ids=[n for n, _ in TORN_OUTPUTS])
def test_torn_output_write_keeps_previous_file(pipeline, tmp_path,
                                               torn_write_text, name, command):
    """A command whose write of ``name`` fails part-way leaves the file of
    the previous run as it was, and no temporary file."""
    _, world, bb, an, cfg = pipeline
    out = tmp_path / "o"
    if command == "report":
        runs = []
        for v in (2.46, 7.5):
            metrics = tmp_path / f"metrics{len(runs)}.json"
            metrics.write_text(json.dumps({"WER": v}))
            runs.append(["report", "--metrics", metrics])
    else:
        argv = (["train-backbone", "--config", cfg, "--data", world]
                if command == "train-backbone"
                else _command(command, world, bb, an))
        runs = [argv + ["--seed", seed] for seed in ("1", "2")]
    first, second = ([str(a) for a in run + ["--out", out]] for run in runs)
    assert main(first) == 0
    before = (out / name).read_bytes()
    with torn_write_text(name), pytest.raises(OSError, match="disk full"):
        main(second)
    assert (out / name).read_bytes() == before
    assert not [f.name for f in out.iterdir() if f.name.endswith(".tmp")]


def _sizes(lo, hi):
    return st.lists(st.integers(lo, hi), max_size=8)


# config key -> values of its type, in range and out of it; bounded above so
# that every accepted value still makes a small, fast run.  A trainer's
# ``seed`` is not a config key: ``--seed`` sets it
CONFIG_KEYS = {
    "world": {"D": st.integers(-2, 12), "F": st.integers(-2, 16),
              "v_common": st.integers(-2, 40), "n_speakers": st.integers(-2, 6),
              "utts_per_speaker": st.integers(-2, 4),
              "noise_sigma": st.floats(max_value=10.0),
              "duration_range": st.lists(st.floats(-5.0, 30.0), max_size=3),
              "pii_frac": st.floats()},
    "backbone": {"content_dim": st.integers(-2, 12), "hidden": _sizes(-1, 32),
                 "time_dim": st.integers(-2, 12),
                 "codebook_size": st.integers(-2, 200), "beta": st.floats(),
                 "lam": st.floats(), "steps": st.integers(-2, 20),
                 "batch": st.integers(-2, 300), "peak_lr": st.floats(),
                 "pct_start": st.floats(), "weight_decay": st.floats(),
                 "f_sem_noise": st.floats()},
    "anonymizer": {"level_dims": _sizes(-1, 10), "time_dim": st.integers(-2, 12),
                   "steps": st.integers(-2, 20), "batch": st.integers(-2, 300),
                   "peak_lr": st.floats(), "pct_start": st.floats(),
                   "weight_decay": st.floats(),
                   "n_embeddings": st.integers(-2, 300)},
}
# the rest of each section: a small, fast run on the pipeline's world
CONFIG_BASE = {"backbone": {"content_dim": 8, "hidden": [16], "steps": 10,
                            "batch": 32},
               "anonymizer": {"steps": 10, "batch": 16, "n_embeddings": 40}}


@st.composite
def _config_draw(draw):
    section = draw(st.sampled_from(sorted(CONFIG_KEYS)))
    key = draw(st.sampled_from(sorted(CONFIG_KEYS[section])))
    return section, key, draw(CONFIG_KEYS[section][key])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_config_draw())
def test_config_key_contract(pipeline, tmp_path, capsys, drawn):
    """One config key at a time, in range or out of it: the exit code is
    0, 2, 3 or 4 with at most one stderr line."""
    _, world, _, _, cfg = pipeline
    section, key, value = drawn
    doc = json.loads(Path(cfg).read_text())
    doc.update(CONFIG_BASE)
    doc[section] = {**doc[section], key: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    argv = (["gen-world"] if section == "world"
            else [f"train-{section}", "--data", world])
    capsys.readouterr()
    code = main([str(a) for a in argv + ["--config", path,
                                         "--out", tmp_path / "o"]])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (code, err)
    assert len(err.splitlines()) <= 1, err
