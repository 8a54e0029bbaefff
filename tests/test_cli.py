import json
import shutil
from pathlib import Path

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from anonflow.checkpoint import load_checkpoint, save_checkpoint
from anonflow.cli import (RADAR_DEFAULTS, RadarEntry, main, radar_normalize,
                          write_manifest)
from anonflow.errors import ConfigError


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

    def test_manifests_written(self, pipeline):
        _, world, bb, an, _ = pipeline
        for d in (world, bb, an):
            man = json.loads((d / "manifest.json").read_text())
            assert "outputs" in man and man["outputs"]
            assert "seeds" in man

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
    (_world_json(lambda d: d.update(C=d["C"][:-1]), "imprint matrix"), 4),
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
    (_ignorant_with("--strategy", lambda tmp, an: "fixed:9", "'fixed:9'"), 2),
    (_ignorant_with("--strategy", lambda tmp, an: "gauss:1", "'gauss:1'"), 2),
    (_ignorant_with("--anonymizer", lambda tmp, an: tmp / "absent",
                    "absent.json"), 2),
    (_ignorant_with("--anonymizer", _truncated_anonymizer,
                    "anonymizer.json"), 4),
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
        "ignorant-strategy-out-of-range", "ignorant-strategy-unknown",
        "ignorant-anonymizer-missing", "ignorant-anonymizer-truncated"])
def test_malformed_artifact_exit_code(pipeline, tmp_path, capsys, make_case,
                                      code):
    _, world, bb, an, _ = pipeline
    argv, named = make_case(tmp_path, world, bb, an)
    capsys.readouterr()
    assert main([str(a) for a in argv] + ["--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err and named in err


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
# that every accepted value still makes a small, fast run
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
                 "f_sem_noise": st.floats(), "seed": st.integers(-2, 9)},
    "anonymizer": {"level_dims": _sizes(-1, 10), "time_dim": st.integers(-2, 12),
                   "steps": st.integers(-2, 20), "batch": st.integers(-2, 300),
                   "peak_lr": st.floats(), "pct_start": st.floats(),
                   "weight_decay": st.floats(), "seed": st.integers(-2, 9),
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
