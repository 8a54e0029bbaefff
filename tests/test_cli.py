import json
import shutil

import numpy as np
import pytest

from anonflow.cli import (RADAR_DEFAULTS, RadarEntry, main, radar_normalize)
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

    def test_bad_strategy_exits_2(self, pipeline, tmp_path):
        _, world, bb, an, _ = pipeline
        assert main(["anonymize", "--data", str(world),
                     "--backbone", str(bb / "backbone"),
                     "--anonymizer", str(an / "anonymizer"),
                     "--strategy", "nonsense:9",
                     "--out", str(tmp_path / "a")]) == 2


def _short_mapping_row(tmp, world, bb, an):
    bad = tmp / "mapping.tsv"
    bad.write_text("spk000\t0.5\n")
    return (["seca", "--data", world, "--backbone", bb / "backbone",
             "--mapping", bad], "mapping.tsv:1")


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


def _truncate(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])


def _truncated_world_json(tmp, world, bb, an):
    shutil.copytree(world, tmp / "w")
    _truncate(tmp / "w" / "world.json")
    return (["build-trials", "--data", tmp / "w"], "world.json")


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
], ids=["short-mapping-row", "truncated-ckpt", "bad-jsonl-line",
        "unknown-backbone-key", "unknown-anonymizer-key", "unknown-world-key",
        "non-numeric-config-value", "two-column-trial", "non-integer-label",
        "label-out-of-range", "unknown-trial-speaker",
        "unknown-trial-utterance", "truncated-world-json",
        "truncated-backbone-json", "truncated-anonymizer-json",
        "utterance-without-frames", "short-p-norm", "token-out-of-range",
        "frames-row-short", "frames-column-narrow", "float-frames-per-token",
        "float-token", "speaker-embedding-short", "speaker-style-long",
        "speaker-embedding-null", "frames-null"])
def test_malformed_artifact_exit_code(pipeline, tmp_path, capsys, make_case,
                                      code):
    _, world, bb, an, _ = pipeline
    argv, named = make_case(tmp_path, world, bb, an)
    capsys.readouterr()
    assert main([str(a) for a in argv] + ["--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err and named in err
