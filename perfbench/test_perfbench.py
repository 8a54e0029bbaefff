"""Tests of the benchmark's own code: output checks, span arithmetic and
the span patcher.  Run with ``python -m pytest perfbench``."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from anonflow import cli, evaluation, nets, worldgen  # noqa: E402
from anonflow.errors import UnmatchedEntityError  # noqa: E402


# ---------------------------------------------------------------------------
# output checks reject hand-corrupted artifacts

def test_reference_eer_matches_program_eer():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        scores = np.round(rng.normal(labels * 0.5, 1.0), int(rng.integers(0, 3)))
        assert checks.reference_eer(scores, labels) == evaluation.compute_eer(
            scores, labels)


def _write_eval(d: Path, scores, labels, eer):
    d.mkdir()
    (d / "scores.tsv").write_text("".join(
        f"spk\tutt{i}\t{lab}\t{s:.9g}\n"
        for i, (s, lab) in enumerate(zip(scores, labels))))
    (d / "report.json").write_text(json.dumps(
        {"a_eer": eer, "c_eer": None,
         "utility": {"token_error_rate": 1.0, "secs_proxy": 0.5}}))


def test_check_eer_rejects_eer_off_by_1e6(tmp_path):
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 300)
    scores = rng.normal(labels, 1.0)
    eer = evaluation.compute_eer(scores, labels)
    _write_eval(tmp_path / "ok", scores, labels, eer)
    _write_eval(tmp_path / "bad", scores, labels, eer + 1e-6)
    assert checks.check_eer(tmp_path / "ok", "a_eer", 300) is None
    assert checks.check_eer(tmp_path / "bad", "a_eer") is not None
    assert checks.check_eer(tmp_path / "ok", "a_eer", 301) is not None
    assert checks.check_eer(tmp_path / "ok", "c_eer") is not None


def _utt(uid, tokens, fpt=2, value=0.0):
    n = len(tokens) * fpt
    return {"id": uid, "speaker_id": "spk000", "tokens": list(tokens),
            "p_norm": [0.25] * n, "frames_per_token": fpt,
            "frames": [[value + i, -i] for i in range(n)], "frame_shape": (n, 2)}


def _write_jsonl(path: Path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _seca_case(tmp_path, corrupt=None):
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir(parents=True)
    out.mkdir()
    u = _utt("u0", [1, 2, 3, 4, 5])
    # tokens [1, 3) replaced by a 3-token entity: a length-mismatched edit
    v = _utt("u0", [1, 9, 9, 9, 4, 5])
    v["frames"] = [list(r) for r in u["frames"][:2] + [[7.0, 7.0]] * 6
                   + u["frames"][6:]]
    if corrupt:
        corrupt(v)
    _write_jsonl(src / "utterances.jsonl", [u])
    _write_jsonl(out / "utterances.jsonl", [v])
    _write_jsonl(out / "edits.jsonl", [{
        "utterance_id": "u0", "spans": [["PER", 1, 3]],
        "replacements": [["PER", 1, [9, 9, 9]]]}])
    return checks.check_seca(src, out)


def test_check_seca_accepts_edits_and_rejects_flipped_frame(tmp_path):
    assert _seca_case(tmp_path / "a") is None

    def flip_outside(v):
        v["frames"][-1][0] = math.nextafter(v["frames"][-1][0], 1.0)

    def nan_inside(v):
        v["frames"][3][1] = float("nan")

    assert "outside" in _seca_case(tmp_path / "b", flip_outside)
    assert "non-finite" in _seca_case(tmp_path / "c", nan_inside)


def _anon_case(tmp_path, corrupt=None, w="0.5"):
    world = [_utt("u0", [1, 2, 3]), _utt("u1", [4, 5, 6])]
    anon = [_utt("u0", [1, 2, 3], value=0.5), _utt("u1", [4, 5, 6], value=0.5)]
    if corrupt:
        corrupt(anon)
    d = tmp_path
    d.mkdir()
    _write_jsonl(d / "utterances.jsonl", anon)
    (d / "mapping.tsv").write_text(f"spk000\t{w}\t0.1,0.2\n")
    return checks.check_anonymize(world, d, 1, 0.5)


@pytest.mark.parametrize("corrupt", [
    lambda a: a[0]["tokens"].__setitem__(0, 7),
    lambda a: a[1]["p_norm"].__setitem__(2, 0.3),
    lambda a: a[1].__setitem__("frames_per_token", 1),
    lambda a: a[0]["frames"].pop(),
    lambda a: a[0]["frames"][0].__setitem__(0, float("nan")),
])
def test_check_anonymize_rejects_corruption(tmp_path, corrupt):
    assert _anon_case(tmp_path / "ok") is None
    assert _anon_case(tmp_path / "bad", corrupt) is not None


def test_check_anonymize_rejects_wrong_mapping(tmp_path):
    assert _anon_case(tmp_path / "w", w="0.4") is not None


def test_check_loss_trace_rejects_nan(tmp_path):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    _write_jsonl(good, [{"step": 0, "l_flow": 1.0, "l_commit": 0.1, "lr": 1e-3}])
    bad.write_text('{"step": 0, "l_flow": NaN, "l_commit": 0.1, "lr": 1e-3}\n')
    assert checks.check_loss_trace(good) is None
    assert checks.check_loss_trace(bad) is not None


def test_check_tensors_rejects_nan_and_shape():
    t = {"a": np.zeros((2, 3))}
    assert checks.check_tensors("m", t, {"a": (2, 3)}) is None
    assert checks.check_tensors("m", t, {"a": (3, 2)}) is not None
    assert checks.check_tensors("m", {"a": np.array([np.nan])}, {}) is not None


def test_check_same_manifests_rejects_drift(tmp_path):
    for name, h in (("a", "00"), ("b", "00"), ("c", "01")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.json").write_text(
            json.dumps({"outputs": {"x": h}}))
    assert checks.check_same_manifests({"x": tmp_path / "a"},
                                       {"x": tmp_path / "b"}) is None
    assert checks.check_same_manifests({"x": tmp_path / "a"},
                                       {"x": tmp_path / "c"}) is not None


# ---------------------------------------------------------------------------
# self-time arithmetic

def _span(name, parent, start, end):
    s = spans.Span(name, parent, "r")
    s.start, s.end = start, end
    return s


def test_self_times_on_synthetic_tree():
    tree = [_span("root", -1, 0.0, 10.0),
            _span("a", 0, 1.0, 4.0),
            _span("a.x", 1, 2.0, 3.0),
            _span("b", 0, 5.0, 9.0),
            _span("b.x", 3, 5.0, 7.0),
            _span("b.y", 3, 6.0, 8.0)]   # overlaps b.x: union counted once
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]
    assert sum(spans.self_times(tree)) == 11.0  # overlap counted in two selves
    assert spans.subtree(tree, 3) == [3, 4, 5]


def test_tracer_nests_and_records_errors():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    layer = spans.Layer("x.f", ("calls",))

    def fail():
        raise UnmatchedEntityError("none")

    with tracer.run("pass") as root:
        tracer.call(layer, lambda: tracer.call(layer, lambda: 1, (), {}), (), {})
        with pytest.raises(UnmatchedEntityError):
            tracer.call(layer, fail, (), {})
    parents = [s.parent for s in tracer.spans]
    assert parents == [-1, root, 1, root]
    assert [s.error for s in tracer.spans] == [None, None, None,
                                               "UnmatchedEntityError"]
    assert all(s.run_id == "pass" for s in tracer.spans)
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# the patcher rebinds every import site and leaves nothing behind

IMPORT_SITES = [
    ("anonflow.backbone", "quantize"), ("anonflow.vq", "quantize"),
    ("anonflow.backbone", "integrate"), ("anonflow.anonymizer", "integrate"),
    ("anonflow.flowmath", "integrate"),
    ("anonflow.evaluation", "oracle_extract_speaker"),
    ("anonflow.backbone", "oracle_extract_speaker"),
    ("anonflow.cli", "load_dataset"), ("anonflow.cli", "save_dataset"),
    ("anonflow.cli", "run_attack"), ("anonflow.cli", "cmd_evaluate"),
    ("anonflow.content", "reconstruct"), ("anonflow.nets", "time_embed"),
]


def _attr(mod, name):
    return vars(sys.modules[mod])[name]


def test_patcher_rebinds_every_site_and_restores():
    before = {site: _attr(*site) for site in IMPORT_SITES}
    fwd = vars(nets.ConditionedField)["forward"]
    pinv = vars(worldgen.WorldParams)["c_pinv"]
    with spans.traced(spans.Tracer()):
        for site in IMPORT_SITES:
            assert hasattr(_attr(*site), "__perfbench_layer__"), site
        for cls in (nets.ConditionedField, nets.UShapedField):
            assert hasattr(vars(cls)["forward"], "__perfbench_layer__")
            assert hasattr(vars(cls)["backward"], "__perfbench_layer__")
        assert hasattr(vars(worldgen.WorldParams)["c_pinv"].fget,
                       "__perfbench_layer__")
    assert spans.leftover_wrappers() == []
    assert all(_attr(*site) is before[site] for site in IMPORT_SITES)
    assert vars(nets.ConditionedField)["forward"] is fwd
    assert vars(worldgen.WorldParams)["c_pinv"] is pinv


def test_patcher_fails_loudly_on_unreachable_reference(monkeypatch):
    # a dispatch table holds the original where rebinding cannot reach it
    monkeypatch.setattr(evaluation, "_TABLE", {"eer": evaluation.compute_eer},
                        raising=False)
    with pytest.raises(RuntimeError, match="evaluation._TABLE"):
        with spans.traced(spans.Tracer()):
            pass
    assert spans.leftover_wrappers() == []


def test_patcher_restores_after_error():
    with pytest.raises(KeyError):
        with spans.traced(spans.Tracer()):
            raise KeyError("boom")
    assert spans.leftover_wrappers() == []


def test_traced_command_is_transparent_and_self_times_add_up(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"world": {"n_speakers": 2, "utts_per_speaker": 2}}))
    assert cli.main(["gen-world", "--config", str(cfg), "--seed", "3",
                     "--out", str(tmp_path / "plain")]) == 0
    tracer = spans.Tracer()
    with spans.traced(tracer):
        with tracer.run("pass") as root:
            assert cli.main(["gen-world", "--config", str(cfg), "--seed", "3",
                             "--out", str(tmp_path / "traced")]) == 0
    for name in ("utterances.jsonl", "manifest.json"):
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "traced" / name).read_bytes())
    sp = tracer.spans
    selfs = spans.self_times(sp)
    (cmd,) = [i for i, s in enumerate(sp) if s.parent == root]
    assert sp[cmd].name == "cli.gen-world"
    total = sum(selfs[j] for j in spans.subtree(sp, cmd))
    assert total == pytest.approx(sp[cmd].end - sp[cmd].start, abs=1e-9)
    m = spans.layer_metrics(sp, selfs, spans.subtree(sp, root))
    assert m["pitch.normalize_pitch.calls"] == 4
    assert m["worldgen.save_dataset.bytes"] > 0
    assert m["cli.write_manifest.bytes"] == (
        tmp_path / "traced" / "manifest.json").stat().st_size
    assert m["vq.quantize.calls"] == 0


# ---------------------------------------------------------------------------

def test_benchmark_json_declares_every_per_layer_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["per_layer"] == spans.per_layer_spec()
    assert len(doc["per_layer"]) <= 128


def test_run_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
