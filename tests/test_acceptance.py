"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line when its assertions
hold (run with ``pytest -s tests/test_acceptance.py`` to see them live).
The desk-scale fixtures (world, backbone, anonymizer, per-weight attack
grid) are trained once per session at pinned seeds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anonflow
from anonflow.anonymizer import (AnonymizerConfig, WeightStrategy, encode,
                                 generate, obscure, train_anonymizer)
from anonflow.backbone import BackboneConfig, train_backbone
from anonflow.cli import RADAR_DEFAULTS, radar_normalize
from anonflow.content import ReplacementPool, anonymize_content, build_gazetteer
from anonflow.evaluation import build_trials, compute_eer, run_attack
from anonflow.nets import ConditionedField, UShapedField
from anonflow.pitch import normalize_pitch
from anonflow.vq import Codebook, QuantizeResult, codebook_grad, quantize
from anonflow.worldgen import (generate_world, make_world_params,
                               oracle_recover_tokens, sample_speaker_embedding)

from helpers import anonymized, token_error_rate

W_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)


def _ok(n, msg):
    print(f"[criterion {n:2d}] PASS  {msg}")


# ---------------------------------------------------------------------------
# desk-scale fixtures (pinned seeds)

@pytest.fixture(scope="module")
def desk_world():
    params = make_world_params(D=16, F=24, v_common=80, n_speakers=64,
                               noise_sigma=0.1, seed=0)
    ds = generate_world(params, 64, 12, np.random.default_rng(0),
                        duration_range=(6.0, 12.0), pii_frac=0.4)
    return params, ds


@pytest.fixture(scope="module")
def desk_backbone(desk_world):
    params, ds = desk_world
    cfg = BackboneConfig(codebook_size=params.V + 64, hidden=(128, 128),
                         steps=8000, seed=0)
    model, trace = train_backbone(ds, cfg, np.random.default_rng(0))
    return model, trace


@pytest.fixture(scope="module")
def desk_anonymizer(desk_world):
    params, _ = desk_world
    rng = np.random.default_rng(0)
    emb = np.stack([
        sample_speaker_embedding(params, ("male", "female")[i % 2], rng)
        for i in range(10_000)])
    cfg = AnonymizerConfig(seed=0)   # (16,8,4,2,4,8,16), 8000 steps
    model, _ = train_anonymizer(emb, cfg, rng)
    return model, emb


@pytest.fixture(scope="module")
def desk_trials(desk_world):
    _, ds = desk_world
    return build_trials(ds, "acoustic", np.random.default_rng(100))


@pytest.fixture(scope="module")
def attack_grid(desk_world, desk_backbone, desk_anonymizer, desk_trials):
    """EER_ig / EER_la and utility numbers for Fixed(w) across the grid."""
    _, ds = desk_world
    backbone, _ = desk_backbone
    anonymizer, _ = desk_anonymizer
    steps = 16
    out = {}
    for w in W_GRID:
        strat = WeightStrategy(kind="fixed", w=w)
        # one pinned seed for the whole sweep: every w sees the same
        # per-speaker z_rand draws, making the sweep a paired comparison
        anon, mapping = anonymized(
            backbone, anonymizer, ds, strat, steps,
            np.random.default_rng(201))
        rep_ig = run_attack(ds, anon, mapping, "ignorant", "acoustic",
                            np.random.default_rng(1), anonymizer=None,
                            strategy=None, steps=16, trials=desk_trials)
        rep_la = run_attack(ds, anon, None, "lazy_informed", "acoustic",
                            np.random.default_rng(2), anonymizer=anonymizer,
                            strategy=strat, steps=steps, trials=desk_trials)
        out[w] = {"ig": rep_ig.a_eer, "la": rep_la.a_eer,
                  "ter": rep_ig.token_error_rate, "secs": rep_ig.secs_proxy,
                  "anon": anon, "mapping": mapping}
    return out


# ---------------------------------------------------------------------------

def test_criterion_01_obscuration_exactness_and_variance():
    rng = np.random.default_rng(0)
    z_o, z_r = rng.standard_normal(16), rng.standard_normal(16)
    assert np.array_equal(obscure(z_o, z_r, 1.0), z_o)
    assert np.array_equal(obscure(z_o, z_r, 0.0), z_r)
    n = 100_000
    zo = rng.standard_normal((n, 4))
    zr = rng.standard_normal((n, 4))
    for w in W_GRID:
        var = obscure(zo, zr, w).var(axis=0)
        assert np.all((var >= 0.98) & (var <= 1.02)), (w, var)
    _ok(1, "obscure bit-exact at w∈{0,1}; unit variance across the grid")


def test_criterion_02_eer_oracle_equivalence():
    def brute(scores, labels):
        tar = [s for s, l in zip(scores, labels) if l == 1]
        non = [s for s, l in zip(scores, labels) if l == 0]
        ths = [-np.inf] + sorted(set(scores)) + [np.inf]
        pts = [(sum(1 for s in non if s >= th) / len(non),
                sum(1 for s in tar if s < th) / len(tar)) for th in ths]
        prev = pts[0]
        for cur in pts[1:]:
            d0, d1 = prev[0] - prev[1], cur[0] - cur[1]
            if d0 == 0.0:
                return 100.0 * prev[0]
            if d0 > 0.0 and d1 <= 0.0:
                if d1 == 0.0:
                    return 100.0 * cur[0]
                a = d0 / (d0 - d1)
                return 100.0 * (prev[0] + a * (cur[0] - prev[0]))
            prev = cur
        return 100.0 * pts[-1][0]

    rng = np.random.default_rng(7)
    inverted = 0
    for _ in range(200):
        n = int(rng.integers(4, 501))
        labels = np.zeros(n, dtype=int)
        labels[:int(rng.integers(1, n))] = 1
        scores = rng.standard_normal(n) + rng.uniform(-1.5, 1.5) * labels
        got = compute_eer(scores, labels)
        assert abs(got - brute(list(scores), list(labels))) < 1e-9
        inverted += got > 50.0
    assert inverted > 0   # the sweep covered >50% cases
    _ok(2, "compute_eer matches the O(n^2) sweep on 200 sets (incl. >50%)")


def test_criterion_03_gradient_fidelity():
    def check(field, x, t, cond, grads, loss_fn, h=1e-4):
        worst = 0.0
        for name, g in grads.items():
            p = field.params[name]
            fd = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                i = it.multi_index
                orig = p[i]
                p[i] = orig + h
                up = loss_fn()
                p[i] = orig - h
                dn = loss_fn()
                p[i] = orig
                fd[i] = (up - dn) / (2 * h)
                it.iternext()
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(fd), 1e-10)
            worst = max(worst, rel)
        return worst

    rng = np.random.default_rng(3)
    worst = 0.0
    for k in range(12):
        field = UShapedField((6, 4, 2, 4, 6), time_dim=8,
                             rng=np.random.default_rng(k), dtype=np.float64)
        for p in field.params.values():
            p += 0.3 * rng.standard_normal(p.shape)
        x = rng.standard_normal((3, 6))
        t = rng.uniform(0.1, 0.9, 3)
        tgt = rng.standard_normal((3, 6))

        def loss():
            return float(np.mean((field.forward(x, t, None)[0] - tgt) ** 2))

        y, cache = field.forward(x, t, None)
        grads = field.backward(cache, 2 * (y - tgt) / y.size)
        worst = max(worst, check(field, x, t, None, grads, loss))
    for k in range(8):
        field = ConditionedField(dim=5, local_dim=4, cond_dim=3,
                                 hidden=(12, 12), time_dim=8,
                                 rng=np.random.default_rng(50 + k),
                                 dtype=np.float64)
        for p in field.params.values():
            p += 0.3 * rng.standard_normal(p.shape)
        x = rng.standard_normal((3, 5))
        t = rng.uniform(0.1, 0.9, 3)
        cond = (rng.standard_normal((3, 4)), rng.standard_normal((3, 3)))
        tgt = rng.standard_normal((3, 5))

        def loss():
            return float(np.mean((field.forward(x, t, cond)[0] - tgt) ** 2))

        y, cache = field.forward(x, t, cond)
        grads = field.backward(cache, 2 * (y - tgt) / y.size)
        worst = max(worst, check(field, x, t, cond, grads, loss))
    assert worst < 1e-4, worst
    _ok(3, f"20 randomized finite-difference checks, max rel err {worst:.2e}")


def test_criterion_04_anonymizer_round_trip(desk_world, desk_anonymizer):
    params, _ = desk_world
    model, _ = desk_anonymizer
    rng = np.random.default_rng(900)   # held out from the training pool
    coss = []
    for i in range(50):
        s = sample_speaker_embedding(params, ("male", "female")[i % 2], rng)
        z = encode(model, s[None], 64)
        s2 = generate(model, obscure(z, z, 1.0), 64)[0]
        coss.append(s2 @ s / (np.linalg.norm(s2) * np.linalg.norm(s)))
    mean_cos = float(np.mean(coss))
    assert mean_cos >= 0.95, mean_cos
    _ok(4, f"w=1 round trip, 64 Euler steps: mean cosine {mean_cos:.4f}")


def test_criterion_05_ignorant_trend(attack_grid):
    eers = [attack_grid[w]["ig"] for w in W_GRID]
    for a, b in zip(eers, eers[1:]):
        assert a - b >= 3.0, eers
    _ok(5, "EER_ig over w grid: " + " > ".join(f"{e:.1f}" for e in eers))


def test_criterion_06_lazy_trend(attack_grid):
    la0 = attack_grid[0.0]["la"]
    assert la0 - attack_grid[-0.5]["la"] >= 3.0, attack_grid
    assert la0 - attack_grid[0.5]["la"] >= 3.0, attack_grid
    gap = abs(attack_grid[0.0]["ig"] - la0)
    assert gap <= 5.0, gap
    _ok(6, f"EER_la peaks at w=0 ({la0:.1f}); |EER_ig−EER_la| = {gap:.1f}")


def test_criterion_07_utility_preservation(attack_grid):
    ter = attack_grid[0.0]["ter"]
    secs = attack_grid[0.0]["secs"]
    assert ter <= 5.0, ter
    assert secs >= 0.8, secs
    _ok(7, f"Fixed(0): token error rate {ter:.2f}%, SECS proxy {secs:.3f}")


def test_criterion_08_ablation_direction(desk_world, desk_backbone,
                                         desk_anonymizer, desk_trials,
                                         attack_grid):
    params, ds = desk_world
    backbone, _ = desk_backbone
    anonymizer, _ = desk_anonymizer
    steps = 16
    identity_map = {s.id: (1.0, s.embedding) for s in ds.speakers}
    eer_id = run_attack(ds, ds, identity_map, "ignorant", "acoustic",
                        np.random.default_rng(1), anonymizer=None,
                        strategy=None, steps=16, trials=desk_trials).a_eer
    anon_p, map_p = anonymized(backbone, anonymizer, ds,
                               WeightStrategy(kind="pool"), steps,
                               np.random.default_rng(300))
    eer_pool = run_attack(ds, anon_p, map_p, "ignorant", "acoustic",
                          np.random.default_rng(1), anonymizer=None,
                          strategy=None, steps=16, trials=desk_trials).a_eer
    eer_f0 = attack_grid[0.0]["ig"]
    assert eer_pool - eer_id >= 40.0, (eer_pool, eer_id)
    assert eer_f0 - eer_id >= 40.0, (eer_f0, eer_id)

    # diversity mechanism: an identity flow trained on an 8-component
    # mixture covers every component uniformly when sampled at w=0
    rng = np.random.default_rng(5)
    centers = 2.0 * rng.standard_normal((8, 16))
    data = centers[rng.integers(8, size=4000)] + \
        0.15 * rng.standard_normal((4000, 16))
    mix_model, _ = train_anonymizer(data, AnonymizerConfig(seed=1),
                                    np.random.default_rng(6))
    samples = generate(mix_model, rng.standard_normal((2000, 16)), 16)
    assign = np.argmin(
        ((samples[:, None, :] - centers[None]) ** 2).sum(-1), axis=1)
    frac = np.bincount(assign, minlength=8) / 2000
    assert np.all(np.abs(frac - 0.125) <= 0.05), frac
    _ok(8, f"identity {eer_id:.1f} vs Fixed(0) {eer_f0:.1f} / pool "
           f"{eer_pool:.1f}; mixture coverage {frac.min():.3f}-{frac.max():.3f}")


def test_criterion_09_content_anonymization(desk_world, desk_backbone):
    params, ds = desk_world
    backbone, _ = desk_backbone
    gaz = build_gazetteer(ds)
    pool = ReplacementPool(ds.pool)
    steps = 16
    edited, reports = anonymize_content(backbone, ds, pool, gaz, steps,
                                        np.random.default_rng(400),
                                        mapping=None, p_asr=0.0)
    assert all(r["status"] == "ok" for r in reports)

    # locality: frames outside every edited span are bit-identical
    by_id = {u.id: u for u in edited.utterances}
    checked = 0
    for u in ds.utterances:
        e = by_id[u.id]
        if len(e.tokens) != len(u.tokens):
            continue   # length-shifted grid; locality is span-relative there
        fpt = u.frames_per_token
        mask = np.ones(u.n_frames, dtype=bool)
        for _, a, b in e.entity_spans:
            mask[a * fpt:b * fpt] = False
        assert np.array_equal(e.frames[mask], u.frames[mask])
        checked += 1
    assert checked > 0

    # 100% type-match audit on the replacement tokens
    for u in edited.utterances:
        for typ, a, b in u.entity_spans:
            assert all(gaz[tok] == typ for tok in u.tokens[a:b])

    # splice continuity: jumps at the edit boundaries stay within 3x the
    # natural token-transition jump size of the original data
    def jumps(utts, span_edges_only):
        out = []
        for u in utts:
            fpt = u.frames_per_token
            if span_edges_only:
                idx = []
                for _, a, b in u.entity_spans:
                    if a > 0:
                        idx.append(a * fpt - 1)
                    if b * fpt < u.n_frames:
                        idx.append(b * fpt - 1)
            else:   # every token boundary
                idx = [k * fpt - 1 for k in range(1, len(u.tokens))]
            for i in idx:
                out.append(np.linalg.norm(u.frames[i + 1] - u.frames[i]))
        return np.mean(out) if out else 0.0

    base = jumps(ds.utterances, span_edges_only=False)
    splice = jumps([u for u in edited.utterances if u.has_pii],
                   span_edges_only=True)
    assert splice <= 3.0 * base, (splice, base)

    # C-EER rises once the speaker-exclusive PII tokens are replaced
    trials = build_trials(ds, "content", np.random.default_rng(500))
    before = run_attack(ds, ds, None, "ignorant", "content",
                        np.random.default_rng(3), anonymizer=None,
                        strategy=None, steps=16, trials=trials).c_eer
    after = run_attack(ds, edited, None, "ignorant", "content",
                       np.random.default_rng(3), anonymizer=None,
                       strategy=None, steps=16, trials=trials).c_eer
    assert after > before, (before, after)

    # recognizer-corruption knob degrades transcript/frame agreement
    def pii_ter(dataset):
        errs = []
        for u in dataset.utterances:
            orig = next(o for o in ds.utterances if o.id == u.id)
            if not orig.has_pii:
                continue
            s = ds.speaker(u.speaker_id).embedding
            rec = oracle_recover_tokens(u.frames, u.p_norm, s, params)
            errs.append(token_error_rate(rec, u.tokens, u.frames_per_token))
        return float(np.mean(errs))

    corrupted, _ = anonymize_content(backbone, ds, pool, gaz, steps,
                                     np.random.default_rng(400),
                                     mapping=None, p_asr=0.05)
    clean_ter = pii_ter(edited)
    corrupt_ter = pii_ter(corrupted)
    assert corrupt_ter > clean_ter, (clean_ter, corrupt_ter)
    _ok(9, f"locality/type audit ok; splice {splice:.2f} ≤ 3×{base:.2f}; "
           f"C-EER {before:.1f}→{after:.1f}; p_asr TER "
           f"{clean_ter*100:.1f}%→{corrupt_ter*100:.1f}%")


def test_criterion_10_radar_normalization():
    spec = {e.name: e for e in RADAR_DEFAULTS}
    wer = radar_normalize(2.46, spec["WER"])
    aeer = radar_normalize(62.85, spec["A-EER"])
    assert round(wer, 4) == 0.9508
    assert round(aeer, 4) == 0.8380
    _ok(10, f"WER 2.46 → {wer:.4f}; A-EER 62.85 → {aeer:.4f}")


def test_criterion_11_pitch_normalization():
    res = normalize_pitch(np.array([220.0, 440.0, 880.0]))
    assert np.array_equal(res, [-12.0, 0.0, 12.0])
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        f0 = rng.uniform(80, 400, n)
        f0[rng.random(n) < 0.3] = 0.0
        if not np.any(f0 > 0):
            f0[0] = 200.0
        r, voiced = normalize_pitch(f0), f0 > 0
        assert np.median(r[voiced]) == 0.0
        assert np.all(r[~voiced] == 0.0)
    _ok(11, "octave ladder exact; voiced median exactly 0 on 1000 contours")


def test_criterion_12_end_to_end_reproducibility(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "world": {"D": 8, "F": 12, "v_common": 24, "n_speakers": 4,
                  "utts_per_speaker": 3, "noise_sigma": 0.05,
                  "duration_range": [6.0, 12.0], "pii_frac": 0.5},
        "backbone": {"content_dim": 8, "hidden": [48, 48], "steps": 400,
                     "batch": 128},
        "anonymizer": {"steps": 400, "batch": 64, "n_embeddings": 400},
    }))

    # the subprocesses do not get pytest's ``pythonpath`` setting, so they
    # are given the directory of the package under test
    paths = [str(Path(anonflow.__file__).parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}

    def run(root):
        def cli(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "anonflow.cli", *argv],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        w, bb, an = root / "world", root / "bb", root / "an"
        cli("gen-world", "--config", str(cfg), "--seed", "1", "--out", str(w))
        cli("train-backbone", "--config", str(cfg), "--seed", "1",
            "--data", str(w), "--out", str(bb))
        cli("train-anonymizer", "--config", str(cfg), "--seed", "1",
            "--data", str(w), "--out", str(an))
        cli("anonymize", "--data", str(w), "--backbone", str(bb / "backbone"),
            "--anonymizer", str(an / "anonymizer"), "--strategy", "fixed:0",
            "--seed", "1", "--out", str(root / "anon"))
        cli("evaluate", "--data", str(w), "--anon", str(root / "anon"),
            "--mapping", str(root / "anon" / "mapping.tsv"),
            "--attacker", "ignorant", "--mode", "acoustic", "--seed", "1",
            "--out", str(root / "eval"))

    run(tmp_path / "a")
    run(tmp_path / "b")
    for rel in ("bb/backbone.ckpt", "an/anonymizer.ckpt",
                "anon/mapping.tsv", "eval/trials.tsv", "eval/scores.tsv",
                "eval/report.json", "eval/manifest.json"):
        fa = (tmp_path / "a" / rel).read_bytes()
        fb = (tmp_path / "b" / rel).read_bytes()
        assert fa == fb, rel
    _ok(12, "two scripted runs byte-identical (checkpoints, trials, reports)")
