import collections
import json
import tracemalloc

import numpy as np
import pytest

import anonflow.anonymizer as anonymizer_mod
import anonflow.backbone as backbone_mod
from anonflow.anonymizer import (FRAME_STEPS, AnonymizerConfig,
                                 WeightStrategy, anonymize_speaker,
                                 anonymize_stream, draw_speakers, encode,
                                 load_anonymizer, load_mapping, obscure,
                                 save_anonymizer, save_mapping,
                                 solve_speakers, train_anonymizer)
from anonflow.backbone import (BackboneConfig, BackboneModel, frame_runs,
                               reconstruct)
from anonflow.cli import main
from anonflow.errors import ConfigError, DivergenceError, InputError
from anonflow.nets import UShapedField
from anonflow.worldgen import (Dataset, generate_world, make_world_params,
                               save_dataset, stacked_frame_tokens)

from helpers import anonymized


def small_config(steps=300):
    return AnonymizerConfig(level_dims=(8, 4, 2, 4, 8), steps=steps,
                            batch=64, seed=2)


class TestObscure:
    def test_w1_returns_original_bit_exact(self):
        rng = np.random.default_rng(0)
        z_o, z_r = rng.standard_normal(8), rng.standard_normal(8)
        out = obscure(z_o, z_r, 1.0)
        assert np.array_equal(out, z_o)

    def test_w0_returns_noise_bit_exact(self):
        rng = np.random.default_rng(1)
        z_o, z_r = rng.standard_normal(8), rng.standard_normal(8)
        out = obscure(z_o, z_r, 0.0)
        assert np.array_equal(out, z_r)

    @pytest.mark.parametrize("w", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_unit_variance_preserved(self, w):
        rng = np.random.default_rng(42)
        n = 100_000
        z_o = rng.standard_normal((n, 4))
        z_r = rng.standard_normal((n, 4))
        out = obscure(z_o, z_r, w)
        var = out.var(axis=0)
        assert np.all(var > 0.98) and np.all(var < 1.02)

    def test_weight_out_of_range_rejected(self):
        # obscure's weights come from a WeightStrategy, which owns the range
        for text in ("fixed:1.5", "fixed:-1.5", "range:0.5:1.5",
                     "range:-1.5:0.5"):
            with pytest.raises(ConfigError, match=f"bad strategy '{text}'"):
                WeightStrategy.parse(text)

    def test_per_row_weights_match_scalar_blend(self):
        rng = np.random.default_rng(5)
        z_o, z_r = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        w = np.array([-0.5, 0.25, 1.0])
        out = obscure(z_o, z_r, w)
        for i in range(3):
            assert np.array_equal(out[i], obscure(z_o[i], z_r[i], float(w[i])))


class TestStrategy:
    def test_parse_fixed(self):
        s = WeightStrategy.parse("fixed:0.5")
        assert s.kind == "fixed" and s.w == 0.5

    def test_parse_range_and_pool(self):
        s = WeightStrategy.parse("range:-0.25:0.75")
        assert (s.a, s.b) == (-0.25, 0.75)
        assert WeightStrategy.parse("pool").kind == "pool"

    def test_parse_garbage_rejected(self):
        with pytest.raises(ConfigError):
            WeightStrategy.parse("gaussian:0.1")

    def test_invalid_bounds_rejected(self):
        with pytest.raises(InputError):
            WeightStrategy(kind="range", a=0.5, b=0.5)
        with pytest.raises(InputError):
            WeightStrategy(kind="fixed", w=2.0)

    def test_range_draw_within_bounds(self):
        s = WeightStrategy(kind="range", a=-0.5, b=0.5)
        rng = np.random.default_rng(0)
        draws = [s.draw_w(rng) for _ in range(200)]
        assert all(-0.5 <= d <= 0.5 for d in draws)
        assert len(set(draws)) > 100


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(7)
    emb = rng.standard_normal((400, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    model, trace = train_anonymizer(emb, small_config(), np.random.default_rng(8))
    return model, trace, emb


class TestTraining:
    def test_loss_decreases(self, trained):
        _, trace, _ = trained
        early = np.mean([t["l_flow"] for t in trace[:10]])
        late = np.mean([t["l_flow"] for t in trace[-10:]])
        assert late < early

    @pytest.mark.parametrize("dims", [(16, 8), (8, 4, 8, 4), (8, 4, 4, 8)])
    def test_level_dims_shape_rejected(self, dims):
        with pytest.raises(ConfigError, match="anonymizer.level_dims"):
            AnonymizerConfig(level_dims=dims)

    @pytest.mark.parametrize("dims", [(8,), (8, 8), (8, 4, 8),
                                      (8, 4, 2, 4, 8)])
    def test_level_dims_the_field_takes_accepted(self, dims):
        assert AnonymizerConfig(level_dims=dims).level_dims == dims
        UShapedField(dims, 16, np.random.default_rng(0), np.float32)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            train_anonymizer(np.zeros((4, 5)), small_config(),
                             np.random.default_rng(0))

    def test_too_few_embeddings_rejected(self, world, tmp_path, capsys):
        # train-anonymizer's n_embeddings check owns the rule
        save_dataset(world, tmp_path / "w")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"anonymizer": {"n_embeddings": 1}}))
        assert main(["train-anonymizer", "--data", str(tmp_path / "w"),
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: anonymizer.n_embeddings must be >= 2, got 1\n")

    @pytest.mark.parametrize("spoil,message,step", [
        ("loss", "anonymizer: non-finite loss at step 2", 2),
        ("lin3.W", "anonymizer: non-finite gradient for lin3.W", 3),
    ], ids=["loss", "gradient"])
    def test_divergence_names_the_model(self, monkeypatch, spoil, message,
                                        step):
        # the third step's loss, or one of its gradients, is NaN; AdamW
        # counts its steps from 1
        real, calls = anonymizer_mod.cfm_loss, []

        def diverging(field, x1, cond, rng):
            loss, grads = real(field, x1, cond, rng)
            calls.append(loss)
            if len(calls) == 3 and spoil == "loss":
                loss = np.nan
            elif len(calls) == 3:
                grads[spoil] = np.full_like(grads[spoil], np.nan)
            return loss, grads

        monkeypatch.setattr(anonymizer_mod, "cfm_loss", diverging)
        emb = np.random.default_rng(7).standard_normal((16, 8))
        with pytest.raises(DivergenceError) as ei:
            train_anonymizer(emb, small_config(steps=5),
                             np.random.default_rng(8))
        assert (str(ei.value), ei.value.step) == (message, step)


@pytest.fixture(scope="module")
def world():
    p = make_world_params(D=8, F=12, v_common=24, n_speakers=4, seed=0,
                          noise_sigma=0.05)
    return generate_world(p, 4, 3, np.random.default_rng(0),
                          duration_range=(3.0, 18.0), pii_frac=0.3)


@pytest.fixture
def voiced_ids(monkeypatch):
    """Stand in for the frame flow; records (identity, n_frames) per call.

    Returns a function that expands the calls to one identity per
    utterance, checking that each call covered whole utterances.
    """
    calls = []

    def fake_reconstruct(backbone, frame_tokens, p_norm, s, steps, noise):
        calls.append((np.array(s), len(frame_tokens)))
        return np.zeros((len(frame_tokens), 12))

    monkeypatch.setattr(anonymizer_mod, "reconstruct", fake_reconstruct)

    def per_utterance(utterances):
        out, left = [], list(utterances)
        for s, n_frames in calls:
            while n_frames > 0:
                n_frames -= left.pop(0).n_frames
                out.append(s)
            assert n_frames == 0
        assert not left
        return out

    return per_utterance


STRATEGIES = [WeightStrategy(kind="fixed", w=0.5),
              WeightStrategy(kind="range", a=-1.0, b=1.0),
              WeightStrategy(kind="pool")]


class TestPipeline:
    def test_fixed_one_round_trip_close(self, trained):
        model, _, emb = trained
        steps = 64
        strat = WeightStrategy(kind="fixed", w=1.0)
        s_anon, w = anonymize_speaker(model, emb[:10], strat,
                                      np.random.default_rng(0), steps,
                                      pool=emb[:10], exclude=range(10))
        assert np.all(w == 1.0)
        coss = np.sum(s_anon * emb[:10], axis=1) / (
            np.linalg.norm(s_anon, axis=1) * np.linalg.norm(emb[:10], axis=1))
        assert np.mean(coss) > 0.8   # loose: short training run

    @pytest.mark.parametrize("exclude", [[0, 0, 0, 0, 0], [2, 0, 1, 2, 0]])
    @pytest.mark.parametrize("strat", STRATEGIES, ids=lambda s: s.kind)
    def test_batch_matches_one_row_calls(self, trained, strat, exclude):
        model, _, emb = trained
        steps = 8
        batch, pool = emb[:5], emb[10:13]
        s_b, w_b = anonymize_speaker(model, batch, strat,
                                     np.random.default_rng(3), steps,
                                     pool=pool, exclude=exclude)
        rng = np.random.default_rng(3)
        rows = [anonymize_speaker(model, batch[i:i + 1], strat, rng, steps,
                                  pool=pool, exclude=exclude[i:i + 1])
                for i in range(5)]
        assert s_b.shape == (5, 8)
        if strat.kind == "pool":
            assert w_b is None and all(w is None for _, w in rows)
            assert np.array_equal(s_b, np.concatenate([s for s, _ in rows]))
            picks = [int(np.flatnonzero((pool == r).all(axis=1))[0]) for r in s_b]
            assert all(j != k for j, k in zip(picks, exclude))
        else:
            assert np.array_equal(w_b, np.concatenate([w for _, w in rows]))
            assert np.array_equal(s_b, np.concatenate([s for s, _ in rows]))

    def test_single_vector_rejected(self, trained):
        model, _, emb = trained
        steps = 8
        with pytest.raises(InputError):
            anonymize_speaker(model, emb[0], WeightStrategy(kind="fixed"),
                              np.random.default_rng(0), steps, pool=emb,
                              exclude=[0])

    def test_per_speaker_memoization(self, trained, world, voiced_ids):
        model, _, _ = trained
        steps = 8
        strat = WeightStrategy(kind="range", a=-1.0, b=1.0)
        _, mapping = anonymized(None, model, world, strat, steps,
                                np.random.default_rng(3))
        assert sorted(mapping) == sorted(s.id for s in world.speakers)
        for u, s in zip(world.utterances, voiced_ids(world.utterances)):
            assert np.array_equal(s, mapping[u.speaker_id][1])
        ids = [mapping[sid][1] for sid in mapping]
        assert not np.array_equal(ids[0], ids[1])

    def test_pool_draws_from_pool(self, trained):
        model, _, emb = trained
        steps = 8
        strat = WeightStrategy(kind="pool")
        pool = [emb[0], emb[1], emb[2]]
        for seed in range(8):     # the own row 0 is never drawn
            s_anon, w = anonymize_speaker(model, emb[:1], strat,
                                          np.random.default_rng(seed), steps,
                                          pool=pool, exclude=[0])
            assert w is None
            assert any(np.array_equal(s_anon[0], p) for p in pool[1:])

    def test_pool_requires_pool(self, trained):
        model, _, emb = trained
        steps = 8
        with pytest.raises(InputError):
            anonymize_speaker(model, emb[:1], WeightStrategy(kind="pool"),
                              np.random.default_rng(0), steps, pool=[],
                              exclude=[0])
        with pytest.raises(InputError):   # excluding the only row leaves none
            anonymize_speaker(model, emb[:1], WeightStrategy(kind="pool"),
                              np.random.default_rng(0), steps, pool=emb[:1],
                              exclude=[0])


@pytest.fixture(scope="module")
def frame_model(world):
    """An untrained backbone whose speaker modulation is switched on."""
    p = world.params
    model = BackboneModel(frame_dim=p.F, speaker_dim=p.D, vocab_size=p.V,
                          config=BackboneConfig(content_dim=8, hidden=(16, 16)))
    model.codebook.entries = model.f_sem(np.arange(p.V))
    rng = np.random.default_rng(4)
    for k, v in model.field.params.items():
        if k.startswith("mod"):
            model.field.params[k] = (0.3 * rng.standard_normal(v.shape)
                                     ).astype(v.dtype)
    return model


def per_utterance_reference(backbone, anonymizer, dataset, strategy, steps,
                            rng):
    """One identity solve and one ``reconstruct`` per utterance, in order,
    each drawing its randomness just before it runs."""
    embs = np.array([s.embedding for s in dataset.speakers])
    row = {s.id: k for k, s in enumerate(dataset.speakers)}
    voice, frames = {}, []
    for u in dataset.utterances:
        k = row[u.speaker_id]
        if u.speaker_id not in voice:
            s_anon, _ = anonymize_speaker(anonymizer, embs[k:k + 1], strategy,
                                          rng, steps, pool=embs, exclude=[k])
            voice[u.speaker_id] = s_anon[0]
        noise = rng.standard_normal((u.n_frames, dataset.params.F))
        frames.append(reconstruct(backbone, stacked_frame_tokens([u]), u.p_norm,
                                  voice[u.speaker_id], FRAME_STEPS, noise))
    return frames, voice


def _orders(world):
    utts = world.utterances
    # "revisit": spk000's last utterance comes after every other speaker's
    return {"grouped": world,
            "revisit": Dataset(params=world.params, speakers=world.speakers,
                               utterances=utts[:2] + utts[3:] + utts[2:3],
                               pool=world.pool)}


def eager_reference(backbone, anonymizer, dataset, strategy, steps, rng):
    """``anonymize_stream`` as it was before it streamed: the walk keeps
    every run's noise, and every run is solved before any frames are
    returned.  Returns (frames per utterance, mapping)."""
    embs = np.array([s.embedding for s in dataset.speakers])
    row = {s.id: k for k, s in enumerate(dataset.speakers)}
    utts = dataset.utterances
    runs = frame_runs([u.speaker_id for u in utts],
                      [u.n_frames for u in utts], anonymizer_mod.RUN_FRAMES)
    first, ws, zs, noise = {}, [], [], []
    for run in runs:
        sid = utts[run[0]].speaker_id
        if sid not in first:
            first[sid] = len(first)
            w, z = draw_speakers(strategy, rng, 1, embs.shape[1], pool=embs,
                                 exclude=[row[sid]])
            ws.append(w)
            zs.append(z)
        noise.append(rng.standard_normal(
            (sum(utts[i].n_frames for i in run), dataset.params.F)))
    draws = (None if strategy.kind == "pool" else np.reshape(ws, -1),
             np.reshape(zs, (-1, embs.shape[1])))
    s_anon, w = solve_speakers(anonymizer, embs[[row[sid] for sid in first]],
                               draws, steps)
    mapping = {sid: (None if w is None else float(w[i]), s_anon[i])
               for sid, i in first.items()}
    frames = []
    for run, x0 in zip(runs, noise):
        out = reconstruct(backbone,
                          stacked_frame_tokens([utts[i] for i in run]),
                          np.concatenate([utts[i].p_norm for i in run]),
                          mapping[utts[run[0]].speaker_id][1], FRAME_STEPS,
                          x0)
        frames += np.split(out, np.cumsum([utts[i].n_frames
                                           for i in run])[:-1])
    return frames, mapping


class TestFrameRuns:
    """anonymize_stream makes one reconstruct per identity run."""

    @pytest.mark.parametrize("cap", ["default", "cut"])
    @pytest.mark.parametrize("strat", STRATEGIES, ids=lambda s: s.kind)
    def test_stream_matches_eager_reference(self, trained, world,
                                            frame_model, monkeypatch, strat,
                                            cap):
        # every draw is made before the stream is read, and the stream
        # yields the eager frames bit for bit, in dataset order
        if cap == "cut":
            monkeypatch.setattr(anonymizer_mod, "RUN_FRAMES",
                                max(u.n_frames for u in world.utterances))
        model, _, _ = trained
        for ds in _orders(world).values():
            rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            anon, mapping = anonymize_stream(frame_model, model, ds, strat, 8,
                                             rng)
            frames, ref_mapping = eager_reference(frame_model, model, ds,
                                                  strat, 8, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert list(mapping) == list(ref_mapping)
            for sid, (w, s_anon) in mapping.items():
                assert w == ref_mapping[sid][0]
                assert np.array_equal(s_anon, ref_mapping[sid][1])
            got = list(anon.utterances)
            assert [u.id for u in got] == [u.id for u in ds.utterances]
            for u, orig, f in zip(got, ds.utterances, frames):
                assert np.array_equal(u.frames, f)
                assert u.tokens is orig.tokens and u.p_norm is orig.p_norm

    def test_stream_holds_one_run(self, trained, monkeypatch):
        # 32 utterances of 160-240 frames (1.2 MB of frames) in runs of at
        # most 480 frames: draining the stream holds one run's noise,
        # frames and ODE work arrays above the level at the call, under 8
        # runs' frame bytes; the eager form held every run's frames
        p = make_world_params(D=8, F=24, v_common=24, n_speakers=4, seed=3,
                              noise_sigma=0.05)
        ds = generate_world(p, 4, 8, np.random.default_rng(3),
                            duration_range=(40.0, 60.0), pii_frac=0.3)
        backbone = BackboneModel(frame_dim=p.F, speaker_dim=p.D,
                                 vocab_size=p.V,
                                 config=BackboneConfig(content_dim=8,
                                                       hidden=(16, 16)))
        backbone.codebook.entries = backbone.f_sem(np.arange(p.V))
        monkeypatch.setattr(anonymizer_mod, "RUN_FRAMES", 480)
        run_bytes = 480 * p.F * 8
        assert sum(u.frames.nbytes for u in ds.utterances) > 12 * run_bytes
        model, _, _ = trained
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            anon, _ = anonymize_stream(backbone, model, ds,
                                       WeightStrategy(kind="fixed", w=0.5),
                                       4, np.random.default_rng(1))
            collections.deque(anon.utterances, maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 8 * run_bytes

    @pytest.mark.parametrize("cap", ["default", "cut"])
    @pytest.mark.parametrize("strat", STRATEGIES, ids=lambda s: s.kind)
    def test_noise_draws_match_per_utterance_loop(self, trained, world,
                                                  frame_model, monkeypatch,
                                                  strat, cap):
        rows = []

        def identity(field, x, steps, cond=None):
            rows.append(len(x))
            return x

        monkeypatch.setattr(backbone_mod, "integrate", identity)
        if cap == "cut":
            # every utterance fits alone, but a speaker's run must be split
            max_rows = max(u.n_frames for u in world.utterances)
            monkeypatch.setattr(anonymizer_mod, "RUN_FRAMES", max_rows)
        model, _, _ = trained
        steps = 8
        for ds in _orders(world).values():
            rows.clear()
            anon, mapping = anonymized(frame_model, model, ds, strat, steps,
                                       np.random.default_rng(3))
            if cap == "cut":
                assert max(rows) <= max_rows
                assert len(rows) > len(mapping)
            ref, voice = per_utterance_reference(frame_model, model, ds, strat,
                                                 steps, np.random.default_rng(3))
            for u, f in zip(anon.utterances, ref):
                assert np.array_equal(u.frames, f)
            for sid, (_, s_anon) in mapping.items():
                assert np.array_equal(s_anon, voice[sid])

    def test_frames_close_to_per_utterance_loop(self, trained, world,
                                                frame_model):
        model, _, _ = trained
        strat = WeightStrategy(kind="range", a=-1.0, b=1.0)
        steps = 8
        for ds in _orders(world).values():
            anon, _ = anonymized(frame_model, model, ds, strat, steps,
                                 np.random.default_rng(3))
            ref, _ = per_utterance_reference(frame_model, model, ds, strat,
                                             steps, np.random.default_rng(3))
            for u, f in zip(anon.utterances, ref):
                assert u.frames.shape == f.shape
                assert np.allclose(u.frames, f, rtol=0, atol=1e-5)

    def test_divergence_names_the_run(self, trained, world, frame_model,
                                      monkeypatch):
        def diverge(field, x, steps, cond=None):
            raise DivergenceError("non-finite state at step 3", step=3)

        monkeypatch.setattr(backbone_mod, "integrate", diverge)
        model, _, _ = trained
        steps = 8
        with pytest.raises(DivergenceError) as ei:
            anonymized(frame_model, model, world,
                       WeightStrategy(kind="fixed", w=0.5), steps,
                       np.random.default_rng(3))
        first, last = world.utterances[0].id, world.utterances[2].id
        assert f"utterances {first}..{last}:" in str(ei.value)
        assert ei.value.step == 3

    @pytest.mark.parametrize("order", ["grouped", "revisit"])
    def test_identity_divergence_names_first_utterance(self, trained, world,
                                                       frame_model,
                                                       monkeypatch, order):
        # the one identity batch holds the speakers in first-seen order;
        # its row 2 is the third speaker, first seen in its first utterance
        def diverge(field, x, steps, cond=None, *, backward=False):
            assert len(x) == len(world.speakers)
            raise DivergenceError("non-finite state at step 5", step=5, row=2)

        monkeypatch.setattr(anonymizer_mod, "integrate", diverge)
        model, _, _ = trained
        ds = _orders(world)[order]
        seen = list(dict.fromkeys(u.speaker_id for u in ds.utterances))
        named = next(u for u in ds.utterances if u.speaker_id == seen[2])
        with pytest.raises(DivergenceError) as ei:
            anonymized(frame_model, model, ds,
                       WeightStrategy(kind="fixed", w=0.5), 8,
                       np.random.default_rng(3))
        assert str(ei.value) == f"utterance {named.id}: non-finite state at step 5"
        assert ei.value.step == 5


class TestPersistence:
    def test_model_round_trip(self, trained, tmp_path):
        model, _, emb = trained
        save_anonymizer(model, tmp_path / "anon")
        model2 = load_anonymizer(tmp_path / "anon")
        steps = 8
        assert np.allclose(encode(model, emb[:1], steps),
                           encode(model2, emb[:1], steps), atol=1e-6)
        assert model2.metadata["data_hash"] == model.metadata["data_hash"]

    def test_mapping_round_trip(self, world, tmp_path):
        ids = 0.25 * np.arange(8) - 1.0     # exact in 9 digits
        mapping = {s.id: (None if k % 2 else 0.5, ids + k)
                   for k, s in enumerate(world.speakers)}
        save_mapping(mapping, tmp_path / "map.tsv")
        back = load_mapping(tmp_path / "map.tsv", world)
        assert back["spk001"][0] is None
        assert back["spk000"][0] == 0.5
        for sid, (_, s_anon) in mapping.items():
            assert np.array_equal(back[sid][1], s_anon)
