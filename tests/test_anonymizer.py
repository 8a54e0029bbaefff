import numpy as np
import pytest

import anonflow.anonymizer as anonymizer_mod
import anonflow.backbone as backbone_mod
from anonflow.anonymizer import (AnonymizerConfig, ObscurationInput,
                                 WeightStrategy, anonymize_dataset,
                                 anonymize_speaker, encode, generate,
                                 load_anonymizer, load_mapping, obscure,
                                 save_anonymizer, save_mapping,
                                 train_anonymizer)
from anonflow.backbone import BackboneConfig, BackboneModel, reconstruct
from anonflow.errors import ConfigError, DivergenceError, InputError
from anonflow.flowmath import IntegrationSpec
from anonflow.worldgen import Dataset, generate_world, make_world_params


def small_config(steps=300):
    return AnonymizerConfig(level_dims=(8, 4, 2, 4, 8), steps=steps,
                            batch=64, seed=2)


class TestObscure:
    def test_w1_returns_original_bit_exact(self):
        rng = np.random.default_rng(0)
        z_o, z_r = rng.standard_normal(8), rng.standard_normal(8)
        out = obscure(ObscurationInput(z_orig=z_o, z_rand=z_r, w=1.0))
        assert np.array_equal(out, z_o)

    def test_w0_returns_noise_bit_exact(self):
        rng = np.random.default_rng(1)
        z_o, z_r = rng.standard_normal(8), rng.standard_normal(8)
        out = obscure(ObscurationInput(z_orig=z_o, z_rand=z_r, w=0.0))
        assert np.array_equal(out, z_r)

    @pytest.mark.parametrize("w", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_unit_variance_preserved(self, w):
        rng = np.random.default_rng(42)
        n = 100_000
        z_o = rng.standard_normal((n, 4))
        z_r = rng.standard_normal((n, 4))
        out = obscure(ObscurationInput(z_orig=z_o, z_rand=z_r, w=w))
        var = out.var(axis=0)
        assert np.all(var > 0.98) and np.all(var < 1.02)

    def test_weight_out_of_range_rejected(self):
        with pytest.raises(InputError):
            ObscurationInput(z_orig=np.zeros(2), z_rand=np.zeros(2), w=1.5)
        with pytest.raises(InputError):
            ObscurationInput(z_orig=np.zeros((2, 2)), z_rand=np.zeros((2, 2)),
                             w=np.array([0.5, -1.5]))

    def test_per_row_weights_match_scalar_blend(self):
        rng = np.random.default_rng(5)
        z_o, z_r = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        w = np.array([-0.5, 0.25, 1.0])
        out = obscure(ObscurationInput(z_orig=z_o, z_rand=z_r, w=w))
        for i in range(3):
            assert np.array_equal(out[i], obscure(ObscurationInput(
                z_orig=z_o[i], z_rand=z_r[i], w=float(w[i]))))


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

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            train_anonymizer(np.zeros((4, 5)), small_config(),
                             np.random.default_rng(0))

    def test_too_few_embeddings_rejected(self):
        with pytest.raises(InputError):
            train_anonymizer(np.zeros((1, 8)), small_config(),
                             np.random.default_rng(0))


@pytest.fixture(scope="module")
def world():
    p = make_world_params(D=8, F=12, v_common=24, n_speakers=4, seed=0)
    return generate_world(p, 4, 3, np.random.default_rng(0))


@pytest.fixture
def voiced_ids(monkeypatch):
    """Stand in for the frame flow; records (identity, n_frames) per call.

    Returns a function that expands the calls to one identity per
    utterance, checking that each call covered whole utterances.
    """
    calls = []

    def fake_reconstruct(backbone, frame_tokens, p_norm, s, spec, rng):
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
    def test_encode_direction_enforced(self, trained):
        model, _, _ = trained
        fwd = IntegrationSpec(steps=4, t_start=0.0, t_end=1.0)
        with pytest.raises(InputError):
            encode(model, np.zeros(8), fwd)
        with pytest.raises(InputError):
            generate(model, np.zeros(8), IntegrationSpec(steps=4, t_start=1.0,
                                                         t_end=0.0))

    def test_fixed_one_round_trip_close(self, trained):
        model, _, emb = trained
        spec = IntegrationSpec(steps=64, t_start=1.0, t_end=0.0)
        strat = WeightStrategy(kind="fixed", w=1.0)
        s_anon, w = anonymize_speaker(model, emb[:10], strat,
                                      np.random.default_rng(0), spec)
        assert np.all(w == 1.0)
        coss = np.sum(s_anon * emb[:10], axis=1) / (
            np.linalg.norm(s_anon, axis=1) * np.linalg.norm(emb[:10], axis=1))
        assert np.mean(coss) > 0.8   # loose: short training run

    @pytest.mark.parametrize("exclude", [None, [2, 0, 1, 2, 0]])
    @pytest.mark.parametrize("strat", STRATEGIES, ids=lambda s: s.kind)
    def test_batch_matches_one_row_calls(self, trained, strat, exclude):
        model, _, emb = trained
        spec = IntegrationSpec(steps=8, t_start=1.0, t_end=0.0)
        batch, pool = emb[:5], emb[10:13]
        s_b, w_b = anonymize_speaker(model, batch, strat,
                                     np.random.default_rng(3), spec,
                                     pool=pool, exclude=exclude)
        rng = np.random.default_rng(3)
        rows = [anonymize_speaker(model, batch[i:i + 1], strat, rng, spec,
                                  pool=pool,
                                  exclude=None if exclude is None else exclude[i:i + 1])
                for i in range(5)]
        assert s_b.shape == (5, 8)
        if strat.kind == "pool":
            assert w_b is None and all(w is None for _, w in rows)
            assert np.array_equal(s_b, np.concatenate([s for s, _ in rows]))
            picks = [int(np.flatnonzero((pool == r).all(axis=1))[0]) for r in s_b]
            if exclude is not None:
                assert all(j != k for j, k in zip(picks, exclude))
        else:
            assert np.array_equal(w_b, np.concatenate([w for _, w in rows]))
            assert np.allclose(s_b, np.concatenate([s for s, _ in rows]),
                               rtol=0, atol=1e-6)

    def test_single_vector_rejected(self, trained):
        model, _, emb = trained
        spec = IntegrationSpec(steps=8, t_start=1.0, t_end=0.0)
        with pytest.raises(InputError):
            anonymize_speaker(model, emb[0], WeightStrategy(kind="fixed"),
                              np.random.default_rng(0), spec)

    def test_per_speaker_memoization(self, trained, world, voiced_ids):
        model, _, _ = trained
        spec = IntegrationSpec(steps=8, t_start=1.0, t_end=0.0)
        strat = WeightStrategy(kind="range", a=-1.0, b=1.0, scope="per_speaker")
        _, mapping = anonymize_dataset(None, model, world, strat, spec,
                                       np.random.default_rng(3))
        assert sorted(mapping) == sorted(s.id for s in world.speakers)
        for u, s in zip(world.utterances, voiced_ids(world.utterances)):
            assert np.array_equal(s, mapping[u.speaker_id][1])
        ids = [mapping[sid][1] for sid in mapping]
        assert not np.array_equal(ids[0], ids[1])

    def test_per_utterance_varies(self, trained, world, voiced_ids):
        model, _, _ = trained
        spec = IntegrationSpec(steps=8, t_start=1.0, t_end=0.0)
        strat = WeightStrategy(kind="range", a=-1.0, b=1.0,
                               scope="per_utterance")
        _, mapping = anonymize_dataset(None, model, world, strat, spec,
                                       np.random.default_rng(3))
        by_speaker = {}
        for u, s in zip(world.utterances, voiced_ids(world.utterances)):
            by_speaker.setdefault(u.speaker_id, []).append(s)
        for sid, ids in by_speaker.items():
            assert not np.array_equal(ids[0], ids[1])
            assert np.array_equal(ids[-1], mapping[sid][1])

    def test_pool_draws_from_pool(self, trained):
        model, _, emb = trained
        spec = IntegrationSpec(steps=8, t_start=1.0, t_end=0.0)
        strat = WeightStrategy(kind="pool")
        pool = [emb[1], emb[2]]
        s_anon, w = anonymize_speaker(model, emb[:1], strat,
                                      np.random.default_rng(0), spec, pool=pool)
        assert w is None
        assert any(np.array_equal(s_anon[0], p) for p in pool)

    def test_pool_requires_pool(self, trained):
        model, _, emb = trained
        spec = IntegrationSpec(steps=8, t_start=1.0, t_end=0.0)
        with pytest.raises(InputError):
            anonymize_speaker(model, emb[:1], WeightStrategy(kind="pool"),
                              np.random.default_rng(0), spec, pool=[])
        with pytest.raises(InputError):   # excluding the only row leaves none
            anonymize_speaker(model, emb[:1], WeightStrategy(kind="pool"),
                              np.random.default_rng(0), spec, pool=emb[:1],
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


def per_utterance_reference(backbone, anonymizer, dataset, strategy, spec,
                            rng):
    """One identity draw and one ``reconstruct`` per utterance, in order."""
    frame_spec = IntegrationSpec(steps=16, t_start=0.0, t_end=1.0)
    embs = np.array([s.embedding for s in dataset.speakers])
    row = {s.id: k for k, s in enumerate(dataset.speakers)}
    voice, frames = {}, []
    for u in dataset.utterances:
        k = row[u.speaker_id]
        if strategy.scope == "per_utterance" or u.speaker_id not in voice:
            s_anon, _ = anonymize_speaker(anonymizer, embs[k:k + 1], strategy,
                                          rng, spec, pool=embs, exclude=[k])
            voice[u.speaker_id] = s_anon[0]
        frames.append(reconstruct(backbone, u.frame_tokens, u.p_norm,
                                  voice[u.speaker_id], frame_spec, rng))
    return frames, voice


def _orders(world):
    utts = world.utterances
    # "revisit": spk000's last utterance comes after every other speaker's
    return {"grouped": world,
            "revisit": Dataset(params=world.params, speakers=world.speakers,
                               utterances=utts[:2] + utts[3:] + utts[2:3],
                               pool=world.pool)}


class TestFrameRuns:
    """anonymize_dataset makes one reconstruct per identity run."""

    @pytest.mark.parametrize("cap", ["default", "cut"])
    @pytest.mark.parametrize("scope", ["per_speaker", "per_utterance"])
    @pytest.mark.parametrize("strat", STRATEGIES, ids=lambda s: s.kind)
    def test_noise_draws_match_per_utterance_loop(self, trained, world,
                                                  frame_model, monkeypatch,
                                                  strat, scope, cap):
        rows = []

        def identity(field, x, spec, cond=None):
            rows.append(len(x))
            return x

        monkeypatch.setattr(backbone_mod, "integrate", identity)
        if cap == "cut":
            # every utterance fits alone, but a speaker's run must be split
            max_rows = max(u.n_frames for u in world.utterances)
            monkeypatch.setattr(anonymizer_mod, "RUN_FRAMES", max_rows)
        model, _, _ = trained
        strat = WeightStrategy(kind=strat.kind, w=strat.w, a=strat.a,
                               b=strat.b, scope=scope)
        spec = IntegrationSpec(steps=8, t_start=1.0, t_end=0.0)
        for ds in _orders(world).values():
            rows.clear()
            anon, mapping = anonymize_dataset(frame_model, model, ds, strat,
                                              spec, np.random.default_rng(3))
            if cap == "cut":
                assert max(rows) <= max_rows
                assert len(rows) > len(mapping)
            ref, voice = per_utterance_reference(frame_model, model, ds, strat,
                                                 spec, np.random.default_rng(3))
            for u, f in zip(anon.utterances, ref):
                assert np.array_equal(u.frames, f)
            for sid, (_, s_anon) in mapping.items():
                assert np.array_equal(s_anon, voice[sid])

    @pytest.mark.parametrize("scope", ["per_speaker", "per_utterance"])
    def test_frames_close_to_per_utterance_loop(self, trained, world,
                                                frame_model, scope):
        model, _, _ = trained
        strat = WeightStrategy(kind="range", a=-1.0, b=1.0, scope=scope)
        spec = IntegrationSpec(steps=8, t_start=1.0, t_end=0.0)
        for ds in _orders(world).values():
            anon, _ = anonymize_dataset(frame_model, model, ds, strat, spec,
                                        np.random.default_rng(3))
            ref, _ = per_utterance_reference(frame_model, model, ds, strat,
                                             spec, np.random.default_rng(3))
            for u, f in zip(anon.utterances, ref):
                assert u.frames.shape == f.shape
                assert np.allclose(u.frames, f, rtol=0, atol=1e-5)

    def test_divergence_names_the_run(self, trained, world, frame_model,
                                      monkeypatch):
        def diverge(field, x, spec, cond=None):
            raise DivergenceError("non-finite state at step 3", step=3)

        monkeypatch.setattr(backbone_mod, "integrate", diverge)
        model, _, _ = trained
        spec = IntegrationSpec(steps=8, t_start=1.0, t_end=0.0)
        with pytest.raises(DivergenceError) as ei:
            anonymize_dataset(frame_model, model, world,
                              WeightStrategy(kind="fixed", w=0.5), spec,
                              np.random.default_rng(3))
        first, last = world.utterances[0].id, world.utterances[2].id
        assert f"utterances {first}..{last}:" in str(ei.value)
        assert ei.value.step == 3


class TestPersistence:
    def test_model_round_trip(self, trained, tmp_path):
        model, _, emb = trained
        save_anonymizer(model, tmp_path / "anon")
        model2 = load_anonymizer(tmp_path / "anon")
        spec = IntegrationSpec(steps=8, t_start=1.0, t_end=0.0)
        assert np.allclose(encode(model, emb[0], spec),
                           encode(model2, emb[0], spec), atol=1e-6)
        assert model2.metadata["data_hash"] == model.metadata["data_hash"]

    def test_mapping_round_trip(self, tmp_path):
        mapping = {"spk1": (0.5, np.array([1.0, -2.25, 3.5])),
                   "spk0": (None, np.array([0.125, 0.0, -1.0]))}
        save_mapping(mapping, tmp_path / "map.tsv")
        back = load_mapping(tmp_path / "map.tsv")
        assert back["spk0"][0] is None
        assert back["spk1"][0] == 0.5
        assert np.array_equal(back["spk1"][1], mapping["spk1"][1])
