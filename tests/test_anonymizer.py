import numpy as np
import pytest

import anonflow.anonymizer as anonymizer_mod
from anonflow.anonymizer import (AnonymizerConfig, ObscurationInput,
                                 WeightStrategy, anonymize_dataset,
                                 anonymize_speaker, encode, generate,
                                 load_anonymizer, load_mapping, obscure,
                                 save_anonymizer, save_mapping,
                                 train_anonymizer)
from anonflow.errors import ConfigError, InputError
from anonflow.flowmath import IntegrationSpec
from anonflow.worldgen import generate_world, make_world_params


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
    """Stand in for the frame flow; records the identity each utterance got."""
    seen = []

    def fake_reconstruct(backbone, frame_tokens, p_norm, s, spec, rng):
        seen.append(np.array(s))
        return np.zeros((len(frame_tokens), 12))

    monkeypatch.setattr(anonymizer_mod, "reconstruct", fake_reconstruct)
    return seen


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
        for u, s in zip(world.utterances, voiced_ids):
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
        for u, s in zip(world.utterances, voiced_ids):
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
