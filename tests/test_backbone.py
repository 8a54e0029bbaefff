import numpy as np
import pytest

import anonflow.backbone as backbone_mod
from anonflow.backbone import (BackboneConfig, BackboneModel, load_backbone,
                               reconstruct, save_backbone, train_backbone)
from anonflow.errors import InputError
from anonflow.flowmath import IntegrationSpec
from anonflow.vq import quantize
from anonflow.worldgen import generate_world, make_world_params


@pytest.fixture(scope="module")
def tiny_world():
    p = make_world_params(D=8, F=12, v_common=24, n_speakers=4,
                          noise_sigma=0.05, seed=3)
    ds = generate_world(p, 4, 3, np.random.default_rng(3),
                        duration_range=(4.0, 8.0))
    return p, ds


@pytest.fixture(scope="module")
def tiny_config(tiny_world):
    p, _ = tiny_world
    return BackboneConfig(content_dim=8, hidden=(48, 48), codebook_size=p.V + 8,
                          steps=500, batch=128, seed=1)


@pytest.fixture(scope="module")
def trained(tiny_world, tiny_config):
    _, ds = tiny_world
    return train_backbone(ds, tiny_config, np.random.default_rng(11))


class TestTraining:
    def test_flow_loss_decreases(self, trained):
        _, trace = trained
        early = np.mean([t["l_flow"] for t in trace[:20]])
        late = np.mean([t["l_flow"] for t in trace[-20:]])
        assert late < 0.5 * early

    def test_commitment_loss_stays_small(self, trained):
        # per-token codeword init starts quantization near-exact; training
        # must not let the codebook drift away from the content features
        _, trace = trained
        assert np.mean([t["l_commit"] for t in trace[-20:]]) < 0.1

    def test_trace_schedule_matches_one_cycle(self, trained, tiny_config):
        _, trace = trained
        lrs = [t["lr"] for t in trace]
        peak_step = int(np.argmax(lrs))
        assert abs(peak_step - tiny_config.pct_start * tiny_config.steps) <= 1
        assert max(lrs) == pytest.approx(tiny_config.peak_lr, rel=1e-6)

    def test_codebook_moved_from_init(self, trained, tiny_world, tiny_config):
        model, _ = trained
        fresh = BackboneModel(frame_dim=tiny_world[0].F,
                              speaker_dim=tiny_world[0].D,
                              vocab_size=tiny_world[0].V, config=tiny_config)
        assert model.codebook.entries.shape == fresh.codebook.entries.shape


class TestReconstruct:
    def test_shape_and_determinism(self, trained):
        model, _ = trained
        toks = np.array([1, 1, 2, 2])
        pn = np.zeros(4)
        s = np.ones(model.speaker_dim) / np.sqrt(model.speaker_dim)
        spec = IntegrationSpec(steps=8, t_start=0.0, t_end=1.0)
        a = reconstruct(model, toks, pn, s, spec, np.random.default_rng(5))
        b = reconstruct(model, toks, pn, s, spec, np.random.default_rng(5))
        assert a.shape == (4, model.frame_dim)
        assert np.array_equal(a, b)

    def test_local_cond_matches_per_frame_quantize(self, trained,
                                                   monkeypatch):
        model, _ = trained
        seen = []

        def capture(field, x, spec, cond=None):
            seen.append(cond)
            return x

        monkeypatch.setattr(backbone_mod, "integrate", capture)
        rng = np.random.default_rng(2)
        toks = np.repeat(rng.integers(0, model.vocab_size, size=40), 4)
        pn = rng.standard_normal(toks.size)
        s = rng.standard_normal(model.speaker_dim)
        spec = IntegrationSpec(steps=8, t_start=0.0, t_end=1.0)
        reconstruct(model, toks, pn, s, spec, np.random.default_rng(5))
        c_vq = quantize(model.f_sem(toks), model.codebook).c_vq
        local = np.concatenate([c_vq, pn[:, None]], axis=1)
        assert np.array_equal(seen[0][0], local)
        assert np.array_equal(seen[0][1], np.tile(s, (toks.size, 1)))

    def test_backward_spec_rejected(self, trained):
        model, _ = trained
        spec = IntegrationSpec(steps=8, t_start=1.0, t_end=0.0)
        with pytest.raises(InputError):
            reconstruct(model, [0], [0.0], np.zeros(model.speaker_dim),
                        spec, np.random.default_rng(0))


class TestPersistence:
    def test_round_trip_identical_outputs(self, trained, tmp_path):
        model, _ = trained
        save_backbone(model, tmp_path / "bb")
        model2 = load_backbone(tmp_path / "bb")
        toks = np.array([3, 3, 4, 4, 5, 5])
        pn = 0.3 * np.ones(6)
        s = np.zeros(model.speaker_dim)
        s[0] = 1.0
        spec = IntegrationSpec(steps=6, t_start=0.0, t_end=1.0)
        a = reconstruct(model, toks, pn, s, spec, np.random.default_rng(9))
        b = reconstruct(model2, toks, pn, s, spec, np.random.default_rng(9))
        assert np.allclose(a, b, atol=1e-6)

    def test_tensor_names_prefixed(self, trained):
        model, _ = trained
        assert all(k.startswith("backbone/") for k in model.tensors())


def test_f_sem_noise_only_with_rng(tiny_world, tiny_config):
    p, _ = tiny_world
    model = BackboneModel(frame_dim=p.F, speaker_dim=p.D, vocab_size=p.V,
                          config=tiny_config)
    toks = np.array([0, 1, 2])
    clean = model.f_sem(toks)
    assert np.array_equal(clean, model.f_sem(toks))
    noisy = model.f_sem(toks, np.random.default_rng(0))
    assert not np.array_equal(clean, noisy)
