import tracemalloc

import numpy as np
import pytest

import anonflow.backbone as backbone_mod
from anonflow.backbone import (BackboneConfig, BackboneModel, load_backbone,
                               reconstruct, save_backbone, train_backbone)
from anonflow.errors import DivergenceError, InputError
from anonflow.vq import quantize
from anonflow.worldgen import generate_world, make_world_params


@pytest.fixture(scope="module")
def tiny_world():
    p = make_world_params(D=8, F=12, v_common=24, n_speakers=4,
                          noise_sigma=0.05, seed=3)
    ds = generate_world(p, 4, 3, np.random.default_rng(3),
                        duration_range=(4.0, 8.0), pii_frac=0.3)
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


class _RecordingRng:
    """A generator that keeps each index array its ``choice`` draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.chosen = []

    def choice(self, *args, **kwargs):
        self.chosen.append(self._rng.choice(*args, **kwargs))
        return self.chosen[-1]

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("spoil,message,step", [
    ("loss", "backbone: non-finite loss at step 2", 2),
    ("out.b", "backbone: non-finite gradient for out.b", 3),
], ids=["loss", "gradient"])
def test_divergence_names_the_model(monkeypatch, tiny_world, spoil, message,
                                    step):
    # the third step's flow loss, or one of its gradients, is NaN; AdamW
    # counts its steps from 1
    real, calls = backbone_mod.cfm_loss, []

    def diverging(field, x1, cond, rng):
        loss, grads = real(field, x1, cond, rng)
        calls.append(loss)
        if len(calls) == 3 and spoil == "loss":
            loss = np.nan
        elif len(calls) == 3:
            grads[spoil] = np.full_like(grads[spoil], np.nan)
        return loss, grads

    monkeypatch.setattr(backbone_mod, "cfm_loss", diverging)
    p, ds = tiny_world
    config = BackboneConfig(content_dim=8, hidden=(24, 24),
                            codebook_size=p.V + 8, steps=5, batch=64)
    with pytest.raises(DivergenceError) as ei:
        train_backbone(ds, config, np.random.default_rng(1))
    assert (str(ei.value), ei.value.step) == (message, step)


class TestFrameGather:
    """Each step's frame batch is gathered from the utterances' own arrays."""

    def test_matches_stacked_frames_reference(self, monkeypatch, tiny_world):
        # the reference: each batch as rows of one stacked copy of every frame
        p, ds = tiny_world
        assert len({u.n_frames for u in ds.utterances}) > 1
        config = BackboneConfig(content_dim=8, hidden=(24, 24),
                                codebook_size=p.V + 8, steps=40, batch=64,
                                seed=2)
        rng = _RecordingRng(4)
        gathered = train_backbone(ds, config, rng)
        stacked = np.concatenate([u.frames for u in ds.utterances], axis=0)
        real = backbone_mod.cfm_loss

        def from_stacked(field, x1, cond, rng):
            ref = stacked[rng.chosen[-1]]
            assert x1.dtype == ref.dtype and np.array_equal(x1, ref)
            return real(field, ref, cond, rng)

        monkeypatch.setattr(backbone_mod, "cfm_loss", from_stacked)
        rng = _RecordingRng(4)
        (m1, t1), (m2, t2) = gathered, train_backbone(ds, config, rng)
        assert len(rng.chosen) == config.steps + 1   # codebook init, steps
        assert t1 == t2
        a, b = m1.tensors(), m2.tensors()
        assert list(a) == list(b)
        for k in a:
            assert a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k])

    def test_steps_hold_no_second_copy_of_frames(self, monkeypatch):
        # 32 utterances of 160-240 frames: about 1.2 MB of frames, against a
        # few hundred KB of model, optimizer state and per-step batches
        p = make_world_params(D=8, F=24, v_common=24, n_speakers=4,
                              noise_sigma=0.05, seed=3)
        ds = generate_world(p, 4, 8, np.random.default_rng(3),
                            duration_range=(40.0, 60.0), pii_frac=0.3)
        frame_bytes = sum(u.frames.nbytes for u in ds.utterances)
        config = BackboneConfig(content_dim=8, hidden=(24, 24),
                                codebook_size=p.V + 8, steps=3, batch=64)
        real = backbone_mod.cfm_loss
        calls = []

        def cfm_loss(*args):
            if not calls:       # from the first call on, the peak counts
                tracemalloc.reset_peak()
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(backbone_mod, "cfm_loss", cfm_loss)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_backbone(ds, config, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == config.steps and peak - base < frame_bytes


class TestReconstruct:
    def test_shape_and_determinism(self, trained):
        model, _ = trained
        toks = np.array([1, 1, 2, 2])
        pn = np.zeros(4)
        s = np.ones(model.speaker_dim) / np.sqrt(model.speaker_dim)
        steps = 8
        noise = np.random.default_rng(5).standard_normal((4, model.frame_dim))
        a = reconstruct(model, toks, pn, s, steps, noise)
        b = reconstruct(model, toks, pn, s, steps, noise.copy())
        assert a.shape == (4, model.frame_dim)
        assert np.array_equal(a, b)

    def test_noise_shape_checked(self, trained):
        model, _ = trained
        s = np.zeros(model.speaker_dim)
        for shape in ((3, model.frame_dim), (4, model.frame_dim + 1)):
            with pytest.raises(InputError, match="noise"):
                reconstruct(model, np.array([1, 1, 2, 2]), np.zeros(4), s, 4,
                            np.zeros(shape))

    def test_local_cond_matches_per_frame_quantize(self, trained,
                                                   monkeypatch):
        model, _ = trained
        seen = []

        def capture(field, x, steps, cond=None):
            seen.append(cond)
            return x

        monkeypatch.setattr(backbone_mod, "integrate", capture)
        rng = np.random.default_rng(2)
        toks = np.repeat(rng.integers(0, model.vocab_size, size=40), 4)
        pn = rng.standard_normal(toks.size)
        s = rng.standard_normal(model.speaker_dim)
        steps = 8
        reconstruct(model, toks, pn, s, steps,
                    np.zeros((toks.size, model.frame_dim)))
        c_vq = quantize(model.f_sem(toks), model.codebook).c_vq
        local = np.concatenate([c_vq, pn[:, None]], axis=1)
        assert np.array_equal(seen[0][0], local)
        assert np.array_equal(seen[0][1], s[None])   # one identity row


class TestPersistence:
    def test_round_trip_identical_outputs(self, trained, tmp_path):
        model, _ = trained
        save_backbone(model, tmp_path / "bb")
        model2 = load_backbone(tmp_path / "bb")
        toks = np.array([3, 3, 4, 4, 5, 5])
        pn = 0.3 * np.ones(6)
        s = np.zeros(model.speaker_dim)
        s[0] = 1.0
        steps = 6
        noise = np.random.default_rng(9).standard_normal((6, model.frame_dim))
        a = reconstruct(model, toks, pn, s, steps, noise)
        b = reconstruct(model2, toks, pn, s, steps, noise)
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
    # the training step's clean gather plus noise: the same draws and bits
    assert np.array_equal(model.noisy(clean, np.random.default_rng(0)), noisy)
    assert model.noisy(clean, None) is clean
