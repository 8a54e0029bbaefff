import numpy as np
import pytest

import anonflow.anonymizer as anonymizer_mod
import anonflow.backbone as backbone_mod
from anonflow.anonymizer import AnonymizerConfig, train_anonymizer
from anonflow.backbone import BackboneConfig, train_backbone
from anonflow.errors import ConfigError, DivergenceError, InputError
from anonflow.optim import AdamW, OneCycle
from anonflow.worldgen import generate_world, make_world_params


class ConstantRate:
    """A schedule, in ``OneCycle``'s interface, at one rate for every step."""

    total_steps = float("inf")

    def __init__(self, rate):
        self.rate = rate

    def lr(self, step):
        return self.rate


class ReferenceAdamW(AdamW):
    """The per-tensor AdamW that the flat-buffer one replaced: it updates
    each caller's array in place, one tensor after another."""

    def __init__(self, params, schedule, beta1=0.9, beta2=0.999, eps=1.0e-8,
                 weight_decay=0.01):
        self.params = params
        self.schedule = schedule
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        lr = self.lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for k, p in self.params.items():
            g = grads[k]
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient for {k}", step=t)
            if g.shape != p.shape:
                raise InputError(f"gradient shape {g.shape} != param shape {p.shape} for {k}")
            if self.weight_decay:
                p *= 1.0 - lr * self.weight_decay
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= (lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)).astype(p.dtype)


def mixed_params(rng):
    """float32 and float64 tensors interleaved, with a one-element one."""
    return {"w1": rng.standard_normal((3, 4)).astype(np.float32),
            "cb": rng.standard_normal((5, 2)),
            "b1": rng.standard_normal(4).astype(np.float32),
            "one": rng.standard_normal(1).astype(np.float32),
            "s": rng.standard_normal(3)}


class TestOneCycle:
    def test_junction_is_peak(self):
        total, peak = 1000, 0.3
        assert OneCycle(total, peak, pct_start=0.1).lr(100) == pytest.approx(peak)

    def test_start_is_peak_over_div(self):
        assert OneCycle(1000, 0.5).lr(0) == pytest.approx(0.5 / 25)

    def test_end_is_peak_over_final_div(self):
        assert OneCycle(1000, 0.5).lr(1000) == pytest.approx(0.5 / 1e4)

    def test_bad_pct_start_rejected(self):
        # the trainers' configs, which build every schedule, own the rule
        for config in (BackboneConfig, AnonymizerConfig):
            for pct in (0.0, 1.0):
                with pytest.raises(ConfigError, match=r"\.pct_start must be"):
                    config(pct_start=pct)

    def test_rate_past_the_total_stays_at_the_end(self):
        # AdamW asks its schedule for steps in [0, total_steps] only
        sched = OneCycle(3, 0.1)
        opt = AdamW({"w": np.ones(2)}, sched, weight_decay=0.0)
        for _ in range(5):
            opt.step({"w": np.ones(2)})
        assert opt.lr == sched.lr(3)

    def test_continuity(self):
        total, peak, pct = 500, 0.2, 0.1
        sched = OneCycle(total, peak, pct)
        lrs = [sched.lr(k) for k in range(total + 1)]
        bound = peak * np.pi / (min(pct, 1 - pct) * total)
        diffs = np.abs(np.diff(lrs))
        assert diffs.max() <= bound

    def test_monotone_phases(self):
        sched = OneCycle(200, 1.0, 0.25)
        lrs = [sched.lr(k) for k in range(201)]
        assert all(a <= b + 1e-15 for a, b in zip(lrs[:50], lrs[1:51]))
        assert all(a >= b - 1e-15 for a, b in zip(lrs[50:200], lrs[51:201]))


class TestAdamW:
    def test_zero_grad_no_decay_unchanged(self):
        p = {"w": np.array([1.0, -2.0])}
        opt = AdamW(p, schedule=ConstantRate(0.1), weight_decay=0.0)
        opt.step({"w": np.zeros(2)})
        assert np.array_equal(p["w"], [1.0, -2.0])

    def test_single_step_bias_corrected_unit_direction(self):
        p = {"w": np.array([1.0])}
        opt = AdamW(p, schedule=ConstantRate(0.1), weight_decay=0.0)
        opt.step({"w": np.array([1.0])})
        # m_hat = 1, v_hat = 1 after bias correction: p <- 1 - 0.1/(1 + eps)
        assert p["w"][0] == pytest.approx(0.9, abs=1e-6)

    def test_decoupled_decay_zero_grad(self):
        p = {"w": np.array([1.0])}
        opt = AdamW(p, schedule=ConstantRate(0.1), weight_decay=0.1)
        opt.step({"w": np.array([0.0])})
        assert p["w"][0] == pytest.approx(1.0 * (1 - 0.01))

    def test_nonfinite_gradient_rejected(self):
        p = {"w": np.array([1.0])}
        opt = AdamW(p, schedule=ConstantRate(0.1), weight_decay=0.01)
        with pytest.raises(DivergenceError):
            opt.step({"w": np.array([np.nan])})

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(0)
            p = {"w": np.ones(4)}
            opt = AdamW(p, schedule=OneCycle(20, 0.05), weight_decay=0.01)
            for _ in range(20):
                opt.step({"w": rng.standard_normal(4)})
            return p["w"]
        assert np.array_equal(run(), run())

    def test_moments_match_param_shape(self):
        p = {"a": np.zeros((3, 2)), "b": np.zeros(5)}
        opt = AdamW(p, schedule=ConstantRate(0.01), weight_decay=0.01)
        assert opt.m["a"].shape == (3, 2)
        assert opt.v["b"].shape == (5,)


class TestFlatBuffers:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("schedule", [
        OneCycle(50, 0.05), pytest.param(ConstantRate(0.01), id="0.01")])
    def test_matches_per_tensor_reference(self, weight_decay, schedule):
        rng = np.random.default_rng(7)
        p_fused, p_ref = mixed_params(rng), mixed_params(np.random.default_rng(7))
        fused = AdamW(p_fused, schedule, weight_decay=weight_decay)
        ref = ReferenceAdamW(p_ref, schedule, weight_decay=weight_decay)
        for _ in range(50):
            grads = {k: rng.standard_normal(v.shape).astype(v.dtype)
                     for k, v in p_ref.items()}
            fused.step(grads)
            ref.step(grads)
        for k in p_ref:
            assert p_fused[k].dtype == p_ref[k].dtype
            assert p_fused[k].shape == p_ref[k].shape
            assert np.array_equal(p_fused[k], p_ref[k])
            assert np.array_equal(fused.m[k], ref.m[k])
            assert np.array_equal(fused.v[k], ref.v[k])

    def test_views_share_one_buffer_per_dtype(self):
        p = mixed_params(np.random.default_rng(0))
        before = {k: v.copy() for k, v in p.items()}
        originals = dict(p)
        opt = AdamW(p, ConstantRate(0.01), weight_decay=0.01)
        assert list(p) == list(before) == list(opt.m) == list(opt.v)
        f32, f64 = p["w1"].base, p["cb"].base
        for k, v in p.items():
            assert np.array_equal(v, before[k]) and v.dtype == before[k].dtype
            assert not np.shares_memory(v, originals[k])
            assert np.shares_memory(v, f32 if v.dtype == np.float32 else f64)
            assert opt.m[k].shape == opt.v[k].shape == v.shape
            assert not np.shares_memory(opt.m[k], v)
        opt.step({k: np.ones_like(v) for k, v in p.items()})
        assert all(not np.array_equal(v, before[k]) for k, v in p.items())

    def test_nonfinite_gradient_names_key_and_changes_nothing(self):
        p = mixed_params(np.random.default_rng(1))
        opt = AdamW(p, ConstantRate(0.01), weight_decay=0.01)
        grads = {k: np.ones_like(v) for k, v in p.items()}
        opt.step(grads)
        before = {k: v.copy() for k, v in p.items()}
        moments = {k: (opt.m[k].copy(), opt.v[k].copy()) for k in p}
        grads["cb"] = grads["cb"].copy()
        grads["cb"][1, 0] = np.inf
        with pytest.raises(DivergenceError, match="for cb") as e:
            opt.step(grads)
        assert e.value.step == 2
        for k, v in p.items():
            assert np.array_equal(v, before[k])
            assert np.array_equal(opt.m[k], moments[k][0])
            assert np.array_equal(opt.v[k], moments[k][1])
        assert opt.step_count == 1

    def test_shape_mismatch_rejected_and_changes_nothing(self):
        p = mixed_params(np.random.default_rng(2))
        opt = AdamW(p, ConstantRate(0.01), weight_decay=0.01)
        before = {k: v.copy() for k, v in p.items()}
        grads = {k: np.ones_like(v) for k, v in p.items()}
        grads["b1"] = np.ones((2, 2), dtype=np.float32)   # same size, new shape
        with pytest.raises(InputError, match="for b1"):
            opt.step(grads)
        assert all(np.array_equal(v, before[k]) for k, v in p.items())

    def test_first_bad_key_in_parameter_order(self):
        # w1 (float32 buffer) is misshapen, cb (float64 buffer) non-finite:
        # w1 comes first, as in the per-tensor order
        p = mixed_params(np.random.default_rng(3))
        opt = AdamW(p, ConstantRate(0.01), weight_decay=0.01)
        grads = {k: np.ones_like(v) for k, v in p.items()}
        grads["w1"] = np.ones((4, 3), dtype=np.float32)
        grads["cb"] = np.full((5, 2), np.nan)
        with pytest.raises(InputError, match="for w1"):
            opt.step(grads)


@pytest.fixture(scope="module")
def small_world():
    p = make_world_params(D=8, F=12, v_common=24, n_speakers=4,
                          noise_sigma=0.05, seed=5)
    return generate_world(p, 4, 3, np.random.default_rng(5),
                          duration_range=(4.0, 8.0), pii_frac=0.3)


class TestTrainersMatchReference:
    """The trainers give the same bits with the per-tensor optimizer."""

    def _both(self, monkeypatch, module, train):
        fused = train()
        monkeypatch.setattr(module, "AdamW", ReferenceAdamW)
        return fused, train()

    def test_backbone(self, monkeypatch, small_world):
        p = small_world.params
        config = BackboneConfig(content_dim=8, hidden=(24, 24),
                                codebook_size=p.V + 8, steps=40, batch=64,
                                seed=2)
        (m1, t1), (m2, t2) = self._both(
            monkeypatch, backbone_mod,
            lambda: train_backbone(small_world, config,
                                   np.random.default_rng(4)))
        assert t1 == t2
        a, b = m1.tensors(), m2.tensors()
        assert list(a) == list(b)
        for k in a:
            assert a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k])

    def test_anonymizer(self, monkeypatch):
        emb = np.random.default_rng(6).standard_normal((64, 8))
        config = AnonymizerConfig(level_dims=(8, 4, 2, 4, 8), steps=60,
                                  batch=16, seed=3)
        (m1, t1), (m2, t2) = self._both(
            monkeypatch, anonymizer_mod,
            lambda: train_anonymizer(emb, config, np.random.default_rng(8)))
        assert t1 == t2
        a, b = m1.tensors(), m2.tensors()
        assert list(a) == list(b)
        for k in a:
            assert a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k])
