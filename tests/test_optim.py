import numpy as np
import pytest

from anonflow.errors import DivergenceError, InputError
from anonflow.optim import AdamW, OneCycle


class TestOneCycle:
    def test_junction_is_peak(self):
        total, peak = 1000, 0.3
        assert OneCycle(total, peak, pct_start=0.1).lr(100) == pytest.approx(peak)

    def test_start_is_peak_over_div(self):
        assert OneCycle(1000, 0.5).lr(0) == pytest.approx(0.5 / 25)

    def test_end_is_peak_over_final_div(self):
        assert OneCycle(1000, 0.5).lr(1000) == pytest.approx(0.5 / 1e4)

    def test_step_beyond_total_rejected(self):
        with pytest.raises(InputError):
            OneCycle(1000, 0.1).lr(1001)

    def test_bad_pct_start_rejected(self):
        with pytest.raises(InputError):
            OneCycle(100, 0.1, pct_start=1.0)

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
        opt = AdamW(p, schedule=0.1, weight_decay=0.0)
        opt.step({"w": np.zeros(2)})
        assert np.array_equal(p["w"], [1.0, -2.0])

    def test_single_step_bias_corrected_unit_direction(self):
        p = {"w": np.array([1.0])}
        opt = AdamW(p, schedule=0.1, weight_decay=0.0)
        opt.step({"w": np.array([1.0])})
        # m_hat = 1, v_hat = 1 after bias correction: p <- 1 - 0.1/(1 + eps)
        assert p["w"][0] == pytest.approx(0.9, abs=1e-6)

    def test_decoupled_decay_zero_grad(self):
        p = {"w": np.array([1.0])}
        opt = AdamW(p, schedule=0.1, weight_decay=0.1)
        opt.step({"w": np.array([0.0])})
        assert p["w"][0] == pytest.approx(1.0 * (1 - 0.01))

    def test_nonfinite_gradient_rejected(self):
        p = {"w": np.array([1.0])}
        opt = AdamW(p, schedule=0.1)
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
        opt = AdamW(p, schedule=0.01)
        assert opt.m["a"].shape == (3, 2)
        assert opt.v["b"].shape == (5,)
