import numpy as np
import pytest

from anonflow.errors import InputError, StateError
from anonflow.nets import (ConditionedField, UShapedField, _frequencies,
                           time_embed)


class TestTimeEmbed:
    def test_t0_dim4(self):
        assert np.allclose(time_embed(0.0, 4), [0, 1, 0, 1])

    def test_t0_alternating(self):
        for dim in (2, 6, 16):
            e = time_embed(0.0, dim)
            assert np.allclose(e[0::2], 0)
            assert np.allclose(e[1::2], 1)

    def test_single_frequency(self):
        e = time_embed(0.5, 2)
        assert np.allclose(e, [np.sin(0.5), np.cos(0.5)], atol=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(InputError):
            time_embed(0.5, 3)

    def test_batched(self):
        e = time_embed(np.array([0.0, 0.5]), 4)
        assert e.shape == (2, 4)

    def test_cached_frequencies_match_geomspace_formula(self):
        t = np.random.default_rng(0).uniform(0.0, 1.0, size=33)
        for dim in range(2, 34, 2):
            arg = t[:, None] * np.geomspace(1.0, 1.0e4, dim // 2)[None, :]
            ref = np.empty((t.size, dim))
            ref[:, 0::2], ref[:, 1::2] = np.sin(arg), np.cos(arg)
            assert np.array_equal(time_embed(t, dim), ref)
            assert np.array_equal(time_embed(t[3], dim), ref[3])

    def test_cached_frequencies_read_only(self):
        omegas = _frequencies(16)
        assert omegas is _frequencies(16)
        with pytest.raises(ValueError):
            omegas[0] = 2.0


def _fd_check(field, x, t, cond, rel_tol=1e-4, h=1e-3):
    """Max relative error of analytic grads vs central finite differences."""
    y, cache = field.forward(x, t, cond)
    # scalarized loss: 0.5 * sum(y^2) with fixed random weights to break symmetry
    rng = np.random.default_rng(99)
    wts = rng.standard_normal(y.shape)

    def loss():
        out, _ = field.forward(x, t, cond)
        return 0.5 * np.sum(wts * out**2)

    grads = field.backward(cache, wts * y)
    worst = 0.0
    for name, p in field.params.items():
        g = grads[name]
        fd = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = loss()
            p[idx] = orig - h
            lm = loss()
            p[idx] = orig
            fd[idx] = (lp - lm) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-8)
        worst = max(worst, np.linalg.norm(fd - g) / denom)
    return worst


def _randomize(field, rng, scale=0.3):
    # modest scale keeps tanh curvature low enough that central differences
    # at h=1e-3 stay in their asymptotic regime
    for k in field.params:
        field.params[k] = rng.standard_normal(field.params[k].shape) * scale


class TestUShapedField:
    def test_palindrome_required(self):
        with pytest.raises(InputError):
            UShapedField([8, 4, 8, 4])

    def test_single_minimum_required(self):
        with pytest.raises(InputError):
            UShapedField([8, 4, 4, 8])

    def test_output_dim_matches_input(self):
        f = UShapedField([8, 4, 2, 4, 8], rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((3, 8))
        y, _ = f.forward(x, np.full(3, 0.3))
        assert y.shape == (3, 8)

    def test_determinism(self):
        f = UShapedField([6, 2, 6], rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 6))
        t = np.array([0.1, 0.9])
        y1, _ = f.forward(x, t)
        y2, _ = f.forward(x, t)
        assert np.array_equal(y1, y2)

    def test_hand_computed_residual_path(self):
        # one-level field [2, 2] with W = I, b = 0, zeroed time proj and block:
        # h0 = x; out = (I h0 + 0) + skip(h0) = 2x
        f = UShapedField([2, 2], time_dim=4, dtype=np.float64)
        for k in f.params:
            f.params[k][:] = 0.0
        f.params["lin1.W"][:] = np.eye(2)
        x = np.array([[1.5, -0.5]])
        y, _ = f.forward(x, np.array([0.7]))
        assert np.allclose(y, 2 * x)

    def test_dim_mismatch_rejected(self):
        f = UShapedField([4, 2, 4])
        with pytest.raises(InputError):
            f.forward(np.zeros((1, 5)), np.zeros(1))

    def test_backward_before_forward_rejected(self):
        f = UShapedField([4, 2, 4])
        with pytest.raises(StateError):
            f.backward(None, np.zeros((1, 4)))

    def test_zero_upstream_zero_grads(self):
        f = UShapedField([4, 2, 4], dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((2, 4))
        _, cache = f.forward(x, np.array([0.2, 0.8]))
        g = f.backward(cache, np.zeros((2, 4)))
        assert all(np.all(v == 0) for v in g.values())

    def test_gradcheck(self):
        rng = np.random.default_rng(42)
        for trial in range(4):
            f = UShapedField([4, 2, 4], time_dim=4, dtype=np.float64,
                             rng=np.random.default_rng(trial))
            _randomize(f, rng)
            x = rng.standard_normal((3, 4))
            t = rng.uniform(0, 1, 3)
            assert _fd_check(f, x, t, None) < 1e-4

    def test_callable_is_batched_forward(self):
        f = UShapedField([4, 2, 4], rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((3, 4))
        t = np.array([0.1, 0.5, 0.9])
        assert np.array_equal(f(x, t), f.forward(x, t)[0])
        with pytest.raises(InputError):
            f(np.zeros(4), 0.5)


class TestConditionedField:
    def _make(self, dtype=np.float64):
        return ConditionedField(dim=3, local_dim=2, cond_dim=4, hidden=[5, 5],
                                time_dim=4, rng=np.random.default_rng(0), dtype=dtype)

    def test_zero_init_conditioning_identity(self):
        f = self._make()
        x = np.random.default_rng(1).standard_normal((4, 3))
        loc = np.random.default_rng(2).standard_normal((4, 2))
        t = np.full(4, 0.3)
        c1 = np.random.default_rng(3).standard_normal((4, 4))
        c2 = np.random.default_rng(4).standard_normal((4, 4))
        y1, _ = f.forward(x, t, (loc, c1))
        y2, _ = f.forward(x, t, (loc, c2))
        assert np.array_equal(y1, y2)

    def test_zero_init_time_invariance(self):
        # with zero-init modulation even the time embedding cannot reach the output
        f = self._make()
        x = np.zeros((2, 3))
        loc = np.zeros((2, 2))
        glob = np.zeros((2, 4))
        y1, _ = f.forward(x, np.full(2, 0.1), (loc, glob))
        y2, _ = f.forward(x, np.full(2, 0.9), (loc, glob))
        assert np.array_equal(y1, y2)

    def test_determinism(self):
        f = self._make()
        x = np.random.default_rng(5).standard_normal((2, 3))
        loc = np.zeros((2, 2))
        glob = np.ones((2, 4))
        t = np.array([0.2, 0.4])
        y1, _ = f.forward(x, t, (loc, glob))
        y2, _ = f.forward(x, t, (loc, glob))
        assert np.array_equal(y1, y2)

    def test_conditioning_matters_after_randomization(self):
        f = self._make()
        _randomize(f, np.random.default_rng(6))
        x = np.zeros((1, 3))
        loc = np.zeros((1, 2))
        y1, _ = f.forward(x, np.array([0.3]), (loc, np.zeros((1, 4))))
        y2, _ = f.forward(x, np.array([0.3]), (loc, np.ones((1, 4))))
        assert not np.allclose(y1, y2)

    def test_gradcheck(self):
        rng = np.random.default_rng(17)
        for trial in range(4):
            f = self._make()
            _randomize(f, rng)
            x = rng.standard_normal((3, 3))
            loc = rng.standard_normal((3, 2))
            glob = rng.standard_normal((3, 4))
            t = rng.uniform(0, 1, 3)
            assert _fd_check(f, x, t, (loc, glob)) < 1e-4

    def test_bad_local_cond_rejected(self):
        f = self._make()
        with pytest.raises(InputError):
            f.forward(np.zeros((2, 3)), np.zeros(2), (np.zeros((2, 9)), np.zeros((2, 4))))

    def test_backward_before_forward_rejected(self):
        f = self._make()
        with pytest.raises(StateError):
            f.backward(None, np.zeros((1, 3)))
