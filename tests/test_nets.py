import numpy as np
import pytest

from anonflow.anonymizer import AnonymizerConfig
from anonflow.backbone import BackboneConfig
from anonflow.errors import ConfigError, InputError, StateError
from anonflow.nets import (ConditionedField, UShapedField, _frequencies,
                           time_embed)


class TestTimeEmbed:
    def test_t0_dim4(self):
        assert np.allclose(time_embed(np.zeros(1), 4), [[0, 1, 0, 1]])

    def test_t0_alternating(self):
        for dim in (2, 6, 16):
            e = time_embed(np.zeros(1), dim)
            assert np.allclose(e[:, 0::2], 0)
            assert np.allclose(e[:, 1::2], 1)

    def test_single_frequency(self):
        e = time_embed(np.array([0.5]), 2)
        assert np.allclose(e, [[np.sin(0.5), np.cos(0.5)]], atol=1e-12)

    def test_odd_dim_rejected(self):
        # every field's time_dim comes from a trainer config, which owns
        # the rule; time_embed itself does not check it again
        for config in (BackboneConfig, AnonymizerConfig):
            for dim in (3, 0):
                with pytest.raises(ConfigError,
                                   match=r"\.time_dim must be even"):
                    config(time_dim=dim)

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
            assert np.array_equal(time_embed(t[3:4], dim), ref[3:4])

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
    # AnonymizerConfig, which sizes every UShapedField the program makes,
    # owns the level_dims rule
    def test_palindrome_required(self):
        with pytest.raises(ConfigError, match="anonymizer.level_dims"):
            AnonymizerConfig(level_dims=[8, 4, 8, 4])

    def test_single_minimum_required(self):
        with pytest.raises(ConfigError, match="anonymizer.level_dims"):
            AnonymizerConfig(level_dims=[8, 4, 4, 8])

    def test_output_dim_matches_input(self):
        f = UShapedField([8, 4, 2, 4, 8], rng=np.random.default_rng(0),
                         time_dim=16, dtype=np.float32)
        x = np.random.default_rng(1).standard_normal((3, 8))
        y, _ = f.forward(x, np.full(3, 0.3), None)
        assert y.shape == (3, 8)

    def test_determinism(self):
        f = UShapedField([6, 2, 6], rng=np.random.default_rng(0),
                         time_dim=16, dtype=np.float32)
        x = np.random.default_rng(1).standard_normal((2, 6))
        t = np.array([0.1, 0.9])
        y1, _ = f.forward(x, t, None)
        y2, _ = f.forward(x, t, None)
        assert np.array_equal(y1, y2)

    def test_hand_computed_residual_path(self):
        # one-level field [2, 2] with W = I, b = 0, zeroed time proj and block:
        # h0 = x; out = (I h0 + 0) + skip(h0) = 2x
        f = UShapedField([2, 2], time_dim=4, dtype=np.float64,
                         rng=np.random.default_rng(0))
        for k in f.params:
            f.params[k][:] = 0.0
        f.params["lin1.W"][:] = np.eye(2)
        x = np.array([[1.5, -0.5]])
        y, _ = f.forward(x, np.array([0.7]), None)
        assert np.allclose(y, 2 * x)

    def test_dim_mismatch_rejected(self):
        f = UShapedField([4, 2, 4], 16, np.random.default_rng(0),
                         np.float32)
        with pytest.raises(InputError):
            f.forward(np.zeros((1, 5)), np.zeros(1), None)
        with pytest.raises(InputError):
            f.forward(np.zeros(4), 0.5, None)

    def test_backward_before_forward_rejected(self):
        f = UShapedField([4, 2, 4], 16, np.random.default_rng(0),
                         np.float32)
        with pytest.raises(StateError):
            f.backward(None, np.zeros((1, 4)))

    def test_zero_upstream_zero_grads(self):
        f = UShapedField([4, 2, 4], dtype=np.float64,
                         time_dim=16, rng=np.random.default_rng(0))
        x = np.random.default_rng(0).standard_normal((2, 4))
        _, cache = f.forward(x, np.array([0.2, 0.8]), None)
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


class TestConditionedVelocity:
    """``velocity((local, glob), B, times)(x, k)``, with ``glob`` one
    (1, D) row, is ``forward`` at times ``full(B, times[k])`` with that row
    repeated B times.

    Every weight is drawn non-zero: the modulation heads of a fresh field
    are zero, which would hide a wrong split of their inputs.  A zero
    ``local_dim`` or ``cond_dim`` takes a zero-width array.
    """

    def _field(self, hidden, local_dim, cond_dim, dtype, seed=0):
        rng = np.random.default_rng(seed)
        f = ConditionedField(dim=5, local_dim=local_dim, cond_dim=cond_dim,
                             hidden=hidden, time_dim=6, rng=rng, dtype=dtype)
        for k, v in f.params.items():
            f.params[k] = (0.5 * rng.standard_normal(v.shape)).astype(dtype)
        return f

    @pytest.mark.parametrize("hidden", [(7,), (7, 6, 4)])
    @pytest.mark.parametrize("local_dim,cond_dim", [(3, 4), (0, 4), (3, 0)])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5),
                                           (np.float64, 1e-12)])
    def test_matches_forward(self, hidden, local_dim, cond_dim, dtype, tol):
        f = self._field(hidden, local_dim, cond_dim, dtype)
        rng = np.random.default_rng(1)
        b = 9
        x = rng.standard_normal((b, 5))
        local = rng.standard_normal((b, local_dim))
        glob = rng.standard_normal((1, cond_dim))
        cond = (local, np.tile(glob, (b, 1)))
        times = (0.0, 0.37, 1.0)
        v = f.velocity((local, glob), b, times)
        for k, t in enumerate(times):
            got = v(x, k)
            ref = f.forward(x, np.full(b, t), cond)[0]
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))
            assert not np.allclose(ref, f.forward(
                x, np.full(b, 0.5 * t + 0.2), cond)[0])

    def test_no_hidden_layer(self):
        f = self._field((), 3, 4, np.float64)
        rng = np.random.default_rng(2)
        x, local = rng.standard_normal((4, 5)), rng.standard_normal((4, 3))
        glob = rng.standard_normal((1, 4))
        ref = f.forward(x, np.full(4, 0.5), (local, np.tile(glob, (4, 1))))[0]
        assert np.allclose(f.velocity((local, glob), 4, [0.5])(x, 0), ref,
                           rtol=0, atol=1e-12)

    def test_empty_batch(self):
        f = self._field((7,), 3, 4, np.float32)
        v = f.velocity((np.zeros((0, 3)), np.zeros((1, 4))), 0, [0.5])
        assert v(np.zeros((0, 5)), 0).shape == (0, 5)

    def test_cond_and_state_shapes_checked(self):
        f = self._field((7,), 3, 4, np.float32)
        with pytest.raises(InputError):
            f.velocity((np.zeros((2, 9)), np.zeros((1, 4))), 2, [0.5])
        for glob in (np.zeros((2, 4)), np.zeros(4), np.zeros((1, 5))):
            with pytest.raises(InputError):   # one (1, D) identity row only
                f.velocity((np.zeros((2, 3)), glob), 2, [0.5])
        v = f.velocity((np.zeros((2, 3)), np.zeros((1, 4))), 2, [0.5])
        with pytest.raises(InputError):
            v(np.zeros((3, 5)), 0)

    def test_time_tables_match_one_row_products(self):
        # each step's head row is the bits of the one-row product
        # ``time_embed(t) @ M_t.T`` that a per-step solve would take
        f = self._field((7, 6), 3, 4, np.float32)
        rng = np.random.default_rng(3)
        local, glob = rng.standard_normal((2, 3)), rng.standard_normal((1, 4))
        x = rng.standard_normal((2, 5)).astype(np.float32)
        times = np.linspace(0.0, 1.0, 16, endpoint=False)
        v = f.velocity((local, glob), 2, times)
        p = f.params
        for k, t in enumerate(times):
            emb = time_embed(np.array([t]), 6)[0].astype(np.float32)
            z = x @ p["lay1.W"][:, :5].T
            z += local.astype(np.float32) @ p["lay1.W"][:, 5:].T + p["lay1.b"]
            for j, w in ((1, 7), (2, 6)):
                m = p[f"mod{j}.M"]
                gs = glob.astype(np.float32) @ m[:, :4].T + p[f"mod{j}.c"]
                gt = emb @ np.ascontiguousarray(m[:, 4:]).T
                z = np.tanh(z)
                z *= 1.0 + (gs[:, :w] + gt[:w])
                z += gs[:, w:] + gt[w:]
                nxt = "out" if j == 2 else "lay2"
                z = z @ p[f"{nxt}.W"].T
                z += p[f"{nxt}.b"]
            assert np.array_equal(v(x, k), z)


class TestUShapedVelocity:
    """``velocity(None, B, times)(x, k)`` gives each row the bits of that
    row's one-row ``forward`` at ``times[k]``, at any batch size."""

    def _field(self, dims=(6, 4, 2, 4, 6), seed=0):
        rng = np.random.default_rng(seed)
        f = UShapedField(dims, time_dim=8, rng=rng, dtype=np.float32)
        for k, v in f.params.items():   # non-zero block outputs
            f.params[k] = (0.5 * rng.standard_normal(v.shape)).astype(v.dtype)
        return f

    @pytest.mark.parametrize("b", [1, 2, 5, 64])
    @pytest.mark.parametrize("dims", [(6, 4, 2, 4, 6), (6,), (6, 3, 6)])
    def test_rows_equal_one_row_forward(self, b, dims):
        f = self._field(dims)
        rng = np.random.default_rng(b)
        x = rng.standard_normal((b, 6))
        times = (0.0, 0.37, 1.0)
        v = f.velocity(None, b, times)
        for k, t in enumerate(times):
            got = v(x, k)
            ref = np.concatenate([
                f.forward(x[i:i + 1], np.full(1, t), None)[0]
                for i in range(b)])
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert not np.array_equal(v(x, 0), v(x, 1))

    def test_empty_batch(self):
        v = self._field().velocity(None, 0, [0.5])
        assert v(np.zeros((0, 6)), 0).shape == (0, 6)

    def test_cond_and_state_shapes_checked(self):
        f = self._field()
        with pytest.raises(InputError):
            f.velocity(np.zeros((2, 3)), 2, [0.5])
        with pytest.raises(InputError):
            f.velocity(None, 2, [0.5])(np.zeros((3, 6)), 0)
