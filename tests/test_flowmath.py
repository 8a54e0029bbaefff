import numpy as np
import pytest

from anonflow.cli import main
from anonflow.errors import DivergenceError, InputError
from anonflow.flowmath import cfm_loss, integrate
from anonflow.nets import ConditionedField


class Field:
    """A velocity-form field from ``fn(x, t, cond)``, called with the step
    time of every row."""

    def __init__(self, fn):
        self.fn = fn

    def velocity(self, cond, batch, times):
        return lambda x, k: self.fn(x, np.full(batch, times[k]), cond)


class TestIntegrate:
    def test_zero_field_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        out = integrate(Field(lambda x, t, c: np.zeros_like(x)), x, 7)
        assert np.array_equal(out, x)

    def test_constant_field_exact(self):
        c = np.array([0.5, -1.5])
        for steps in (1, 3, 16):
            out = integrate(Field(lambda x, t, _: np.broadcast_to(c, x.shape)),
                            np.zeros((1, 2)), steps)
            assert np.allclose(out, c)

    def test_linear_field_closed_form(self):
        # x' = x over [0,1]: Euler gives (1+h)^steps * x_init
        x = np.array([[2.0, -1.0]])
        out1 = integrate(Field(lambda x, t, _: x), x, 1)
        assert np.allclose(out1, 2.0 * x)
        out2 = integrate(Field(lambda x, t, _: x), x, 2)
        assert np.allclose(out2, 2.25 * x)

    def test_backward_integration(self):
        # x' = c backward from 1 to 0 subtracts c
        c = np.array([[1.0, 1.0]])
        out = integrate(Field(lambda x, t, _: np.broadcast_to(c, x.shape)),
                        c, 4, backward=True)
        assert np.allclose(out, np.zeros(2))

    def test_forward_backward_constant_field_exact(self):
        c = np.array([0.3, 0.7, -0.2])
        f = Field(lambda x, t, _: np.broadcast_to(c, x.shape))
        x = np.array([[1.0, 2.0, 3.0]])
        fwd = integrate(f, x, 8)
        back = integrate(f, fwd, 8, backward=True)
        assert np.allclose(back, x)

    def test_forward_backward_linear_field_order_h(self):
        # analytic bound: fwd-then-back factor is ((1+h)(1-h))^N = (1-h^2)^N
        n = 32
        h = 1.0 / n
        x = np.array([[1.0, -1.0]])
        f = Field(lambda x, t, _: x)
        fwd = integrate(f, x, n)
        back = integrate(f, fwd, n, backward=True)
        factor = (1 - h**2) ** n
        assert np.allclose(back, factor * x)
        assert np.linalg.norm(back - x) <= 1.5 * h * np.linalg.norm(x)

    def test_richardson_halving(self):
        # on x' = x the global error halves (to first order) when steps double
        x = np.ones((1, 3))
        exact = np.e * x
        f = Field(lambda x, t, _: x)
        e1 = np.linalg.norm(integrate(f, x, 16) - exact)
        e2 = np.linalg.norm(integrate(f, x, 32) - exact)
        assert 0.4 < e2 / e1 < 0.6

    def test_batched_input(self):
        xb = np.arange(6.0).reshape(3, 2)
        out = integrate(Field(lambda x, t, _: x), xb, 1)
        assert out.shape == (3, 2)
        assert np.allclose(out, 2 * xb)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_rejects_steps_below_one(self, tmp_path, capsys, steps):
        # every solve's steps come from --steps or FRAME_STEPS; the check
        # of --steps, made before a command reads anything, owns the rule
        for argv in (["anonymize", "--backbone", "b", "--anonymizer", "a"],
                     ["seca", "--backbone", "b"],
                     ["evaluate", "--anon", "x"]):
            assert main([*argv, "--data", "x", "--out", str(tmp_path),
                         "--steps", str(steps)]) == 2
            assert capsys.readouterr().err == (
                f"error: --steps must be >= 1, got {steps}\n")

    @pytest.mark.parametrize("x_init", [np.ones(2), np.ones((1, 2, 1))])
    def test_rejects_state_that_is_not_a_batch(self, x_init):
        with pytest.raises(InputError, match=r"expected a \(B, d\) batch"):
            integrate(Field(lambda x, t, _: x), x_init, 4)

    @pytest.mark.parametrize("backward", [False, True])
    def test_step_times(self, backward):
        # forward visits t = k/n from 0, backward t = 1 - k/n from 1, with
        # the step and time sums of an Euler loop over [0, 1] or [1, 0]
        seen = []

        def field(x, t, _):
            seen.append(t[0])
            return np.ones_like(x)

        out = integrate(Field(field), np.zeros((1, 1)), 3, backward=backward)
        h = (-1.0 if backward else 1.0) / 3
        t, want = (1.0 if backward else 0.0), []
        for _ in range(3):
            want.append(t)
            t += h
        assert seen == want
        assert out[0, 0] == h + h + h

    def test_divergence_carries_step(self):
        def bad(x, t, _):
            return np.full_like(x, np.inf)
        with pytest.raises(DivergenceError) as ei:
            integrate(Field(bad), np.ones((1, 2)), 4)
        assert ei.value.step == 0
        assert ei.value.row == 0

    def test_divergence_names_first_non_finite_row(self):
        def bad_rows(x, t, _):     # rows 3 and 1 blow up at the third step
            v = np.zeros_like(x)
            if t[0] >= 0.5:
                v[[3, 1]] = np.inf
            return v
        with pytest.raises(DivergenceError) as ei:
            integrate(Field(bad_rows), np.ones((5, 2)), 4)
        assert (ei.value.step, ei.value.row) == (2, 1)

    def test_finite_state_whose_sum_overflows_does_not_raise(self):
        # every value is finite, but the per-step sum is inf (rows of
        # +1e308) or NaN (+1e308 rows and -1e308 rows)
        x = np.array([[1e308, 1e308], [1e308, 1e308], [-1e308, -1e308],
                      [-1e308, -1e308], [-1e308, -1e308], [1.0, 2.0]])
        for state in (x[:2], x):
            out = integrate(Field(lambda x, t, _: np.zeros_like(x)), state, 3)
            assert np.array_equal(out, state)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("step,row", [(0, 0), (2, 3), (5, 6)])
    def test_planted_non_finite_names_step_and_row(self, value, step, row):
        def planted(x, t, _):
            v = np.full_like(x, 0.25)
            if np.isclose(t[0], step / 6):
                v[row, 1] = value
            return v
        x0 = np.ones((7, 3))
        with pytest.raises(DivergenceError) as ei:
            integrate(Field(planted), x0, 6)
        assert (ei.value.step, ei.value.row) == (step, row)
        assert np.array_equal(x0, np.ones((7, 3)))    # x_init is not written

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("steps", [1, 3, 16])
    def test_velocity_gets_the_times_a_callable_sees(self, steps, backward):
        # the table handed to ``velocity`` once holds, in order, the times
        # a field called at every step sees, for every row
        seen, tables = [], []

        def plain(x, t, _):
            seen.append(t.copy())
            return np.ones_like(x)

        class Tabled:
            def velocity(self, cond, batch, times):
                tables.append((cond, batch, np.array(times)))
                return lambda x, k: np.full_like(x, times[k])

        x0 = np.zeros((2, 1))
        integrate(Field(plain), x0, steps, backward=backward)
        integrate(Tabled(), x0, steps, "c", backward=backward)
        (cond, batch, times), = tables
        assert cond == "c" and batch == 2
        h = (-1.0 if backward else 1.0) / steps
        t, want = (1.0 if backward else 0.0), []
        for _ in range(steps):
            want.append(t)
            t += h
        assert np.array_equal(times, want)
        assert np.array_equal(times, [t[0] for t in seen])
        assert all(np.array_equal(t, np.full(2, t[0])) for t in seen)


def _drawn_field(hidden, scale=0.5, seed=0):
    """A float32 ConditionedField with every weight drawn non-zero."""
    rng = np.random.default_rng(seed)
    f = ConditionedField(dim=4, local_dim=3, cond_dim=5, hidden=hidden,
                         time_dim=8, rng=rng, dtype=np.float32)
    for k, v in f.params.items():
        f.params[k] = (scale * rng.standard_normal(v.shape)).astype(np.float32)
    return f


class TestIntegrateVelocity:
    """A field with ``velocity`` is solved through it; the result is that of
    calling ``forward`` with the step time at every step."""

    def _cond(self, b, rng):
        """(velocity's cond: one (1, 5) identity row, forward's: tiled)."""
        local, glob = rng.standard_normal((b, 3)), rng.standard_normal((1, 5))
        return (local, glob), (local, np.tile(glob, (b, 1)))

    @pytest.mark.parametrize("hidden", [(16,), (16, 12, 8)])
    def test_matches_per_step_forward(self, hidden):
        f = _drawn_field(hidden)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((11, 4))
        cond, tiled = self._cond(11, rng)
        got = integrate(f, x0, 16, cond)
        x, t, h = x0, 0.0, 1.0 / 16
        for _ in range(16):
            x = x + h * f.forward(x, np.full(11, t), tiled)[0]
            t += h
        assert np.max(np.abs(got - x)) <= 1e-5 * np.max(np.abs(x))
        assert not np.allclose(got, x0)

    def test_single_vector(self):
        # one row, as a (1, d) batch
        f = _drawn_field((16,))
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal(4)[None]
        cond, tiled = self._cond(1, rng)
        got = integrate(f, x0, 5, cond)
        ref = integrate(Field(lambda x, t, c: f.forward(x, t, c)[0]), x0, 5,
                        tiled)
        assert got.shape == (1, 4)
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-6)

    def test_divergence_at_same_step(self):
        # no hidden layer: the field is linear in x, so the state grows by
        # a large factor per step until float32 overflows
        f = _drawn_field((), scale=300.0)
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((6, 4))
        cond, tiled = self._cond(6, rng)
        steps = []
        for field, c in ((f, cond),
                         (Field(lambda x, t, c: f.forward(x, t, c)[0]), tiled)):
            with pytest.raises(DivergenceError) as ei, \
                    np.errstate(over="ignore", invalid="ignore"):
                integrate(field, x0, 64, c)
            steps.append(ei.value.step)
        assert steps[0] == steps[1] and steps[0] > 0


class _Fixed:
    """A parameter-free field for ``cfm_loss``: ``fn(x, t, cond)``."""

    def __init__(self, fn):
        self.fn = fn

    def forward(self, x, t, cond):
        return self.fn(x, t, cond), None

    def backward(self, cache, d_out):
        return {}


class TestCfmLoss:
    def test_perfect_predictor_zero_loss(self):
        # field that reconstructs x1 - x0 from xt, t and the smuggled x1
        def oracle(xt, t, cond):
            return (cond - xt) / (1.0 - t)[:, None]
        x1 = np.random.default_rng(1).standard_normal((8, 4))
        loss, _ = cfm_loss(_Fixed(oracle), x1, x1, np.random.default_rng(2))
        assert loss < 1e-20

    def test_zero_field_loss_matches_drawn_noise(self):
        rng = np.random.default_rng(7)
        x1 = np.array([[1.0, 2.0, 3.0]])
        loss, _ = cfm_loss(_Fixed(lambda x, t, c: np.zeros_like(x)), x1,
                           None, np.random.default_rng(7))
        # replicate the documented draw order
        rep = np.random.default_rng(7)
        x0 = rep.standard_normal((1, 3))
        expected = float(np.mean((x1 - x0) ** 2))
        assert loss == pytest.approx(expected, abs=0, rel=1e-12)

    def test_determinism(self):
        x1 = np.random.default_rng(3).standard_normal((5, 2))
        f = _Fixed(lambda x, t, c: np.zeros_like(x))
        l1, _ = cfm_loss(f, x1, None, np.random.default_rng(11))
        l2, _ = cfm_loss(f, x1, None, np.random.default_rng(11))
        assert l1 == l2

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError):
            cfm_loss(_Fixed(lambda x, t, c: x), np.empty((0, 3)), None,
                     np.random.default_rng(0))

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        x1 = rng.standard_normal((16, 3))
        loss, _ = cfm_loss(_Fixed(lambda x, t, c: x), x1, None, rng)
        assert loss >= 0.0
