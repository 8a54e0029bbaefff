"""Flow-matching primitives: the conditional flow-matching loss over
straight noise-to-data paths, and fixed-step Euler integration forward
(t = 0 -> 1) or backward (t = 1 -> 0).

All functions are pure; randomness enters only through an explicitly
passed ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError, InputError


def cfm_loss(field, x1: np.ndarray, cond, rng: np.random.Generator):
    """Conditional flow-matching loss on one batch of a field with
    ``forward``/``backward``.

    ``x1`` is (B, d); ``cond`` is forwarded to the field unchanged (may be
    None or a batched array / tuple of arrays).  Noise endpoints are drawn
    standard normal and times uniform on [0, 1), in that order, so a test
    with the same generator state can reproduce the draws.

    Returns ``(loss, grads)``, grads the field's parameter-gradient dict.
    """
    x1 = np.asarray(x1, dtype=float)
    if x1.ndim != 2 or x1.shape[0] == 0:
        raise InputError("batch must be a non-empty (B, d) array")
    b, d = x1.shape
    x0 = rng.standard_normal((b, d))
    t = rng.uniform(0.0, 1.0, size=b)
    xt = (1.0 - t)[:, None] * x0 + t[:, None] * x1
    u = x1 - x0
    pred, cache = field.forward(xt, t, cond)
    resid = pred - u
    grads = field.backward(cache, (2.0 / resid.size) * resid)
    return float(np.mean(resid**2)), grads


def integrate(field, x_init: np.ndarray, steps: int, cond=None, *,
              backward: bool = False) -> np.ndarray:
    """Explicit Euler integration of the field's velocity in ``steps``
    equal steps from t = 0 to 1, or from t = 1 to 0 if ``backward``, from
    the (B, d) batch ``x_init``; ``steps`` is at least 1, as the
    ``--steps`` check and ``FRAME_STEPS`` keep it.

    The step times are computed once, by repeated ``t += h``; the field's
    ``velocity(cond, B, times)`` sets up the solve and gives ``f(x, k)``,
    the velocity at step ``k``.  ``x_init`` is copied once and the state
    updated in place.  A state that turns non-finite raises DivergenceError
    with the step and the first such row; one sum per step finds it, and
    only a sum that is not finite (some value is, or the sum overflowed) is
    followed by the row scan.
    """
    x = np.array(x_init, dtype=float)
    if x.ndim != 2:
        raise InputError(f"expected a (B, d) batch, got shape {x.shape}")
    h = (-1.0 if backward else 1.0) / steps
    times = np.empty(steps)
    t = 1.0 if backward else 0.0
    for k in range(steps):
        times[k] = t
        t += h
    f = field.velocity(cond, x.shape[0], times)
    for k in range(steps):
        x += h * np.asarray(f(x, k))
        # finite values may sum to inf, and inf and -inf to NaN
        with np.errstate(over="ignore", invalid="ignore"):
            total = x.sum()
        if not np.isfinite(total):
            rows = np.flatnonzero(~np.isfinite(x).all(axis=1))
            if rows.size:
                raise DivergenceError(f"non-finite state at step {k}",
                                      step=k, row=int(rows[0]))
    return x
