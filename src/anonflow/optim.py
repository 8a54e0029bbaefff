"""Decoupled-weight-decay adaptive-moment optimizer and one-cycle schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError

DIV_FACTOR = 25.0           # OneCycle starts at peak / DIV_FACTOR
FINAL_DIV_FACTOR = 1.0e4    # and ends at peak / FINAL_DIV_FACTOR
BETA1, BETA2, EPS = 0.9, 0.999, 1.0e-8   # AdamW moment decays and eps


@dataclass(frozen=True)
class OneCycle:
    """One-cycle learning-rate schedule.

    Cosine warmup from peak/DIV_FACTOR to peak over the first
    pct_start * total steps, then cosine anneal down to
    peak/FINAL_DIV_FACTOR; continuous at the junction.  The configs'
    rules and ``AdamW.lr``'s clamp keep every argument in range.
    """

    total_steps: int
    peak_lr: float
    pct_start: float = 0.1

    def lr(self, step: int) -> float:
        warm = self.pct_start * self.total_steps
        lo = self.peak_lr / DIV_FACTOR
        fin = self.peak_lr / FINAL_DIV_FACTOR
        if step <= warm:
            frac = step / warm
            return lo + (self.peak_lr - lo) * 0.5 * (1.0 - np.cos(np.pi * frac))
        frac = (step - warm) / (self.total_steps - warm)
        return fin + (self.peak_lr - fin) * 0.5 * (1.0 + np.cos(np.pi * frac))


class AdamW:
    """AdamW over a named parameter dict, with lr driven by a OneCycle schedule.

    Weight decay is decoupled: applied directly to parameters, never to the
    moment accumulators.

    The parameters and both moments live in one flat buffer per parameter
    dtype.  Construction copies each tensor into its dtype's buffer and
    rebinds ``params[k]``, ``m[k]`` and ``v[k]`` to views of it: a caller
    that reads its tensors through the dict it passed in sees every update,
    one that kept the old arrays does not.  A step runs each element-wise
    operation once per buffer, in the per-element order of a per-tensor
    update, so the result is bit-identical to updating each tensor in turn.
    """

    def __init__(self, params: dict, schedule: OneCycle, weight_decay: float):
        self.params = params
        self.schedule = schedule
        self.weight_decay = weight_decay
        self.step_count = 0
        by_dtype = {}
        for k, p in params.items():
            by_dtype.setdefault(np.asarray(p).dtype, []).append(k)
        self._groups = []         # (keys, shapes, flat params, flat m, flat v)
        views = {}
        for dtype, keys in by_dtype.items():
            shapes = [np.shape(params[k]) for k in keys]
            flat = np.concatenate([params[k] for k in keys], axis=None,
                                  dtype=dtype)
            bufs = (flat, np.zeros_like(flat), np.zeros_like(flat))
            self._groups.append((keys, shapes, *bufs))
            lo = 0
            for k, shape in zip(keys, shapes):
                hi = lo + math.prod(shape)
                views[k] = [b[lo:hi].reshape(shape) for b in bufs]
                lo = hi
        self.m, self.v = {}, {}
        for k in params:
            params[k], self.m[k], self.v[k] = views[k]

    @property
    def lr(self) -> float:
        return self.schedule.lr(min(self.step_count, self.schedule.total_steps))

    def step(self, grads: dict) -> None:
        """Update every parameter from ``grads`` (one array per key, at the
        parameter's shape).  A non-finite gradient raises DivergenceError
        and a misshapen one InputError, naming the first such key in
        parameter order; either way no parameter changes."""
        t = self.step_count + 1
        flat_grads = []
        for keys, shapes, *_ in self._groups:
            g = [grads[k] for k in keys]
            ok = all(gk.shape == s for gk, s in zip(g, shapes))
            if ok:
                g = np.concatenate(g, axis=None)
                ok = np.isfinite(g).all()
            if not ok:
                self._reject(grads, t)
            flat_grads.append(g)
        lr = self.lr
        self.step_count = t
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for (_, _, p, m, v), g in zip(self._groups, flat_grads):
            if self.weight_decay:
                p *= 1.0 - lr * self.weight_decay
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= (lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)).astype(p.dtype)

    def _reject(self, grads: dict, t: int) -> None:
        """Raise for the first key whose gradient is non-finite or
        misshapen, checking each key's finiteness before its shape."""
        for k, m in self.m.items():       # m[k] has the shape of params[k]
            g = grads[k]
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient for {k}", step=t)
            if g.shape != m.shape:
                raise InputError(f"gradient shape {g.shape} != param shape {m.shape} for {k}")
