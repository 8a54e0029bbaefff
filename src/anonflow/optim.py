"""Decoupled-weight-decay adaptive-moment optimizer and one-cycle schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError


@dataclass(frozen=True)
class OneCycle:
    """One-cycle learning-rate schedule.

    Cosine warmup from peak/div_factor to peak over the first
    pct_start * total steps, then cosine anneal down to
    peak/final_div_factor; continuous at the junction.
    """

    total_steps: int
    peak_lr: float
    pct_start: float = 0.1
    div_factor: float = 25.0
    final_div_factor: float = 1.0e4

    def __post_init__(self):
        if not (0.0 < self.pct_start < 1.0):
            raise InputError(f"pct_start must be in (0, 1), got {self.pct_start}")
        if self.total_steps < 1:
            raise InputError("total_steps must be >= 1")

    def lr(self, step: int) -> float:
        if not (0 <= step <= self.total_steps):
            raise InputError(f"step {step} outside [0, {self.total_steps}]")
        warm = self.pct_start * self.total_steps
        lo = self.peak_lr / self.div_factor
        fin = self.peak_lr / self.final_div_factor
        if step <= warm:
            frac = step / warm
            return lo + (self.peak_lr - lo) * 0.5 * (1.0 - np.cos(np.pi * frac))
        frac = (step - warm) / (self.total_steps - warm)
        return fin + (self.peak_lr - fin) * 0.5 * (1.0 + np.cos(np.pi * frac))


class AdamW:
    """AdamW over a named parameter dict, with lr driven by a OneCycle schedule.

    Weight decay is decoupled: applied directly to parameters, never to the
    moment accumulators.
    """

    def __init__(self, params: dict, schedule, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1.0e-8, weight_decay: float = 0.01):
        # schedule: a OneCycle, or a plain float for a constant rate
        self.params = params
        self.schedule = schedule
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    @property
    def lr(self) -> float:
        if isinstance(self.schedule, (int, float)):
            return float(self.schedule)
        return self.schedule.lr(min(self.step_count, self.schedule.total_steps))

    def step(self, grads: dict) -> None:
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
