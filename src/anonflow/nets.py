"""Minimal differentiable network machinery.

Two field architectures are provided, both mapping (x, t[, cond]) -> vector
of the same dimension as x:

* :class:`UShapedField` -- a symmetric encoder/decoder MLP whose level widths
  narrow to a bottleneck and widen back out, with additive skip connections
  between mirrored levels and a sinusoidal time embedding added to the input.
* :class:`ConditionedField` -- a plain MLP trunk over the concatenated local
  inputs whose every block is modulated by a zero-initialized scale/shift
  computed from the global conditioning vector (speaker embedding + time
  embedding), so conditioning is exactly the identity at initialization.

Forward passes record the activations needed for reverse mode; ``backward``
consumes that cache and returns a parameter-gradient dict.  Everything is
plain numpy; dtype is fixed per instance (float32 for training, float64 for
finite-difference checks).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InputError, StateError


@functools.lru_cache(maxsize=8)
def _frequencies(dim: int) -> np.ndarray:
    """The dim/2 log-spaced frequencies of ``time_embed``, read-only."""
    omegas = np.geomspace(1.0, 1.0e4, dim // 2)
    omegas.flags.writeable = False
    return omegas


def time_embed(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of times in [0, 1].

    Frequencies are log-spaced from 1 to 1e4 over dim/2 values; output
    interleaves (sin(t*w_k), cos(t*w_k)).  ``t`` may be scalar or (B,).
    """
    if dim % 2 != 0 or dim < 2:
        raise InputError(f"embedding dim must be even and >= 2, got {dim}")
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    arg = t[:, None] * _frequencies(dim)[None, :]
    out = np.empty((t.shape[0], dim))
    out[:, 0::2] = np.sin(arg)
    out[:, 1::2] = np.cos(arg)
    return out[0] if scalar else out


def _init_linear(rng, n_out, n_in, dtype):
    w = rng.standard_normal((n_out, n_in)) / np.sqrt(n_in)
    return w.astype(dtype), np.zeros(n_out, dtype=dtype)


class UShapedField:
    """Symmetric U-shaped MLP field over fixed-dimension vectors.

    ``level_dims`` must be palindromic with a single minimum at the center,
    e.g. [16, 8, 4, 2, 4, 8, 16].  Each level transition is a linear map
    followed by tanh (the last one stays linear) and a residual MLP block;
    decoder levels additionally receive the mirrored encoder activation as
    an additive skip.  The final skip from level 0 makes the output a
    residual path on the (time-shifted) input.
    """

    def __init__(self, level_dims, time_dim: int = 16, rng=None, dtype=np.float32):
        dims = list(level_dims)
        if dims != dims[::-1]:
            raise InputError(f"level_dims must be palindromic, got {dims}")
        if len(dims) >= 3 and dims.count(min(dims)) != 1:
            raise InputError("level_dims must have a single minimum at the center")
        if time_dim % 2 != 0:
            raise InputError("time_dim must be even")
        self.level_dims = dims
        self.dim = dims[0]
        self.time_dim = time_dim
        self.dtype = dtype
        rng = rng if rng is not None else np.random.default_rng(0)
        p = {}
        p["time_proj.W"], p["time_proj.b"] = _init_linear(rng, dims[0], time_dim, dtype)
        for i in range(1, len(dims)):
            p[f"lin{i}.W"], p[f"lin{i}.b"] = _init_linear(rng, dims[i], dims[i - 1], dtype)
            m = 2 * dims[i]
            p[f"blk{i}.W1"], p[f"blk{i}.b1"] = _init_linear(rng, m, dims[i], dtype)
            # zero-init the block output so every block starts as identity
            p[f"blk{i}.W2"] = np.zeros((dims[i], m), dtype=dtype)
            p[f"blk{i}.b2"] = np.zeros(dims[i], dtype=dtype)
        self.params = p

    def forward(self, x, t, cond=None):
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise InputError(f"expected (B, {self.dim}) input, got {x.shape}")
        p = self.params
        n = len(self.level_dims)
        emb = time_embed(np.asarray(t, dtype=float), self.time_dim).astype(self.dtype)
        h = [x + emb @ p["time_proj.W"].T + p["time_proj.b"]]
        cache = {"emb": emb, "a": [None], "q": [None]}
        for i in range(1, n):
            z = h[i - 1] @ p[f"lin{i}.W"].T + p[f"lin{i}.b"]
            if i > n - 1 - i:
                z = z + h[n - 1 - i]
            a = np.tanh(z) if i < n - 1 else z
            q = np.tanh(a @ p[f"blk{i}.W1"].T + p[f"blk{i}.b1"])
            h.append(a + q @ p[f"blk{i}.W2"].T + p[f"blk{i}.b2"])
            cache["a"].append(a)
            cache["q"].append(q)
        cache["h"] = h
        return h[-1], cache

    def backward(self, cache, d_out):
        if cache is None or "h" not in cache:
            raise StateError("backward called without a recorded forward pass")
        p = self.params
        n = len(self.level_dims)
        h, a_s, q_s = cache["h"], cache["a"], cache["q"]
        d_out = np.asarray(d_out, dtype=self.dtype)
        g = {k: np.zeros_like(v) for k, v in p.items()}
        dh = [np.zeros_like(hi) for hi in h]
        dh[n - 1] = d_out
        for i in range(n - 1, 0, -1):
            d_hi = dh[i]
            a, q = a_s[i], q_s[i]
            g[f"blk{i}.W2"] += d_hi.T @ q
            g[f"blk{i}.b2"] += d_hi.sum(axis=0)
            dp = (d_hi @ p[f"blk{i}.W2"]) * (1.0 - q**2)
            g[f"blk{i}.W1"] += dp.T @ a
            g[f"blk{i}.b1"] += dp.sum(axis=0)
            da = d_hi + dp @ p[f"blk{i}.W1"]
            dz = da * (1.0 - a**2) if i < n - 1 else da
            if i > n - 1 - i:
                dh[n - 1 - i] = dh[n - 1 - i] + dz
            g[f"lin{i}.W"] += dz.T @ h[i - 1]
            g[f"lin{i}.b"] += dz.sum(axis=0)
            dh[i - 1] = dh[i - 1] + dz @ p[f"lin{i}.W"]
        g["time_proj.W"] += dh[0].T @ cache["emb"]
        g["time_proj.b"] += dh[0].sum(axis=0)
        return g

    def __call__(self, x, t, cond=None):
        return self.forward(x, t, cond)[0]


class ConditionedField:
    """MLP trunk over local inputs, modulated per block by global conditioning.

    Local input is the concatenation of the state vector x with any local
    conditioning channels (``local_dim`` extra features).  The global
    conditioning vector (``cond_dim`` features, e.g. a speaker embedding)
    is concatenated with the time embedding and mapped through
    zero-initialized linear heads to a per-block (scale, shift); block
    output is ``tanh(z) * (1 + scale) + shift``.
    """

    def __init__(self, dim, local_dim, cond_dim, hidden, time_dim: int = 16,
                 rng=None, dtype=np.float32):
        if time_dim % 2 != 0:
            raise InputError("time_dim must be even")
        self.dim = dim
        self.local_dim = local_dim
        self.cond_dim = cond_dim
        self.hidden = list(hidden)
        self.time_dim = time_dim
        self.dtype = dtype
        rng = rng if rng is not None else np.random.default_rng(0)
        cdim = cond_dim + time_dim
        p = {}
        prev = dim + local_dim
        for j, width in enumerate(self.hidden, start=1):
            p[f"lay{j}.W"], p[f"lay{j}.b"] = _init_linear(rng, width, prev, dtype)
            p[f"mod{j}.M"] = np.zeros((2 * width, cdim), dtype=dtype)
            p[f"mod{j}.c"] = np.zeros(2 * width, dtype=dtype)
            prev = width
        p["out.W"], p["out.b"] = _init_linear(rng, dim, prev, dtype)
        self.params = p

    def _split_cond(self, cond, batch):
        """cond is (local, global): local (B, local_dim) or None, global (B, cond_dim)."""
        local, glob = cond if cond is not None else (None, None)
        if self.local_dim:
            local = np.asarray(local, dtype=self.dtype)
            if local.shape != (batch, self.local_dim):
                raise InputError(f"expected local cond {(batch, self.local_dim)}, got "
                                 f"{None if local is None else local.shape}")
        if self.cond_dim:
            glob = np.asarray(glob, dtype=self.dtype)
            if glob.ndim == 1:
                glob = np.broadcast_to(glob, (batch, self.cond_dim))
            if glob.shape != (batch, self.cond_dim):
                raise InputError(f"expected global cond {(batch, self.cond_dim)}, got "
                                 f"{None if glob is None else glob.shape}")
        return local, glob

    def forward(self, x, t, cond):
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise InputError(f"expected (B, {self.dim}) input, got {x.shape}")
        b = x.shape[0]
        local, glob = self._split_cond(cond, b)
        emb = time_embed(np.asarray(t, dtype=float), self.time_dim).astype(self.dtype)
        parts = [emb] if glob is None else [glob.astype(self.dtype), emb]
        c = np.concatenate(parts, axis=1)
        h = x if local is None else np.concatenate([x, local], axis=1)
        p = self.params
        cache = {"c": c, "h_in": [], "a": [], "gs": []}
        for j in range(1, len(self.hidden) + 1):
            cache["h_in"].append(h)
            z = h @ p[f"lay{j}.W"].T + p[f"lay{j}.b"]
            gs = c @ p[f"mod{j}.M"].T + p[f"mod{j}.c"]
            width = self.hidden[j - 1]
            a = np.tanh(z)
            h = a * (1.0 + gs[:, :width]) + gs[:, width:]
            cache["a"].append(a)
            cache["gs"].append(gs)
        cache["h_last"] = h
        out = h @ p["out.W"].T + p["out.b"]
        return out, cache

    def backward(self, cache, d_out):
        if cache is None or "h_last" not in cache:
            raise StateError("backward called without a recorded forward pass")
        p = self.params
        d_out = np.asarray(d_out, dtype=self.dtype)
        g = {k: np.zeros_like(v) for k, v in p.items()}
        g["out.W"] += d_out.T @ cache["h_last"]
        g["out.b"] += d_out.sum(axis=0)
        dh = d_out @ p["out.W"]
        c = cache["c"]
        for j in range(len(self.hidden), 0, -1):
            a = cache["a"][j - 1]
            scale = cache["gs"][j - 1][:, :self.hidden[j - 1]]
            da = dh * (1.0 + scale)
            dscale = dh * a
            dshift = dh
            dgs = np.concatenate([dscale, dshift], axis=1)
            g[f"mod{j}.M"] += dgs.T @ c
            g[f"mod{j}.c"] += dgs.sum(axis=0)
            dz = da * (1.0 - a**2)
            g[f"lay{j}.W"] += dz.T @ cache["h_in"][j - 1]
            g[f"lay{j}.b"] += dz.sum(axis=0)
            dh = dz @ p[f"lay{j}.W"]
        return g

    def __call__(self, x, t, cond):
        return self.forward(x, t, cond)[0]
