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
consumes that cache and returns a parameter-gradient dict.  Each field's
``velocity`` is its cache-free inference form, set up once per ODE solve
with that solve's step times and kept apart from the training passes.
Everything is plain numpy; dtype is fixed per instance (float32 for
training, float64 for finite-difference checks).
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
    """Sinusoidal embedding of the (B,) times ``t`` in [0, 1], as (B, dim).

    Frequencies are log-spaced from 1 to 1e4 over dim/2 values; each row
    interleaves (sin(t*w_k), cos(t*w_k)); ``dim`` is even and at least 2,
    as the configs' ``time_dim`` rule asks.
    """
    arg = np.asarray(t, dtype=float)[:, None] * _frequencies(dim)[None, :]
    out = np.empty((arg.shape[0], dim))
    out[:, 0::2] = np.sin(arg)
    out[:, 1::2] = np.cos(arg)
    return out


def _init_linear(rng, n_out, n_in, dtype):
    w = rng.standard_normal((n_out, n_in)) / np.sqrt(n_in)
    return w.astype(dtype), np.zeros(n_out, dtype=dtype)


def u_shaped(level_dims) -> bool:
    """``level_dims`` is palindromic with a single minimum at the center."""
    dims = list(level_dims)
    return dims == dims[::-1] and (len(dims) < 3 or dims.count(min(dims)) == 1)


class UShapedField:
    """Symmetric U-shaped MLP field over fixed-dimension vectors.

    ``level_dims`` is palindromic with a single minimum at the center, as
    ``AnonymizerConfig`` requires, e.g. [16, 8, 4, 2, 4, 8, 16].  Each level
    transition is a linear map followed by tanh (the last one stays
    linear) and a residual MLP block;
    decoder levels additionally receive the mirrored encoder activation as
    an additive skip.  The final skip from level 0 makes the output a
    residual path on the (time-shifted) input.
    """

    def __init__(self, level_dims, time_dim: int, rng, dtype):
        dims = list(level_dims)
        self.level_dims = dims
        self.dim = dims[0]
        self.time_dim = time_dim
        self.dtype = dtype
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

    def forward(self, x, t, cond):
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise InputError(f"expected (B, {self.dim}) input, got {x.shape}")
        p = self.params
        n = len(self.level_dims)
        emb = time_embed(t, self.time_dim).astype(self.dtype)
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

    def velocity(self, cond, batch: int, times):
        """The inference form of ``forward`` for one ODE solve at the step
        times ``times``; ``cond`` must be None.

        Returns ``f(x, k)``, whose every row equals that row's one-row
        ``forward`` at time ``times[k]`` bit for bit, at any batch size:
        each product is a stacked (B, 1, k) @ (k, n) matmul, numpy's
        vector-matrix path, and the time embedding's projection is tabled
        once per solve with the same stacked form.  No reverse-mode cache
        is kept; training uses ``forward``/``backward``.
        """
        if cond is not None:
            raise InputError("UShapedField takes no conditioning")
        p = self.params
        n = len(self.level_dims)
        emb = time_embed(times, self.time_dim).astype(self.dtype)
        proj = (emb[:, None, :] @ p["time_proj.W"].T)[:, 0]
        levels = [(p[f"lin{i}.W"].T, p[f"lin{i}.b"], p[f"blk{i}.W1"].T,
                   p[f"blk{i}.b1"], p[f"blk{i}.W2"].T, p[f"blk{i}.b2"])
                  for i in range(1, n)]

        def f(x, k):
            x = np.asarray(x, dtype=self.dtype)
            if x.shape != (batch, self.dim):
                raise InputError(f"expected ({batch}, {self.dim}) input, "
                                 f"got {x.shape}")
            h = [(x + proj[k] + p["time_proj.b"])[:, None, :]]
            for i, (w, b, w1, b1, w2, b2) in enumerate(levels, start=1):
                z = h[i - 1] @ w + b
                if i > n - 1 - i:
                    z = z + h[n - 1 - i]
                a = np.tanh(z) if i < n - 1 else z
                q = np.tanh(a @ w1 + b1)
                h.append(a + q @ w2 + b2)
            return h[-1][:, 0]
        return f

    def backward(self, cache, d_out):
        if cache is None or "h" not in cache:
            raise StateError("backward called without a recorded forward pass")
        p = self.params
        n = len(self.level_dims)
        h, a_s, q_s = cache["h"], cache["a"], cache["q"]
        d_hi = np.asarray(d_out, dtype=self.dtype)
        g = {}
        skip = {}     # level -> the skip term its mirrored decoder level sent
        for i in range(n - 1, 0, -1):
            a, q = a_s[i], q_s[i]
            g[f"blk{i}.W2"] = d_hi.T @ q
            g[f"blk{i}.b2"] = d_hi.sum(axis=0)
            dp = d_hi @ p[f"blk{i}.W2"]
            dp *= 1.0 - q**2
            g[f"blk{i}.W1"] = dp.T @ a
            g[f"blk{i}.b1"] = dp.sum(axis=0)
            dz = dp @ p[f"blk{i}.W1"]
            dz += d_hi
            if i < n - 1:
                dz *= 1.0 - a**2
            if i > n - 1 - i:
                skip[n - 1 - i] = dz
            g[f"lin{i}.W"] = dz.T @ h[i - 1]
            g[f"lin{i}.b"] = dz.sum(axis=0)
            d_hi = dz @ p[f"lin{i}.W"]
            if i - 1 in skip:
                d_hi += skip[i - 1]
        g["time_proj.W"] = d_hi.T @ cache["emb"]
        g["time_proj.b"] = d_hi.sum(axis=0)
        return g


class ConditionedField:
    """MLP trunk over local inputs, modulated per block by global conditioning.

    Local input is the concatenation of the state vector x with any local
    conditioning channels (``local_dim`` extra features).  The global
    conditioning vector (``cond_dim`` features, e.g. a speaker embedding)
    is concatenated with the time embedding and mapped through
    zero-initialized linear heads to a per-block (scale, shift); block
    output is ``tanh(z) * (1 + scale) + shift``.
    """

    def __init__(self, dim, local_dim, cond_dim, hidden, time_dim: int, rng,
                 dtype):
        self.dim = dim
        self.local_dim = local_dim
        self.cond_dim = cond_dim
        self.hidden = list(hidden)
        self.time_dim = time_dim
        self.dtype = dtype
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

    def _split_cond(self, cond, batch, rows):
        """cond is (local (batch, local_dim), global (rows, cond_dim))."""
        local, glob = (np.asarray(c, dtype=self.dtype) for c in cond)
        for name, a, shape in (("local", local, (batch, self.local_dim)),
                               ("global", glob, (rows, self.cond_dim))):
            if a.shape != shape:
                raise InputError(f"expected {name} cond {shape}, got {a.shape}")
        return local, glob

    def forward(self, x, t, cond):
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise InputError(f"expected (B, {self.dim}) input, got {x.shape}")
        b = x.shape[0]
        local, glob = self._split_cond(cond, b, b)
        emb = time_embed(t, self.time_dim).astype(self.dtype)
        c = np.concatenate([glob, emb], axis=1)
        h = np.concatenate([x, local], axis=1)
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

    def velocity(self, cond, batch: int, times):
        """The inference form of ``forward`` for one ODE solve at the step
        times ``times``, in which every row has the same global cond:
        ``cond`` is (local (batch, local_dim), global (1, cond_dim)).

        Returns ``f(x, k)``, equal to ``forward`` of ``x`` at time
        ``times[k]`` with the global row repeated over the batch, up to
        float rounding.  What does not change between steps is computed
        here once: the local half of the first layer and the global half of
        each modulation head, as one row, and each step's time embedding
        and its half of every head, as a table with one row per step.
        The heads' time halves are stacked (steps, 1, time_dim) products,
        numpy's vector-matrix path, so each row has the bits of a one-row
        product.  No reverse-mode cache is kept; training uses
        ``forward``/``backward``.
        """
        local, glob = self._split_cond(cond, batch, 1)
        p = self.params
        mats = [(p[f"lay{j}.W"], p[f"lay{j}.b"])
                for j in range(1, len(self.hidden) + 1)]
        mats.append((p["out.W"], p["out.b"]))
        w_in, b_in = mats[0]
        # weights stay (out, in) and are used as ``.T`` views, the GEMM layout
        # of ``forward``; at small batches it rounds closer than a transposed copy
        w_x = np.ascontiguousarray(w_in[:, :self.dim])
        z_fixed = local @ w_in[:, self.dim:].T + b_in
        emb = time_embed(times, self.time_dim).astype(self.dtype)[:, None, :]
        heads = []                # (1 + scale, shift) per block, per step
        for j, width in enumerate(self.hidden, start=1):
            m, c = p[f"mod{j}.M"], p[f"mod{j}.c"]
            gs = glob @ m[:, :self.cond_dim].T + c
            gt = emb @ np.ascontiguousarray(m[:, self.cond_dim:]).T
            heads.append((1.0 + (gs[:, :width] + gt[:, :, :width]),
                          gs[:, width:] + gt[:, :, width:]))

        def f(x, k):
            x = np.asarray(x, dtype=self.dtype)
            if x.shape != (batch, self.dim):
                raise InputError(f"expected ({batch}, {self.dim}) input, "
                                 f"got {x.shape}")
            z = x @ w_x.T
            z += z_fixed
            for (scale, shift), (w, b) in zip(heads, mats[1:]):
                np.tanh(z, out=z)
                z *= scale[k]
                z += shift[k]
                z = z @ w.T
                z += b
            return z
        return f

    def backward(self, cache, d_out):
        if cache is None or "h_last" not in cache:
            raise StateError("backward called without a recorded forward pass")
        p = self.params
        d_out = np.asarray(d_out, dtype=self.dtype)
        g = {"out.W": d_out.T @ cache["h_last"], "out.b": d_out.sum(axis=0)}
        dh = d_out @ p["out.W"]
        c = cache["c"]
        for j in range(len(self.hidden), 0, -1):
            width = self.hidden[j - 1]
            a = cache["a"][j - 1]
            scale = cache["gs"][j - 1][:, :width]
            # the head's (d scale, d shift), side by side
            dgs = np.empty((dh.shape[0], 2 * width), dtype=self.dtype)
            np.multiply(dh, a, out=dgs[:, :width])
            dgs[:, width:] = dh
            g[f"mod{j}.M"] = dgs.T @ c
            g[f"mod{j}.c"] = dgs.sum(axis=0)
            dz = dh * (1.0 + scale)
            dz *= 1.0 - a**2
            g[f"lay{j}.W"] = dz.T @ cache["h_in"][j - 1]
            g[f"lay{j}.b"] = dz.sum(axis=0)
            dh = dz @ p[f"lay{j}.W"]
        return g
