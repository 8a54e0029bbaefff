"""Vector-quantization bottleneck with a two-term commitment loss.

The codebook learns through the loss (no EMA): its gradient comes from the
beta-weighted half of the commitment term.  In this package the content
features are data, not encoder outputs, so no gradient flows back to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class Codebook:
    entries: np.ndarray  # (K, E)
    beta: float = 0.25

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2 or self.entries.shape[0] < 2:
            raise InputError("codebook needs at least 2 entries of shape (K, E)")
        if not np.all(np.isfinite(self.entries)):
            raise InputError("codebook entries must be finite")


@dataclass(frozen=True)
class QuantizeResult:
    c_vq: np.ndarray        # (T, E) nearest codewords
    indices: np.ndarray     # (T,) assigned codeword ids
    commit_loss: float


def nearest(rows, centers) -> np.ndarray:
    """Index of each row's nearest center (ties -> lowest index).

    Distances up to a per-row constant come from one GEMM, ||c||^2 - 2 r.c.
    Rows whose two best candidates are within rounding of each other are
    ranked again by exact difference-based distances, so every row gets
    the index the direct (N, K, E) form gives, ties included.  The
    second-best distance is the row minimum with the best entry set to
    inf; a second copy of the best value stays, as in a partition.
    """
    c2 = np.einsum("ke,ke->k", centers, centers)
    d2 = rows @ centers.T
    d2 *= -2.0
    d2 += c2
    best = np.argmin(d2, axis=1)
    at = np.arange(len(d2))
    first = d2[at, best]
    d2[at, best] = np.inf
    tol = 1e-9 * (np.einsum("ne,ne->n", rows, rows) + c2.max())
    close = np.flatnonzero(d2.min(axis=1) - first <= tol)
    if close.size:
        diff = rows[close, None, :] - centers[None, :, :]
        best[close] = np.argmin(np.einsum("nke,nke->nk", diff, diff), axis=1)
    return best


def quantize(f_sem, codebook: Codebook) -> QuantizeResult:
    """Nearest-codeword assignment (ties break to the lowest index).

    commit_loss is the standard two-term form; both terms share the same
    numeric value and differ only in which side the gradient reaches.
    """
    f = np.asarray(f_sem, dtype=float)
    if f.ndim != 2 or f.shape[0] == 0:
        raise InputError("f_sem must be a non-empty (T, E) matrix")
    if f.shape[1] != codebook.entries.shape[1]:
        raise InputError(f"feature dim {f.shape[1]} != codebook dim "
                         f"{codebook.entries.shape[1]}")
    indices = nearest(f, codebook.entries)
    c_vq = codebook.entries[indices]
    mse = float(np.mean((f - c_vq) ** 2))
    return QuantizeResult(c_vq=c_vq, indices=indices,
                          commit_loss=(1.0 + codebook.beta) * mse)


def codebook_grad(f_sem, result: QuantizeResult, codebook: Codebook) -> np.ndarray:
    """d(commit_loss)/d(entries): only the beta term reaches the codebook."""
    f = np.asarray(f_sem, dtype=float)
    g = np.zeros_like(codebook.entries)
    scale = 2.0 * codebook.beta / f.size
    np.add.at(g, result.indices, scale * (result.c_vq - f))
    return g

