"""Factorized frame-reconstruction model.

Content enters through a fixed random token embedding pushed through the
VQ bottleneck, pitch through the median-centered semitone contour, and
speaker identity through global conditioning of the flow field.  Frames
are modeled independently: each one is a separate flow-matching sample.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import (AT_LEAST_1, NON_NEGATIVE, TRAINING_RANGES, WIDTHS,
                         check_ranges, load_model, save_model)
from .errors import DivergenceError
from .flowmath import cfm_loss, integrate
from .nets import ConditionedField
from .optim import AdamW, OneCycle
from .vq import Codebook, codebook_grad, quantize
from .worldgen import Dataset, oracle_extract_speaker


@dataclass
class BackboneConfig:
    content_dim: int = 16
    hidden: tuple = (96, 96)
    time_dim: int = 16
    codebook_size: int = 96
    beta: float = 0.25
    lam: float = 1.0             # weight on the commitment loss
    steps: int = 5000
    batch: int = 256
    peak_lr: float = 2.0e-3
    pct_start: float = 0.1
    weight_decay: float = 1.0e-4
    f_sem_noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        self.hidden = tuple(self.hidden)
        check_ranges("backbone", self, {
            "content_dim": AT_LEAST_1, "hidden": WIDTHS,
            "codebook_size": (lambda v: v >= 2, ">= 2"),
            "beta": NON_NEGATIVE, "lam": NON_NEGATIVE,
            "f_sem_noise": NON_NEGATIVE, **TRAINING_RANGES})


class BackboneModel:
    def __init__(self, frame_dim: int, speaker_dim: int, vocab_size: int,
                 config: BackboneConfig):
        self.frame_dim = frame_dim
        self.speaker_dim = speaker_dim
        self.vocab_size = vocab_size
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.token_embed = rng.standard_normal((vocab_size, config.content_dim))
        self.field = ConditionedField(
            dim=frame_dim, local_dim=config.content_dim + 1,
            cond_dim=speaker_dim, hidden=config.hidden,
            time_dim=config.time_dim, rng=rng, dtype=np.float32)
        self.codebook = Codebook(
            entries=np.zeros((config.codebook_size, config.content_dim)),
            beta=config.beta)

    def f_sem(self, frame_tokens, rng=None) -> np.ndarray:
        """Per-frame content features: fixed token embedding plus small noise."""
        f = self.token_embed[np.asarray(frame_tokens, dtype=int)]
        if rng is not None and self.config.f_sem_noise > 0:
            f = f + self.config.f_sem_noise * rng.standard_normal(f.shape)
        return f

    @staticmethod
    def local_cond(c_vq, p_norm) -> np.ndarray:
        """(c_vq, p_norm) channels concatenated for the field's local input."""
        return np.concatenate([c_vq, np.asarray(p_norm)[:, None]], axis=1)

    def tensors(self) -> dict:
        out = {f"backbone/{k}": v for k, v in self.field.params.items()}
        out["backbone/token_embed"] = self.token_embed
        out["backbone/codebook"] = self.codebook.entries
        return out

    def load_tensors(self, tensors: dict) -> None:
        for k in self.field.params:
            self.field.params[k] = np.asarray(tensors[f"backbone/{k}"],
                                              dtype=self.field.dtype)
        self.token_embed = np.asarray(tensors["backbone/token_embed"], dtype=float)
        self.codebook.entries = np.asarray(tensors["backbone/codebook"], dtype=float)


def train_backbone(dataset: Dataset, config: BackboneConfig,
                   rng: np.random.Generator):
    """Composite-loss training over frame-level flow samples.

    Returns (model, loss_trace); the trace holds per-step flow and
    commitment losses plus the scheduled learning rate.
    """
    p = dataset.params
    model = BackboneModel(frame_dim=p.F, speaker_dim=p.D, vocab_size=p.V,
                          config=config)

    x1 = np.concatenate([u.frames for u in dataset.utterances], axis=0)
    toks = np.concatenate([u.frame_tokens for u in dataset.utterances])
    pn = np.concatenate([u.p_norm for u in dataset.utterances])
    spk = np.concatenate([
        np.tile(oracle_extract_speaker(u, p), (u.n_frames, 1))
        for u in dataset.utterances], axis=0)
    n = x1.shape[0]

    # codebook init: one clean content feature per token when the book is
    # large enough (rare tokens keep their own codeword), remaining entries
    # from noisy data samples; otherwise plain data-sample init
    k = config.codebook_size
    if k >= p.V:
        entries = np.empty((k, config.content_dim))
        entries[:p.V] = model.f_sem(np.arange(p.V))
        if k > p.V:
            extra = rng.choice(n, size=k - p.V, replace=n < k - p.V)
            entries[p.V:] = model.f_sem(toks[extra], rng)
        model.codebook.entries = entries
    else:
        init_idx = rng.choice(n, size=k, replace=n < k)
        model.codebook.entries = model.f_sem(toks[init_idx], rng).copy()

    params = dict(model.field.params)
    params["codebook"] = model.codebook.entries
    sched = OneCycle(config.steps, config.peak_lr, config.pct_start)
    opt = AdamW(params, sched, weight_decay=config.weight_decay)
    # the optimizer holds the tensors now: read them through its views
    model.field.params = {k: v for k, v in params.items() if k != "codebook"}
    model.codebook.entries = params["codebook"]

    trace = []
    for step in range(config.steps):
        idx = rng.choice(n, size=min(config.batch, n), replace=False)
        res = quantize(model.f_sem(toks[idx], rng), model.codebook)
        local = model.local_cond(res.c_vq, pn[idx])
        l_flow, grads = cfm_loss(model.field, x1[idx], (local, spk[idx]), rng)
        f = model.f_sem(toks[idx])  # commitment gradient w.r.t. codewords
        grads["codebook"] = config.lam * codebook_grad(f, res, model.codebook)
        l_commit = res.commit_loss
        total = config.lam * l_commit + l_flow
        if not np.isfinite(total):
            raise DivergenceError(f"non-finite loss at step {step}", step=step)
        opt.step(grads)
        trace.append({"step": step, "l_flow": l_flow, "l_commit": l_commit,
                      "lr": opt.lr})
    return model, trace


def reconstruct(model: BackboneModel, frame_tokens, p_norm, s, steps: int,
                rng: np.random.Generator) -> np.ndarray:
    """Integrate the frame flow from per-frame Gaussian noise at times 0 -> 1
    in ``steps`` Euler steps, every frame voiced by the one identity ``s``.

    Without f_sem noise a frame's codeword depends on its token alone, so
    each distinct token is quantized once and its codeword gathered per
    frame.
    """
    frame_tokens = np.asarray(frame_tokens, dtype=int)
    t_frames = frame_tokens.shape[0]
    uniq, inv = np.unique(frame_tokens, return_inverse=True)
    c_vq = quantize(model.f_sem(uniq), model.codebook).c_vq[inv]
    local = model.local_cond(c_vq, p_norm)
    x0 = rng.standard_normal((t_frames, model.frame_dim))
    return integrate(model.field, x0, steps,
                     (local, np.asarray(s, dtype=float)[None]))


# the sidecar keys that size a BackboneModel, besides its config
_SHAPE_KEYS = ("frame_dim", "speaker_dim", "vocab_size")


def save_backbone(model: BackboneModel, path_prefix) -> None:
    save_model(path_prefix, model.tensors(),
               {**{k: getattr(model, k) for k in _SHAPE_KEYS},
                "config": asdict(model.config)})


def load_backbone(path_prefix) -> BackboneModel:
    return load_model(
        path_prefix, BackboneConfig,
        lambda meta, config: BackboneModel(
            **{k: meta[k] for k in _SHAPE_KEYS}, config=config),
        keys=_SHAPE_KEYS)
