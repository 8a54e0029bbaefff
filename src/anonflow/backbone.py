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
from .errors import DivergenceError, InputError
from .flowmath import cfm_loss, integrate
from .nets import ConditionedField
from .optim import AdamW, OneCycle
from .vq import Codebook, codebook_grad, quantize
from .worldgen import Dataset, oracle_extract_speakers, stacked_frame_tokens
# unused here, but perfbench/test_perfbench.py IMPORT_SITES lists it
from .worldgen import oracle_extract_speaker  # noqa: F401

RUN_FRAMES = 4096   # most frames one run's reconstruct call solves at once


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
        return self.noisy(self.token_embed[np.asarray(frame_tokens, dtype=int)],
                          rng)

    def noisy(self, f, rng) -> np.ndarray:
        """``f`` plus f_sem noise drawn from ``rng``, as a new array; ``f``
        itself without a generator or with the noise switched off."""
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
    if not dataset.utterances:
        raise InputError("no utterances to train on")
    p = dataset.params
    model = BackboneModel(frame_dim=p.F, speaker_dim=p.D, vocab_size=p.V,
                          config=config)

    toks = stacked_frame_tokens(dataset.utterances)
    pn = np.concatenate([u.p_norm for u in dataset.utterances])
    # the frames stay in their utterances and the speaker rows one per
    # utterance: a batch gathers both through its frames' owner index, so
    # no frame or speaker row is held twice
    frames = [u.frames for u in dataset.utterances]
    spk = oracle_extract_speakers(dataset.utterances, p)
    counts = [u.n_frames for u in dataset.utterances]
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts     # each utterance's first frame
    n = owner.size

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
    try:
        for step in range(config.steps):
            idx = rng.choice(n, size=min(config.batch, n), replace=False)
            f = model.f_sem(toks[idx])  # clean: the commitment gradient's input
            res = quantize(model.noisy(f, rng), model.codebook)
            local = model.local_cond(res.c_vq, pn[idx])
            own = owner[idx]
            x1 = np.array([frames[i][j] for i, j in
                           zip(own.tolist(), (idx - first[own]).tolist())])
            l_flow, grads = cfm_loss(model.field, x1, (local, spk[own]), rng)
            grads["codebook"] = config.lam * codebook_grad(f, res, model.codebook)
            l_commit = res.commit_loss
            total = config.lam * l_commit + l_flow
            if not np.isfinite(total):
                raise DivergenceError(f"non-finite loss at step {step}", step=step)
            opt.step(grads)
            trace.append({"step": step, "l_flow": l_flow, "l_commit": l_commit,
                          "lr": opt.lr})
    except DivergenceError as e:
        raise DivergenceError(f"backbone: {e}", step=e.step) from e
    return model, trace


def reconstruct(model: BackboneModel, frame_tokens, p_norm, s, steps: int,
                noise) -> np.ndarray:
    """Integrate the frame flow from the per-frame Gaussian noise ``noise``
    (T, frame_dim) at times 0 -> 1 in ``steps`` Euler steps, every frame
    voiced by the one identity ``s``.

    Without f_sem noise a frame's codeword depends on its token alone, so
    each distinct token is quantized once and its codeword gathered per
    frame.
    """
    frame_tokens = np.asarray(frame_tokens, dtype=int)
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (frame_tokens.shape[0], model.frame_dim):
        raise InputError(f"expected ({frame_tokens.shape[0]}, "
                         f"{model.frame_dim}) noise, got {noise.shape}")
    uniq, inv = np.unique(frame_tokens, return_inverse=True)
    c_vq = quantize(model.f_sem(uniq), model.codebook).c_vq[inv]
    local = model.local_cond(c_vq, p_norm)
    return integrate(model.field, noise, steps,
                     (local, np.asarray(s, dtype=float)[None]))


class NoiseReplay:
    """Standard normals drawn from ``rng`` in walk order and dropped at
    once, each draw to be made again when its solve runs: a solve's noise
    is held only while the solve runs, and ``rng`` moves as if it were
    held all along."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        # any seed: each redraw sets the state
        self._replay = np.random.Generator(type(rng.bit_generator)(0))

    def skip(self, shape: tuple) -> tuple:
        """Draw ``shape`` normals from ``rng`` and drop them; returns the
        mark that ``redraw`` takes."""
        mark = (self.rng.bit_generator.state, shape)
        self.rng.standard_normal(shape)
        return mark

    def redraw(self, mark: tuple) -> np.ndarray:
        """The normals that ``skip`` drew and dropped for ``mark``."""
        state, shape = mark
        self._replay.bit_generator.state = state
        return self._replay.standard_normal(shape)


def frame_runs(keys, sizes, cap: int) -> list:
    """Indices of the items, grouped into runs of adjacent items with one
    key; a run is cut before its ``sizes`` would sum past ``cap``."""
    runs, total = [], 0
    for i, (key, size) in enumerate(zip(keys, sizes)):
        if runs and keys[runs[-1][-1]] == key and total + size <= cap:
            runs[-1].append(i)
            total += size
        else:
            runs.append([i])
            total = size
    return runs


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
