"""Speaker-embedding anonymizer.

A flow-matching field over the speaker-embedding space supports a
three-stage pipeline: encode the original embedding backward to its
Gaussian preimage, blend that preimage with fresh noise under a
variance-preserving speaker weight, and integrate forward again to a
pseudo-speaker embedding.  An embedding-pool strategy (draw a real
embedding of a different speaker) is provided as an ablation alternative.

``anonymize_speaker`` runs on an (N, D) batch: it draws each row's
randomness in turn (``w`` then ``z_rand``, or one pool index), then runs one
``encode``, one ``obscure`` and one ``generate`` over the whole batch, so
row i matches what a one-row call on the same generator state would give.
``anonymize_dataset`` keeps one identity per speaker in its mapping (or
draws one per utterance under the ``per_utterance`` scope).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, DivergenceError, InputError
from .flowmath import IntegrationSpec, cfm_loss, integrate
from .nets import UShapedField
from .optim import AdamW, OneCycle

from .backbone import BackboneModel, reconstruct
from .worldgen import Dataset

RUN_FRAMES = 4096   # most frames one run's reconstruct call solves at once

@dataclass
class AnonymizerConfig:
    level_dims: tuple = (16, 8, 4, 2, 4, 8, 16)
    time_dim: int = 16
    steps: int = 8000
    batch: int = 128
    peak_lr: float = 3.0e-3
    pct_start: float = 0.1
    weight_decay: float = 1.0e-4
    seed: int = 0

    def to_dict(self):
        d = asdict(self)
        d["level_dims"] = list(self.level_dims)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["level_dims"] = tuple(d.get("level_dims", (16, 8, 4, 2, 4, 8, 16)))
        return cls(**d)


class AnonymizerModel:
    def __init__(self, config: AnonymizerConfig, metadata: dict | None = None):
        self.config = config
        self.field = UShapedField(config.level_dims, time_dim=config.time_dim,
                                  rng=np.random.default_rng(config.seed),
                                  dtype=np.float32)
        self.dim = self.field.dim
        self.metadata = metadata or {}

    def tensors(self) -> dict:
        return {f"anonymizer/{k}": v for k, v in self.field.params.items()}

    def load_tensors(self, tensors: dict) -> None:
        for k in self.field.params:
            self.field.params[k] = np.asarray(tensors[f"anonymizer/{k}"],
                                              dtype=self.field.dtype)


def train_anonymizer(embeddings, config: AnonymizerConfig,
                     rng: np.random.Generator):
    """Flow-matching training on a set of speaker embeddings.

    Returns (model, loss_trace).
    """
    emb = np.asarray(embeddings, dtype=float)
    if emb.ndim != 2 or emb.shape[0] < 2:
        raise InputError("need at least 2 embeddings of shape (N, D)")
    if emb.shape[1] != config.level_dims[0]:
        raise ConfigError(f"embedding dim {emb.shape[1]} != field dim "
                          f"{config.level_dims[0]}")
    data_hash = hashlib.sha256(np.ascontiguousarray(emb).tobytes()).hexdigest()[:16]
    model = AnonymizerModel(config, metadata={
        "steps": config.steps, "seed": config.seed, "data_hash": data_hash})
    opt = AdamW(model.field.params,
                OneCycle(config.steps, config.peak_lr, config.pct_start),
                weight_decay=config.weight_decay)
    n = emb.shape[0]
    trace = []
    for step in range(config.steps):
        idx = rng.choice(n, size=min(config.batch, n), replace=n < config.batch)
        loss, grads = cfm_loss(model.field, emb[idx], None, rng)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at step {step}", step=step)
        opt.step(grads)
        trace.append({"step": step, "l_flow": loss, "lr": opt.lr})
    return model, trace


def encode(model: AnonymizerModel, s_orig, spec: IntegrationSpec) -> np.ndarray:
    """ODE-1: carry an embedding backward from t=1 to its Gaussian preimage."""
    if not (spec.t_start == 1.0 and spec.t_end == 0.0):
        raise InputError("encode integrates backward from t=1 to t=0")
    return integrate(model.field, np.asarray(s_orig, dtype=float), spec)


@dataclass(frozen=True)
class ObscurationInput:
    z_orig: np.ndarray
    z_rand: np.ndarray
    w: float | np.ndarray          # scalar, or one weight per row

    def __post_init__(self):
        w = np.asarray(self.w)
        if not np.all((-1.0 <= w) & (w <= 1.0)):
            raise InputError(f"speaker weight must lie in [-1, 1], got {self.w}")


def obscure(inp: ObscurationInput) -> np.ndarray:
    """Variance-preserving blend of the encoded identity with fresh noise."""
    w = inp.w if np.ndim(inp.w) == 0 else np.asarray(inp.w)[:, None]
    denom = np.sqrt((1.0 - w) ** 2 + w**2)
    return ((1.0 - w) * np.asarray(inp.z_rand) + w * np.asarray(inp.z_orig)) / denom


def generate(model: AnonymizerModel, z_anon, spec: IntegrationSpec) -> np.ndarray:
    """ODE-2: carry a Gaussian point forward to the embedding distribution."""
    if not (spec.t_start == 0.0 and spec.t_end == 1.0):
        raise InputError("generate integrates forward from t=0 to t=1")
    return integrate(model.field, np.asarray(z_anon, dtype=float), spec)


@dataclass(frozen=True)
class WeightStrategy:
    """Speaker-weight policy: fixed value, uniform range, or pool selection."""

    kind: str                      # "fixed" | "range" | "pool"
    w: float = 0.0                 # fixed value
    a: float = -1.0                # range bounds
    b: float = 1.0
    scope: str = "per_speaker"     # or "per_utterance"

    def __post_init__(self):
        if self.kind not in ("fixed", "range", "pool"):
            raise InputError(f"unknown strategy kind {self.kind!r}")
        if self.scope not in ("per_speaker", "per_utterance"):
            raise InputError(f"unknown scope {self.scope!r}")
        if self.kind == "fixed" and not (-1.0 <= self.w <= 1.0):
            raise InputError("fixed weight must lie in [-1, 1]")
        if self.kind == "range" and not (-1.0 <= self.a < self.b <= 1.0):
            raise InputError("range must satisfy -1 <= a < b <= 1")

    def draw_w(self, rng) -> float:
        if self.kind == "fixed":
            return self.w
        if self.kind == "range":
            return float(rng.uniform(self.a, self.b))
        raise InputError("pool strategy has no speaker weight")

    @classmethod
    def parse(cls, text: str, scope: str = "per_speaker") -> "WeightStrategy":
        """Parse 'fixed:W', 'range:A:B' or 'pool'."""
        parts = text.split(":")
        if parts[0] == "fixed" and len(parts) == 2:
            return cls(kind="fixed", w=float(parts[1]), scope=scope)
        if parts[0] == "range" and len(parts) == 3:
            return cls(kind="range", a=float(parts[1]), b=float(parts[2]), scope=scope)
        if parts[0] == "pool" and len(parts) == 1:
            return cls(kind="pool", scope=scope)
        raise ConfigError(f"cannot parse strategy {text!r}")


def anonymize_speaker(model, s_orig, strategy: WeightStrategy,
                      rng: np.random.Generator, spec: IntegrationSpec, *,
                      pool=None, exclude=None):
    """Encode-obscure-generate (or pool draw) for an (N, D) embedding batch.

    Returns (s_anon (N, D), w (N,)); w is None for the pool strategy, which
    draws row i uniformly from the rows of ``pool`` other than
    ``exclude[i]`` (from all rows when ``exclude`` is None).
    """
    s_orig = np.asarray(s_orig, dtype=float)
    if s_orig.ndim != 2:
        raise InputError(f"expected an (N, D) embedding batch, got {s_orig.shape}")
    n = s_orig.shape[0]
    if strategy.kind == "pool":
        size = 0 if pool is None else len(pool) - (exclude is not None)
        if size < 1:
            raise InputError("pool strategy requires a non-empty embedding pool")
        rows = [int(rng.integers(size)) for _ in range(n)]
        if exclude is not None:
            rows = [j + (j >= k) for j, k in zip(rows, exclude)]
        return np.asarray(pool, dtype=float)[rows], None
    w = np.empty(n)
    z_rand = np.empty_like(s_orig)
    for i in range(n):
        w[i] = strategy.draw_w(rng)
        z_rand[i] = rng.standard_normal(s_orig.shape[1])
    back = IntegrationSpec(steps=spec.steps, t_start=1.0, t_end=0.0)
    fwd = IntegrationSpec(steps=spec.steps, t_start=0.0, t_end=1.0)
    z_orig = encode(model, s_orig, back)
    z_anon = obscure(ObscurationInput(z_orig=z_orig, z_rand=z_rand, w=w))
    return generate(model, z_anon, fwd), w


def anonymize_dataset(backbone: BackboneModel, anonymizer,
                      dataset: Dataset, strategy: WeightStrategy,
                      spec: IntegrationSpec, rng: np.random.Generator,
                      frame_spec: IntegrationSpec | None = None):
    """Regenerate every utterance's frames under a pseudo-speaker identity.

    Tokens, pitch, alignment and durations are preserved.  Returns
    (anonymized dataset, mapping) where mapping is
    {speaker_id: (w_used, s_anon)} for the attacker simulation.  A speaker's
    identity is drawn when the speaker is first seen and reused from the
    mapping after that, unless the scope is per_utterance.

    Frames are synthesized per run: the consecutive utterances voiced by
    one identity (one speaker's adjacent utterances, or a single utterance
    under per_utterance) share one ``reconstruct`` call.  A run is flushed
    before the next identity draw, so the generator gives the identity and
    frame-noise draws in the same order as one call per utterance would.
    A run is also flushed before it would pass ``RUN_FRAMES`` frames, which
    bounds one call's activations however many adjacent utterances a
    speaker has; the noise draws keep their order across the cut.
    """
    frame_spec = frame_spec or IntegrationSpec(steps=16, t_start=0.0, t_end=1.0)
    embs = np.array([s.embedding for s in dataset.speakers], dtype=float)
    row = {s.id: k for k, s in enumerate(dataset.speakers)}
    mapping = {}
    new_utts = []
    run = []                      # utterances voiced by the current identity

    def flush():
        if not run:
            return
        toks = [u.frame_tokens for u in run]
        try:
            frames = reconstruct(backbone, np.concatenate(toks),
                                 np.concatenate([u.p_norm for u in run]),
                                 mapping[run[0].speaker_id][1], frame_spec, rng)
        except DivergenceError as e:
            raise DivergenceError(f"utterances {run[0].id}..{run[-1].id}: {e}",
                                  step=e.step) from e
        ends = np.cumsum([len(t) for t in toks])[:-1]
        new_utts.extend(replace(u, frames=f)
                        for u, f in zip(run, np.split(frames, ends)))
        run.clear()

    for u in dataset.utterances:
        k = row[u.speaker_id]
        draw = strategy.scope == "per_utterance" or u.speaker_id not in mapping
        if (draw or run[-1].speaker_id != u.speaker_id
                or sum(v.n_frames for v in run) + u.n_frames > RUN_FRAMES):
            flush()
        if draw:
            try:
                s_anon, w = anonymize_speaker(anonymizer, embs[k:k + 1],
                                              strategy, rng, spec, pool=embs,
                                              exclude=[k])
            except DivergenceError as e:
                raise DivergenceError(f"utterance {u.id}: {e}",
                                      step=e.step) from e
            mapping[u.speaker_id] = (None if w is None else float(w[0]),
                                     s_anon[0])
        run.append(u)
    flush()
    anon = Dataset(params=dataset.params, speakers=dataset.speakers,
                   utterances=new_utts, pool=dataset.pool)
    return anon, mapping


def save_mapping(mapping: dict, path) -> None:
    """TSV: speaker_id, w_used (NA for pool), comma-separated s_anon."""
    with open(path, "w") as f:
        for sid in sorted(mapping):
            w, s_anon = mapping[sid]
            wtxt = "NA" if w is None else f"{w:.9g}"
            stxt = ",".join(f"{v:.9g}" for v in np.asarray(s_anon))
            f.write(f"{sid}\t{wtxt}\t{stxt}\n")


def load_mapping(path) -> dict:
    out = {}
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        try:
            sid, wtxt, stxt = line.split("\t")
            w = None if wtxt == "NA" else float(wtxt)
            out[sid] = (w, np.array([float(v) for v in stxt.split(",")]))
        except ValueError as e:
            raise DataError(f"{path}:{n}: bad mapping row: {e}") from e
    return out


def save_anonymizer(model: AnonymizerModel, path_prefix) -> None:
    prefix = Path(path_prefix)
    save_checkpoint(prefix.with_suffix(".ckpt"), model.tensors())
    meta = {"config": model.config.to_dict(), "metadata": model.metadata}
    prefix.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")


def load_anonymizer(path_prefix) -> AnonymizerModel:
    prefix = Path(path_prefix)
    try:
        meta = json.loads(prefix.with_suffix(".json").read_text())
    except FileNotFoundError as e:
        raise ConfigError(f"missing anonymizer metadata: {e}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"{prefix.with_suffix('.json')}: not valid JSON: "
                        f"{e}") from e
    model = AnonymizerModel(AnonymizerConfig.from_dict(meta["config"]),
                            metadata=meta.get("metadata", {}))
    model.load_tensors(load_checkpoint(prefix.with_suffix(".ckpt")))
    return model
