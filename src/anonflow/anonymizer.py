"""Speaker-embedding anonymizer.

A flow-matching field over the speaker-embedding space supports a
three-stage pipeline: encode the original embedding backward to its
Gaussian preimage, blend that preimage with fresh noise under a
variance-preserving speaker weight, and integrate forward again to a
pseudo-speaker embedding.  An embedding-pool strategy (draw a real
embedding of a different speaker) is provided as an ablation alternative.

``anonymize_speaker`` runs on an (N, D) batch: ``draw_speakers`` draws each
row's randomness in turn (``w`` then ``z_rand``, or one pool index), then
``solve_speakers`` runs one ``encode``, one ``obscure`` and one ``generate``
over the whole batch, so row i is what a one-row call on the same generator
state gives, bit for bit.  ``anonymize_stream`` draws one identity per
speaker, when the speaker is first seen, solves them all in one batch, and
voices all of the speaker's utterances with it; its utterances are a
generator that solves one run of frames at a time, as the dataset writer
reads them.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace
from typing import ClassVar

import numpy as np

from .checkpoint import (TRAINING_RANGES, WIDTHS, check_ranges, load_model,
                         replace_text, save_model, utf8_text)
from .errors import ConfigError, DataError, DivergenceError, InputError
from .flowmath import cfm_loss, integrate
from .nets import UShapedField, u_shaped
from .optim import AdamW, OneCycle

from .backbone import (RUN_FRAMES, BackboneModel, NoiseReplay, frame_runs,
                       reconstruct)
from .worldgen import Dataset, stacked_frame_tokens

FRAME_STEPS = 16    # Euler steps of anonymize_stream's frame-flow solves

# the level_dims rule: sizes as in WIDTHS, in the shape UShapedField takes
U_SHAPE = (lambda v: WIDTHS[0](v) and u_shaped(v),
           "a palindrome of sizes >= 1 with a single minimum at the center")


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

    def __post_init__(self):
        self.level_dims = tuple(self.level_dims)
        check_ranges("anonymizer", self, {"level_dims": U_SHAPE,
                                          **TRAINING_RANGES})


class AnonymizerModel:
    def __init__(self, config: AnonymizerConfig, metadata: dict | None):
        self.config = config
        self.field = UShapedField(config.level_dims, time_dim=config.time_dim,
                                  rng=np.random.default_rng(config.seed),
                                  dtype=np.float32)
        self.metadata = metadata or {}

    def tensors(self) -> dict:
        return {f"anonymizer/{k}": v for k, v in self.field.params.items()}

    def load_tensors(self, tensors: dict) -> None:
        for k in self.field.params:
            self.field.params[k] = np.asarray(tensors[f"anonymizer/{k}"],
                                              dtype=self.field.dtype)


def train_anonymizer(embeddings, config: AnonymizerConfig,
                     rng: np.random.Generator):
    """Flow-matching training on an (N, D) set of speaker embeddings, N at
    least 2 as ``anonymizer.n_embeddings`` asks.

    Returns (model, loss_trace).
    """
    emb = np.asarray(embeddings, dtype=float)
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
    try:
        for step in range(config.steps):
            idx = rng.choice(n, size=min(config.batch, n), replace=n < config.batch)
            loss, grads = cfm_loss(model.field, emb[idx], None, rng)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at step {step}", step=step)
            opt.step(grads)
            trace.append({"step": step, "l_flow": loss, "lr": opt.lr})
    except DivergenceError as e:
        raise DivergenceError(f"anonymizer: {e}", step=e.step) from e
    return model, trace


def encode(model: AnonymizerModel, s_orig, steps: int) -> np.ndarray:
    """ODE-1: carry an embedding backward from t=1 to its Gaussian preimage."""
    return integrate(model.field, np.asarray(s_orig, dtype=float), steps,
                     backward=True)


def obscure(z_orig, z_rand, w) -> np.ndarray:
    """Variance-preserving blend of the encoded identity with fresh noise;
    ``w`` is a scalar, or one weight per row, each in [-1, 1] as
    ``WeightStrategy`` draws them."""
    weights = np.asarray(w)
    if weights.ndim:
        w = weights[:, None]
    denom = np.sqrt((1.0 - w) ** 2 + w**2)
    return ((1.0 - w) * np.asarray(z_rand) + w * np.asarray(z_orig)) / denom


def generate(model: AnonymizerModel, z_anon, steps: int) -> np.ndarray:
    """ODE-2: carry a Gaussian point forward to the embedding distribution."""
    return integrate(model.field, np.asarray(z_anon, dtype=float), steps)


@dataclass(frozen=True)
class WeightStrategy:
    """Speaker-weight policy: fixed value, uniform range, or pool selection,
    drawn once per speaker."""

    kind: str                      # "fixed" | "range" | "pool"
    w: float = 0.0                 # fixed value
    a: float = -1.0                # range bounds
    b: float = 1.0
    # read by the benchmark's span counters; not a field
    scope: ClassVar[str] = "per_speaker"

    def __post_init__(self):
        if self.kind not in ("fixed", "range", "pool"):
            raise InputError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "fixed" and not (-1.0 <= self.w <= 1.0):
            raise InputError("fixed weight must lie in [-1, 1]")
        if self.kind == "range" and not (-1.0 <= self.a < self.b <= 1.0):
            raise InputError("range must satisfy -1 <= a < b <= 1")

    def draw_w(self, rng) -> float:
        """The weight of a fixed or range strategy."""
        if self.kind == "fixed":
            return self.w
        return float(rng.uniform(self.a, self.b))

    @classmethod
    def parse(cls, text: str) -> "WeightStrategy":
        """Parse 'fixed:W', 'range:A:B' or 'pool'; anything else, a number
        that does not parse or one out of range is a ConfigError naming
        ``--strategy``."""
        parts = text.split(":")
        try:
            if parts[0] == "fixed" and len(parts) == 2:
                return cls(kind="fixed", w=float(parts[1]))
            if parts[0] == "range" and len(parts) == 3:
                return cls(kind="range", a=float(parts[1]), b=float(parts[2]))
            if parts[0] == "pool" and len(parts) == 1:
                return cls(kind="pool")
        except ValueError as e:
            raise ConfigError(f"--strategy: bad strategy {text!r}: {e}") from e
        raise ConfigError(f"--strategy: cannot parse strategy {text!r}")


def draw_speakers(strategy: WeightStrategy, rng: np.random.Generator,
                  n: int, dim: int, *, pool, exclude) -> tuple:
    """The randomness of ``anonymize_speaker`` for ``n`` rows of width
    ``dim``, drawn row by row: ``(w (n,), z_rand (n, dim))``, each row's
    ``w`` before its ``z_rand``, or for the pool strategy ``(None, the
    (n, D) drawn pool rows)``, row i uniform over the rows of ``pool``
    other than ``exclude[i]``.
    """
    if strategy.kind == "pool":
        size = len(pool) - 1
        if size < 1:
            raise InputError("pool strategy requires a non-empty embedding pool")
        rows = [int(rng.integers(size)) for _ in range(n)]
        rows = [j + (j >= k) for j, k in zip(rows, exclude)]
        return None, np.asarray(pool, dtype=float)[rows]
    w = np.empty(n)
    z_rand = np.empty((n, dim))
    for i in range(n):
        w[i] = strategy.draw_w(rng)
        z_rand[i] = rng.standard_normal(dim)
    return w, z_rand


def solve_speakers(model, s_orig, draws: tuple, steps: int):
    """Encode-obscure-generate of an (N, D) batch under ``draws`` from
    ``draw_speakers``, each ODE in ``steps`` Euler steps; a pool draw
    needs no solve.  Returns (s_anon (N, D), w (N,) or None).  Every ODE
    is row-wise, so row i is what a one-row solve gives, bit for bit."""
    w, z = draws
    if w is None:
        return z, None
    z_orig = encode(model, s_orig, steps)
    z_anon = obscure(z_orig, z, w)
    return generate(model, z_anon, steps), w


def anonymize_speaker(model, s_orig, strategy: WeightStrategy,
                      rng: np.random.Generator, steps: int, *, pool,
                      exclude):
    """Encode-obscure-generate (or pool draw) for an (N, D) embedding batch,
    each ODE in ``steps`` Euler steps: ``draw_speakers``, then
    ``solve_speakers``.

    Returns (s_anon (N, D), w (N,)); w is None for the pool strategy, which
    draws row i uniformly from the rows of ``pool`` other than
    ``exclude[i]``.
    """
    s_orig = np.asarray(s_orig, dtype=float)
    if s_orig.ndim != 2:
        raise InputError(f"expected an (N, D) embedding batch, got {s_orig.shape}")
    draws = draw_speakers(strategy, rng, *s_orig.shape, pool=pool,
                          exclude=exclude)
    return solve_speakers(model, s_orig, draws, steps)


def anonymize_stream(backbone: BackboneModel, anonymizer,
                     dataset: Dataset, strategy: WeightStrategy,
                     steps: int, rng: np.random.Generator):
    """Regenerate every utterance's frames under a pseudo-speaker identity
    drawn with ``steps``-step identity ODEs; each frame-flow solve takes
    ``FRAME_STEPS`` steps.

    Tokens, pitch, alignment and durations are preserved.  Returns
    (anonymized dataset, mapping) where mapping is
    {speaker_id: (w_used, s_anon)} for the attacker simulation.  A speaker's
    identity is drawn when the speaker is first seen and voices all of the
    speaker's utterances.  The dataset's utterances are a generator, to be
    read once, as ``save_dataset`` does.

    The utterances are split into runs of one speaker's adjacent
    utterances, each cut before it would pass ``RUN_FRAMES`` frames; a
    speaker is first seen at the start of a run.  One walk over the runs
    draws each first-seen speaker's identity randomness and each run's
    frame noise, in the order in which solving each speaker and each run
    as the walk meets them would draw them; a run's noise is dropped once
    drawn (``NoiseReplay``), and no solve uses the generator.  Then one
    identity solve runs over all speakers, before this returns.  The
    generator makes one ``reconstruct`` per run, from the run's noise drawn
    again, and yields the run's utterances in dataset order; so only one
    run's noise and frames are held at a time.
    """
    embs = np.array([s.embedding for s in dataset.speakers], dtype=float)
    row = {s.id: k for k, s in enumerate(dataset.speakers)}
    utts = dataset.utterances
    runs = frame_runs([u.speaker_id for u in utts],
                      [u.n_frames for u in utts], RUN_FRAMES)
    first = {}                    # speaker id -> utterance where first seen
    ws, zs, marks = [], [], []
    noise = NoiseReplay(rng)
    for run in runs:
        u = utts[run[0]]
        if u.speaker_id not in first:
            first[u.speaker_id] = u
            w, z = draw_speakers(strategy, rng, 1, embs.shape[1], pool=embs,
                                 exclude=[row[u.speaker_id]])
            ws.append(w)
            zs.append(z)
        marks.append(noise.skip(
            (sum(utts[i].n_frames for i in run), dataset.params.F)))

    draws = (None if strategy.kind == "pool" else np.reshape(ws, -1),
             np.reshape(zs, (-1, embs.shape[1])))
    try:
        s_anon, w = solve_speakers(anonymizer, embs[[row[sid] for sid in first]],
                                   draws, steps)
    except DivergenceError as e:
        u = list(first.values())[e.row or 0]
        raise DivergenceError(f"utterance {u.id}: {e}", step=e.step) from e
    mapping = {sid: (None if w is None else float(w[i]), s_anon[i])
               for i, sid in enumerate(first)}

    def voiced():
        for run, mark in zip(runs, marks):
            try:
                out = reconstruct(
                    backbone,
                    stacked_frame_tokens([utts[i] for i in run]),
                    np.concatenate([utts[i].p_norm for i in run]),
                    mapping[utts[run[0]].speaker_id][1], FRAME_STEPS,
                    noise.redraw(mark))
            except DivergenceError as e:
                raise DivergenceError(
                    f"utterances {utts[run[0]].id}..{utts[run[-1]].id}: {e}",
                    step=e.step) from e
            ends = np.cumsum([utts[i].n_frames for i in run])[:-1]
            for i, f in zip(run, np.split(out, ends)):
                yield replace(utts[i], frames=f)

    anon = Dataset(params=dataset.params, speakers=dataset.speakers,
                   utterances=voiced(), pool=dataset.pool)
    return anon, mapping


def save_mapping(mapping: dict, path) -> None:
    """TSV: speaker_id, w_used (NA for pool), comma-separated s_anon."""
    rows = []
    for sid in sorted(mapping):
        w, s_anon = mapping[sid]
        wtxt = "NA" if w is None else f"{w:.9g}"
        stxt = ",".join(f"{v:.9g}" for v in np.asarray(s_anon))
        rows.append(f"{sid}\t{wtxt}\t{stxt}\n")
    replace_text(path, "".join(rows))


def load_mapping(path, dataset: Dataset) -> dict:
    """Read ``save_mapping``'s TSV for the dataset it voices: one row for
    each speaker with an utterance, with an identity of D values.  A second
    row for the same speaker, a weight that is not finite, or an identity
    value that is not finite as float32, the dtype the frame field casts
    it to, is a DataError."""
    dim = dataset.params.D
    out = {}
    for n, line in enumerate(utf8_text(path).splitlines(), start=1):
        try:
            sid, wtxt, stxt = line.split("\t")
            w = None if wtxt == "NA" else float(wtxt)
            s_anon = np.array([float(v) for v in stxt.split(",")])
        except ValueError as e:
            raise DataError(f"{path}:{n}: bad mapping row: {e}") from e
        if sid in out:
            raise DataError(f"{path}:{n}: second row for speaker {sid}")
        with np.errstate(over="ignore"):
            finite = np.isfinite(s_anon.astype(np.float32)).all()
        if not finite or (w is not None and not np.isfinite(w)):
            raise DataError(f"{path}:{n}: non-finite value for speaker {sid}")
        if len(s_anon) != dim:
            raise DataError(f"{path}:{n}: identity of {sid} has "
                            f"{len(s_anon)} values, expected {dim}")
        out[sid] = (w, s_anon)
    missing = sorted({u.speaker_id for u in dataset.utterances} - set(out))
    if missing:
        raise DataError(f"{path}: no row for speaker(s) {', '.join(missing)}")
    return out


def save_anonymizer(model: AnonymizerModel, path_prefix) -> None:
    save_model(path_prefix, model.tensors(),
               {"config": asdict(model.config), "metadata": model.metadata})


def load_anonymizer(path_prefix) -> AnonymizerModel:
    return load_model(
        path_prefix, AnonymizerConfig,
        lambda meta, config: AnonymizerModel(
            config, metadata=meta.get("metadata", {})))
