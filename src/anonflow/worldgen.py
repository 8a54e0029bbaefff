"""Synthetic speaker world.

Frames follow a known linear generative model

    x_t = A . onehot(token_t) + B . p_norm_t + C . s + noise,

so speaker extraction and token recovery are analytic pseudo-inverse /
nearest-column problems.  These oracles stand in for the pretrained
extractor and recognizer a full-scale system would use.

Vocabulary layout (fixed carving of [0, V)):
  [0, v_common)                      -- ordinary content tokens
  next n_speakers * 4 * lex tokens   -- speaker-exclusive PII lexicons
  remaining tokens                   -- shared replacement-pool entities
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, InputError
from .pitch import pitch_or_zeros

PII_TYPES = ("PER", "LOC", "ORG", "MISC")


def _round9(obj):
    """Round all floats to 9 significant digits for stable serialization."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round9(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return _round9(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


@dataclass
class WorldParams:
    D: int
    V: int
    F: int
    A: np.ndarray              # (F, V) content imprint
    B: np.ndarray              # (F,) pitch imprint
    C: np.ndarray              # (F, D) speaker imprint
    noise_sigma: float
    gender_means: np.ndarray   # (2, D): male, female
    seed: int
    v_common: int
    lexicon_per_type: int = 2
    pool_lengths_per_type: tuple = (1, 1, 1, 2, 2, 2)
    n_pii_types: int = 4

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.C = np.asarray(self.C, dtype=float)
        self.gender_means = np.asarray(self.gender_means, dtype=float)
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.F < self.D + 1:
            raise ConfigError(f"F={self.F} must be >= D+1={self.D + 1}")
        if np.linalg.matrix_rank(self.C) < self.D:
            raise ConfigError("speaker imprint C must have full column rank")
        if self.A.shape != (self.F, self.V) or self.C.shape != (self.F, self.D):
            raise ConfigError("imprint matrix shapes inconsistent with D/V/F")
        self._c_pinv = np.linalg.pinv(self.C)

    @property
    def c_pinv(self) -> np.ndarray:
        """Pseudo-inverse of C, computed once at construction."""
        return self._c_pinv

    def to_dict(self) -> dict:
        return _round9({
            "D": self.D, "V": self.V, "F": self.F,
            "A": self.A, "B": self.B, "C": self.C,
            "noise_sigma": self.noise_sigma,
            "gender_means": self.gender_means,
            "seed": self.seed, "v_common": self.v_common,
            "lexicon_per_type": self.lexicon_per_type,
            "pool_lengths_per_type": list(self.pool_lengths_per_type),
            "n_pii_types": self.n_pii_types,
        })

    @classmethod
    def from_dict(cls, d: dict) -> "WorldParams":
        d = dict(d)
        d["pool_lengths_per_type"] = tuple(d["pool_lengths_per_type"])
        return cls(**d)


def make_world_params(D: int = 16, F: int = 24, v_common: int = 80,
                      n_speakers: int = 10, lexicon_per_type: int = 2,
                      pool_lengths_per_type=(1, 1, 1, 2, 2, 2),
                      noise_sigma: float = 0.05, seed: int = 0) -> WorldParams:
    """Draw imprint matrices sized for the given vocabulary layout.

    A's columns are rescaled if needed so their minimum pairwise distance
    exceeds 6 * noise_sigma * sqrt(F), which makes clean-token recovery
    error-free by a comfortable margin.
    """
    n_lex = n_speakers * len(PII_TYPES) * lexicon_per_type
    n_pool = len(PII_TYPES) * int(sum(pool_lengths_per_type))
    V = v_common + n_lex + n_pool
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((F, V))
    B = 0.05 * rng.standard_normal(F)
    C = rng.standard_normal((F, D))
    gender_means = 1.5 * rng.standard_normal((2, D))
    margin = 6.0 * noise_sigma * np.sqrt(F)
    if margin > 0:
        d2 = np.sum((A[:, :, None] - A[:, None, :]) ** 2, axis=0)
        np.fill_diagonal(d2, np.inf)
        dmin = np.sqrt(d2.min())
        if dmin <= margin:
            A *= 1.05 * margin / dmin
    return WorldParams(D=D, V=V, F=F, A=A, B=B, C=C, noise_sigma=noise_sigma,
                       gender_means=gender_means, seed=seed, v_common=v_common,
                       lexicon_per_type=lexicon_per_type,
                       pool_lengths_per_type=tuple(pool_lengths_per_type))


@dataclass
class Speaker:
    id: str
    gender: str                 # "male" | "female"
    embedding: np.ndarray       # (D,), unit norm
    base_pitch_hz: float
    style: np.ndarray           # (V,) simplex over common tokens
    pii_lexicon: dict           # type -> list of token ids


@dataclass
class Utterance:
    id: str
    speaker_id: str
    gender: str
    duration_s: float
    tokens: list                # per-token ids
    entity_spans: list          # (type, token_start, token_end) half-open
    f0_hz: np.ndarray           # (T,), 0 = unvoiced
    p_norm: np.ndarray          # (T,)
    frames: np.ndarray          # (T, F)
    frames_per_token: int

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_tokens(self) -> np.ndarray:
        """Token id of each frame under the exact alignment."""
        return np.repeat(np.asarray(self.tokens, dtype=int), self.frames_per_token)

    def token_to_frames(self, i: int) -> tuple:
        return (i * self.frames_per_token, (i + 1) * self.frames_per_token)

    @property
    def has_pii(self) -> bool:
        return len(self.entity_spans) > 0


@dataclass
class PoolEntry:
    type: str
    tokens: list

    @property
    def length(self) -> int:
        return len(self.tokens)


@dataclass
class Dataset:
    params: WorldParams
    speakers: list
    utterances: list
    pool: list = field(default_factory=list)

    def speaker(self, sid: str) -> Speaker:
        return self._by_id()[sid]

    def _by_id(self):
        if not hasattr(self, "_spk_map"):
            self._spk_map = {s.id: s for s in self.speakers}
        return self._spk_map

    def by_speaker(self) -> dict:
        out = {s.id: [] for s in self.speakers}
        for u in self.utterances:
            out[u.speaker_id].append(u)
        return out


def synth_frames(params: WorldParams, frame_tokens, p_norm, s, rng=None) -> np.ndarray:
    """Clean linear synthesis plus optional observation noise."""
    frame_tokens = np.asarray(frame_tokens, dtype=int)
    x = params.A[:, frame_tokens].T + np.outer(p_norm, params.B) + params.C @ np.asarray(s)
    if rng is not None and params.noise_sigma > 0:
        x = x + params.noise_sigma * rng.standard_normal(x.shape)
    return x


def sample_speaker_embedding(params: WorldParams, gender: str, rng) -> np.ndarray:
    """One draw from the speaker prior: gender mean + unit normal, normalized."""
    mean = params.gender_means[0 if gender == "male" else 1]
    e = mean + rng.standard_normal(params.D)
    return e / np.linalg.norm(e)


def _lexicon_layout(params: WorldParams, n_speakers: int):
    """Carve PII lexicon and pool token ids out of the vocabulary."""
    lex = params.lexicon_per_type
    nxt = params.v_common
    lexicons = []
    for _ in range(n_speakers):
        d = {}
        for typ in PII_TYPES:
            d[typ] = list(range(nxt, nxt + lex))
            nxt += lex
        lexicons.append(d)
    pool = []
    for typ in PII_TYPES:
        for length in params.pool_lengths_per_type:
            pool.append(PoolEntry(type=typ, tokens=list(range(nxt, nxt + length))))
            nxt += length
    if nxt != params.V:
        raise ConfigError(f"vocabulary layout mismatch: carved {nxt}, V={params.V}")
    return lexicons, pool


def generate_world(params: WorldParams, n_speakers: int, utts_per_speaker: int,
                   rng: np.random.Generator, duration_range=(3.0, 18.0),
                   frame_rate: float = 4.0, frames_per_token: int = 4,
                   pii_frac: float = 0.3, unvoiced_prob: float = 0.2,
                   pitch_sd_semitones: float = 2.0,
                   style_alpha: float = 0.3) -> Dataset:
    """Generate a gender-balanced dataset from the linear world model."""
    if n_speakers % 2 != 0:
        raise InputError("n_speakers must be even for gender balance")
    if utts_per_speaker < 2:
        raise InputError("need at least 2 utterances per speaker")
    lexicons, pool = _lexicon_layout(params, n_speakers)

    speakers = []
    for i in range(n_speakers):
        gender = "male" if i % 2 == 0 else "female"
        emb = sample_speaker_embedding(params, gender, rng)
        base = rng.uniform(100.0, 140.0) if gender == "male" else rng.uniform(180.0, 240.0)
        style = np.zeros(params.V)
        style[:params.v_common] = rng.dirichlet(
            np.full(params.v_common, style_alpha))
        style[:params.v_common] /= style[:params.v_common].sum()
        speakers.append(Speaker(id=f"spk{i:03d}", gender=gender, embedding=emb,
                                base_pitch_hz=float(base), style=style,
                                pii_lexicon=lexicons[i]))

    utterances = []
    uid = 0
    n_pii = max(1, round(pii_frac * utts_per_speaker))
    for si, spk in enumerate(speakers):
        pii_slots = set(rng.choice(utts_per_speaker, size=n_pii, replace=False).tolist())
        for k in range(utts_per_speaker):
            duration = float(rng.uniform(*duration_range))
            n_tok = max(3, int(duration * frame_rate) // frames_per_token)
            t_frames = n_tok * frames_per_token
            probs = spk.style[:params.v_common]
            tokens = rng.choice(params.v_common, size=n_tok, p=probs).astype(int).tolist()
            spans = []
            if k in pii_slots:
                for _ in range(int(rng.integers(1, 3))):
                    typ = PII_TYPES[int(rng.integers(len(PII_TYPES)))]
                    length = int(rng.integers(1, params.lexicon_per_type + 1))
                    start = int(rng.integers(0, n_tok - length + 1))
                    if any(start < e and start + length > s for _, s, e in spans):
                        continue
                    ent = spk.pii_lexicon[typ][:length]
                    tokens[start:start + length] = ent
                    spans.append((typ, start, start + length))
                spans.sort(key=lambda sp: sp[1])
            voiced = rng.random(t_frames) >= unvoiced_prob
            voiced[0] = True
            f0 = np.zeros(t_frames)
            offs = rng.normal(0.0, pitch_sd_semitones, size=t_frames)
            f0[voiced] = spk.base_pitch_hz * 2.0 ** (offs[voiced] / 12.0)
            p_norm = pitch_or_zeros(f0)
            frame_tokens = np.repeat(tokens, frames_per_token)
            frames = synth_frames(params, frame_tokens, p_norm, spk.embedding, rng)
            utterances.append(Utterance(
                id=f"utt{uid:05d}", speaker_id=spk.id, gender=spk.gender,
                duration_s=duration, tokens=tokens, entity_spans=spans,
                f0_hz=f0, p_norm=p_norm, frames=frames,
                frames_per_token=frames_per_token))
            uid += 1
    return Dataset(params=params, speakers=speakers, utterances=utterances, pool=pool)


# ---------------------------------------------------------------------------
# analytic oracles

def oracle_extract_speaker(utt: Utterance, params: WorldParams) -> np.ndarray:
    """Invert the linear model for the speaker component of an utterance.

    The residual is always taken against the utterance's own tokens and
    pitch, so anonymized utterances yield their rendered pseudo-identity.
    """
    if utt.n_frames == 0:
        raise InputError("utterance has no frames")
    resid = (utt.frames - params.A[:, utt.frame_tokens].T
             - np.outer(utt.p_norm, params.B))
    return params.c_pinv @ resid.mean(axis=0)


def oracle_recover_tokens(frames, p_norm, s, params: WorldParams) -> np.ndarray:
    """Per-frame nearest-column token recovery (ties -> lowest token id).

    Distances up to a per-row constant come from one GEMM, ||a||^2 - 2 r.A.
    Rows whose two best candidates are within rounding of each other are
    ranked again by exact difference-based distances, so every row gets
    the index the direct (T, V, F) form gives, ties included.
    """
    frames = np.asarray(frames, dtype=float)
    resid = frames - np.outer(np.asarray(p_norm), params.B) - params.C @ np.asarray(s)
    a2 = np.einsum("fv,fv->v", params.A, params.A)
    d2 = a2 - 2.0 * (resid @ params.A)
    best = np.argmin(d2, axis=1)
    top2 = np.partition(d2, 1, axis=1)
    tol = 1e-9 * (np.einsum("tf,tf->t", resid, resid) + a2.max())
    close = np.flatnonzero(top2[:, 1] - top2[:, 0] <= tol)
    if close.size:
        diff = resid[close, None, :] - params.A.T[None, :, :]
        best[close] = np.argmin(np.einsum("tvf,tvf->tv", diff, diff), axis=1)
    return best


def token_error_rate(recovered_frame_tokens, reference_tokens, frames_per_token: int) -> float:
    """Fraction of frames whose recovered token differs from the aligned reference."""
    ref = np.repeat(np.asarray(reference_tokens, dtype=int), frames_per_token)
    rec = np.asarray(recovered_frame_tokens, dtype=int)
    if ref.shape != rec.shape:
        raise InputError(f"frame count mismatch: {rec.shape} vs {ref.shape}")
    return float(np.mean(rec != ref))


# ---------------------------------------------------------------------------
# serialization

def save_dataset(dataset: Dataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "world.json").write_text(
        json.dumps(dataset.params.to_dict(), indent=1) + "\n")
    with open(out / "speakers.jsonl", "w") as f:
        for s in dataset.speakers:
            f.write(json.dumps(_round9({
                "id": s.id, "gender": s.gender, "embedding": s.embedding,
                "base_pitch_hz": s.base_pitch_hz, "style": s.style,
                "pii_lexicon": s.pii_lexicon,
            })) + "\n")
    with open(out / "utterances.jsonl", "w") as f:
        for u in dataset.utterances:
            f.write(json.dumps(_round9({
                "id": u.id, "speaker_id": u.speaker_id, "gender": u.gender,
                "duration_s": u.duration_s, "tokens": u.tokens,
                "entity_spans": [[t, a, b] for t, a, b in u.entity_spans],
                "f0_hz": u.f0_hz, "p_norm": u.p_norm, "frames": u.frames,
                "frames_per_token": u.frames_per_token,
            })) + "\n")
    with open(out / "replacement_pool.jsonl", "w") as f:
        for e in dataset.pool:
            f.write(json.dumps({"type": e.type, "tokens": e.tokens,
                                "length": e.length}) + "\n")


def _read_jsonl(path: Path):
    """Yield one dict per line; a malformed line names the file and line."""
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        try:
            d = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{n}: not valid JSON: {e}") from e
        yield d


def load_dataset(in_dir) -> Dataset:
    src = Path(in_dir)
    try:
        params = WorldParams.from_dict(
            json.loads((src / "world.json").read_text()))
    except json.JSONDecodeError as e:
        raise DataError(f"{src / 'world.json'}: not valid JSON: {e}") from e
    speakers = []
    for d in _read_jsonl(src / "speakers.jsonl"):
        speakers.append(Speaker(
            id=d["id"], gender=d["gender"],
            embedding=np.asarray(d["embedding"]),
            base_pitch_hz=d["base_pitch_hz"], style=np.asarray(d["style"]),
            pii_lexicon={k: list(v) for k, v in d["pii_lexicon"].items()}))
    utterances = []
    for d in _read_jsonl(src / "utterances.jsonl"):
        utterances.append(Utterance(
            id=d["id"], speaker_id=d["speaker_id"], gender=d["gender"],
            duration_s=d["duration_s"], tokens=list(d["tokens"]),
            entity_spans=[tuple(sp) for sp in d["entity_spans"]],
            f0_hz=np.asarray(d["f0_hz"]), p_norm=np.asarray(d["p_norm"]),
            frames=np.asarray(d["frames"]),
            frames_per_token=d["frames_per_token"]))
    pool = []
    for d in _read_jsonl(src / "replacement_pool.jsonl"):
        pool.append(PoolEntry(type=d["type"], tokens=list(d["tokens"])))
    return Dataset(params=params, speakers=speakers, utterances=utterances, pool=pool)
