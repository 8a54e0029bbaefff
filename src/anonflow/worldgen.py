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
import os
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
        # closest pair of columns, against 32 columns at a time: the whole
        # (F, V, V) difference tensor is 8*F*V^2 bytes (76 MB at V = 628)
        d2min = np.inf
        for j in range(0, V, 32):
            d2 = np.sum((A[:, :, None] - A[:, None, j:j + 32]) ** 2, axis=0)
            cols = np.arange(d2.shape[1])
            d2[j + cols, cols] = np.inf
            d2min = min(d2min, d2.min())
        dmin = np.sqrt(d2min)
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

# 10**k is exact in float64 for k <= 22, so one multiply or divide by it is
# correctly rounded
_POW10 = np.array([float(10 ** k) for k in range(23)])


def _scale(a, e):
    """a * 10**(8 - e), by one exact power of ten."""
    k = 8 - e
    return np.where(k >= 0, a * _POW10[np.maximum(k, 0)],
                    a / _POW10[np.maximum(-k, 0)])


def _split9(v):
    """Exact digit split of ``float(f"{x:.9g}")`` for a float64 array.

    Returns (m, e, fast): for each value marked ``fast`` the rounded value
    is +-m * 10**(e - 8), with m a whole float in [1e8, 1e9) (0 for zeros).
    The scale by an exact power of ten and ``rint`` are each correctly
    rounded, so m is exact unless the scaled fraction lies within 1e-6 of
    .5, where the product's rounding could move a tie.  ``fast`` is false
    for those, for non-finite values and for values that ``repr`` prints
    in exponent form (rounded value outside 1e-4 <= |x| < 1e16); the
    caller gives them to the per-value code.
    """
    a = np.abs(v)
    live = (a >= 5e-5) & (a < 2e16)
    a = np.where(live, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s = _scale(a, e)
    m = np.rint(s)
    # rounding carried into a tenth digit, or log10 was one ulp off
    off = np.flatnonzero((m >= 1e9) | (m < 1e8))
    if off.size:
        e[off] += np.where(m[off] >= 1e9, 1, -1)
        s[off] = _scale(a[off], e[off])
        m[off] = np.rint(s[off])
    tie = np.abs(np.abs(s - m) - 0.5) < 1e-6
    fast = live & (e >= -4) & (e <= 15) & ~tie
    zero = v == 0
    m[zero], e[zero], fast[zero] = 0.0, 0, True
    return m, e, fast


# The text of a value rounded to 9 significant digits is built from its
# digit split.  Three lookups of "ddd" plus a filler byte give each value
# 12 characters: digit j at column j + j // 3, then "0", "." and NUL at
# columns 3, 7 and 11.
_TRIPLES = np.frombuffer(b"".join(
    f"{i:03d}".encode() + fill for fill in (b"0", b".", b"\0")
    for i in range(1000)), np.uint32).reshape(3, 1000)
_TRAILING_ZEROS = np.array(
    [3] + [len(str(i)) - len(str(i).rstrip("0")) for i in range(1, 1000)])
_DIGIT = [j + j // 3 for j in range(9)]
_ZERO, _DOT = 3, 7


def _layout(e: int, k: int) -> list:
    """Columns of ``repr`` text after the sign, for exponent e in [-4, 15]
    and k significant digits kept."""
    if e < 0:
        return [_ZERO, _DOT] + [_ZERO] * (-e - 1) + _DIGIT[:k]
    i = min(e, 8) + 1
    return (_DIGIT[:i] + [_ZERO] * (e - 8) + [_DOT] + _DIGIT[i:k]
            + [_ZERO] * (e >= 8))


# layouts by key (e + 4) * 10 + k; key 0 (a value left to the per-value
# code) writes nothing
_LAYOUTS = [np.array(_layout(key // 10 - 4, key % 10) if key % 10 else [],
                     dtype=np.intp) for key in range(200)]
_TEXT_W = 19   # sign plus the widest fixed-notation repr, "1234567890123456.0"
_ROW = np.dtype((np.void, _TEXT_W + 4))
# what follows a value: more values, the end of a 1-D array, the end of a
# matrix row, the end of a matrix
_SEP, _END1, _ENDROW, _END2 = range(4)
_SUFFIX = np.array([list(t.ljust(4, b"\0"))
                    for t in (b", ", b"]", b"], [", b"]]")], np.uint8)
# values formatted at once; keeps the (n, 23) text rows and the digit
# columns at a few MB
BATCH_VALUES = 1 << 16


def _text_rows(v, code):
    """(n, _TEXT_W + 4) uint8 rows: each value's ``json.dumps`` text after
    rounding to 9 significant digits, then its suffix, NUL padded."""
    n = v.size
    m, e, fast = _split9(v)
    m = m.astype(np.int32)
    g = (m // 1000000, m // 1000 % 1000, m % 1000)
    chars = np.stack([_TRIPLES[t, g[t]] for t in range(3)], axis=1)
    tz = np.where(g[2] > 0, _TRAILING_ZEROS[g[2]],
                  np.where(g[1] > 0, 3 + _TRAILING_ZEROS[g[1]],
                           6 + _TRAILING_ZEROS[g[0]]))
    # repr drops trailing zeros, but keeps the first fraction digit
    k = np.clip(9 - tz, np.maximum(e, -1) + 2, 9)
    key = np.where(fast, (np.clip(e, -4, 15) + 4) * 10 + k, 0).astype(np.uint8)
    # sort by layout, so each layout is one column gather over a slice
    order = np.argsort(key, kind="stable")
    key = key[order]
    chars = chars.view((np.void, 12)).ravel()[order]
    chars = chars.view(np.uint8).reshape(n, 12)
    by_layout = np.zeros((n, _TEXT_W + 4), np.uint8)
    cuts = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), n]
    for lo, hi in zip(cuts, cuts[1:]):
        cols = _LAYOUTS[key[lo]]
        by_layout[lo:hi, 1:1 + cols.size] = chars[lo:hi].take(cols, axis=1)
    buf = np.empty_like(by_layout)
    buf.view(_ROW).ravel()[order] = by_layout.view(_ROW).ravel()
    buf[:, 0] = np.where(np.signbit(v), ord("-"), 0)
    for i in np.flatnonzero(~fast):
        text = json.dumps(float(f"{v[i]:.9g}")).encode()
        buf[i, :_TEXT_W] = 0
        buf[i, :len(text)] = np.frombuffer(text, np.uint8)
    buf[:, _TEXT_W:] = _SUFFIX[code]
    return buf


def _json_arrays(arrays) -> list:
    """``json.dumps(_round9(a))`` as bytes for each non-empty 1-D or 2-D
    float array, from one text buffer over all their values."""
    v = np.concatenate([a.ravel() for a in arrays]).astype(float, copy=False)
    code = np.full(v.size, _SEP)
    ends = np.cumsum([a.size for a in arrays]).tolist()
    for a, end in zip(arrays, ends):
        if a.ndim == 2:
            code[end - a.size + a.shape[1] - 1:end:a.shape[1]] = _ENDROW
        code[end - 1] = _END1 if a.ndim == 1 else _END2
    buf = _text_rows(v, code)
    out = []
    for a, start, stop in zip(arrays, [0] + ends, ends):
        rows = buf[start:stop]
        out.append(b"[" * a.ndim + rows[rows != 0].tobytes())
    return out


def _batched(v) -> bool:
    """A non-empty 1-D or 2-D float array whose values are exact in
    float64."""
    return (isinstance(v, np.ndarray) and v.dtype.kind == "f"
            and v.dtype.itemsize <= 8 and v.ndim in (1, 2) and v.size > 0)


def _write_batch(f, rows) -> None:
    arrays = [v for row in rows for v in row.values() if _batched(v)]
    texts = iter(_json_arrays(arrays) if arrays else [])
    for row in rows:
        f.write(b"{" + b", ".join(
            json.dumps(k).encode() + b": "
            + (next(texts) if _batched(v) else json.dumps(_round9(v)).encode())
            for k, v in row.items()) + b"}\n")


def _write_jsonl(f, rows) -> None:
    """Write ``json.dumps(_round9(row))`` and a newline per row dict to the
    binary file ``f``.  Float arrays in the rows are formatted together, in
    batches cut before they would pass BATCH_VALUES values."""
    batch, n = [], 0
    for row in rows:
        size = sum(v.size for v in row.values() if _batched(v))
        if batch and n + size > BATCH_VALUES:
            _write_batch(f, batch)
            batch, n = [], 0
        batch.append(row)
        n += size
    _write_batch(f, batch)


DATASET_FILES = ("world.json", "speakers.jsonl", "utterances.jsonl",
                 "replacement_pool.jsonl")


def save_dataset(dataset: Dataset, out_dir) -> None:
    """Write the dataset's four files.  Each is written to a temporary file
    first, and they replace the old files only once all four are written;
    on an error the temporary files are removed.  Floats are stored at 9
    significant digits."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tmp = {name: out / f".{name}.tmp" for name in DATASET_FILES}
    try:
        tmp["world.json"].write_bytes(
            json.dumps(dataset.params.to_dict(), indent=1).encode() + b"\n")
        with open(tmp["speakers.jsonl"], "wb") as f:
            _write_jsonl(f, ({
                "id": s.id, "gender": s.gender, "embedding": s.embedding,
                "base_pitch_hz": s.base_pitch_hz, "style": s.style,
                "pii_lexicon": s.pii_lexicon,
            } for s in dataset.speakers))
        with open(tmp["utterances.jsonl"], "wb") as f:
            _write_jsonl(f, ({
                "id": u.id, "speaker_id": u.speaker_id, "gender": u.gender,
                "duration_s": u.duration_s, "tokens": u.tokens,
                "entity_spans": [[t, a, b] for t, a, b in u.entity_spans],
                "f0_hz": u.f0_hz, "p_norm": u.p_norm, "frames": u.frames,
                "frames_per_token": u.frames_per_token,
            } for u in dataset.utterances))
        with open(tmp["replacement_pool.jsonl"], "wb") as f:
            _write_jsonl(f, ({"type": e.type, "tokens": e.tokens,
                              "length": e.length} for e in dataset.pool))
        for name in DATASET_FILES:
            os.replace(tmp[name], out / name)
    except BaseException:
        for path in tmp.values():
            path.unlink(missing_ok=True)
        raise


def _read_jsonl(path: Path, fields: tuple):
    """Yield ("path:line", dict) per line; a malformed line names both."""
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        where = f"{path}:{n}"
        try:
            d = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{where}: not valid JSON: {e}") from e
        missing = [k for k in fields if k not in d]
        if missing:
            raise DataError(f"{where}: missing field(s) {', '.join(missing)}")
        yield where, d


_UTTERANCE_FIELDS = ("id", "speaker_id", "gender", "duration_s", "tokens",
                     "entity_spans", "f0_hz", "p_norm", "frames",
                     "frames_per_token")


def _float_array(where: str, d: dict, key: str, shape: tuple) -> np.ndarray:
    """Field ``key`` of a row as a float array of the given shape."""
    try:
        a = np.asarray(d[key])
    except (TypeError, ValueError) as e:
        raise DataError(f"{where}: {key} is not a numeric array: {e}") from e
    # no dtype in asarray: it would read a JSON null as NaN
    if a.dtype.kind not in "iuf":
        raise DataError(f"{where}: {key} is not a numeric array")
    a = a.astype(float, copy=False)
    if a.shape != shape:
        raise DataError(f"{where}: {key} has shape {a.shape}, "
                        f"expected {shape}")
    return a


def _load_utterance(where: str, d: dict, params: WorldParams) -> Utterance:
    """One utterance row; tokens must be integer ids in [0, V) and the
    per-frame arrays must have T = len(tokens) * frames_per_token rows."""
    fpt = d["frames_per_token"]
    if type(fpt) is not int or fpt < 1:
        raise DataError(f"{where}: frames_per_token must be a positive "
                        f"integer, got {fpt!r}")
    tokens = d["tokens"]
    if not (isinstance(tokens, list) and all(type(k) is int for k in tokens)):
        raise DataError(f"{where}: tokens must be a list of integer ids")
    if tokens and not (0 <= min(tokens) and max(tokens) < params.V):
        raise DataError(f"{where}: token ids must lie in [0, {params.V})")
    t = len(tokens) * fpt
    return Utterance(
        id=d["id"], speaker_id=d["speaker_id"], gender=d["gender"],
        duration_s=d["duration_s"], tokens=tokens,
        entity_spans=[tuple(sp) for sp in d["entity_spans"]],
        f0_hz=_float_array(where, d, "f0_hz", (t,)),
        p_norm=_float_array(where, d, "p_norm", (t,)),
        frames=_float_array(where, d, "frames", (t, params.F)),
        frames_per_token=fpt)


def load_dataset(in_dir) -> Dataset:
    src = Path(in_dir)
    try:
        params = WorldParams.from_dict(
            json.loads((src / "world.json").read_text()))
    except json.JSONDecodeError as e:
        raise DataError(f"{src / 'world.json'}: not valid JSON: {e}") from e
    speakers = []
    for where, d in _read_jsonl(src / "speakers.jsonl",
                                ("id", "gender", "embedding", "base_pitch_hz",
                                 "style", "pii_lexicon")):
        speakers.append(Speaker(
            id=d["id"], gender=d["gender"],
            embedding=_float_array(where, d, "embedding", (params.D,)),
            base_pitch_hz=d["base_pitch_hz"],
            style=_float_array(where, d, "style", (params.V,)),
            pii_lexicon={k: list(v) for k, v in d["pii_lexicon"].items()}))
    utterances = [_load_utterance(where, d, params) for where, d in
                  _read_jsonl(src / "utterances.jsonl", _UTTERANCE_FIELDS)]
    pool = [PoolEntry(type=d["type"], tokens=list(d["tokens"])) for _, d in
            _read_jsonl(src / "replacement_pool.jsonl", ("type", "tokens"))]
    return Dataset(params=params, speakers=speakers, utterances=utterances, pool=pool)
