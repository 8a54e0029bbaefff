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

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import AT_LEAST_1, NON_NEGATIVE, check_ranges, replacing
from .errors import ConfigError, DataError, InputError
from .pitch import pitch_or_zeros
from .vq import nearest

PII_TYPES = ("PER", "LOC", "ORG", "MISC")
LEXICON_PER_TYPE = 2                       # PII tokens per speaker and type
POOL_LENGTHS_PER_TYPE = (1, 1, 1, 2, 2, 2)  # replacement entity lengths
FRAME_RATE = 4.0             # frames per second of duration
FRAMES_PER_TOKEN = 4
UNVOICED_PROB = 0.2          # chance that a frame (but the first) is unvoiced
PITCH_SD_SEMITONES = 2.0     # frame pitch spread around the speaker's base
STYLE_ALPHA = 0.3            # Dirichlet concentration of speaker token styles
MAX_DURATION_S = 600.0       # WorldConfig ceiling: 2400 frames per utterance


def _fields_of(record) -> dict:
    """A dataclass instance's fields by name, in declaration order; unlike
    ``dataclasses.asdict`` the values are not copied."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


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
    """The world's generative model; ``world.json`` holds its fields, in
    this order."""
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

    def __post_init__(self):
        for key in ("D", "V", "F", "seed", "v_common"):
            value = getattr(self, key)
            # a JSON 16.0 or true would only fail later, inside numpy
            if type(value) is not int:
                raise ConfigError(f"{key} must be an integer, got {value!r}")
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
        return _round9(_fields_of(self))


def make_world_params(D: int = 16, F: int = 24, v_common: int = 80,
                      n_speakers: int = 10, noise_sigma: float = 0.05,
                      seed: int = 0) -> WorldParams:
    """Draw imprint matrices sized for the given vocabulary layout.

    A's columns are rescaled if needed so their minimum pairwise distance
    exceeds 6 * noise_sigma * sqrt(F), which makes clean-token recovery
    error-free by a comfortable margin.
    """
    n_lex = n_speakers * len(PII_TYPES) * LEXICON_PER_TYPE
    n_pool = len(PII_TYPES) * sum(POOL_LENGTHS_PER_TYPE)
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
                       gender_means=gender_means, seed=seed, v_common=v_common)


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


def synth_frames(params: WorldParams, frame_tokens, p_norm, s, rng) -> np.ndarray:
    """Linear synthesis plus observation noise of sd ``noise_sigma``."""
    frame_tokens = np.asarray(frame_tokens, dtype=int)
    x = params.A[:, frame_tokens].T + np.outer(p_norm, params.B) + params.C @ np.asarray(s)
    if params.noise_sigma > 0:
        x = x + params.noise_sigma * rng.standard_normal(x.shape)
    return x


def sample_speaker_embedding(params: WorldParams, gender: str, rng) -> np.ndarray:
    """One draw from the speaker prior: gender mean + unit normal, normalized."""
    mean = params.gender_means[0 if gender == "male" else 1]
    e = mean + rng.standard_normal(params.D)
    return e / np.linalg.norm(e)


def sample_speaker_embeddings(params: WorldParams, n: int, rng) -> np.ndarray:
    """(n, D) draws from the speaker prior, genders alternating from male:
    bit for bit the rows of n ``sample_speaker_embedding`` calls, from one
    draw of the same stream."""
    e = params.gender_means[np.arange(n) % 2] + rng.standard_normal((n, params.D))
    # each row's dot product with itself, as the 1-D np.linalg.norm takes it
    return e / np.sqrt(np.matmul(e[:, None, :], e[:, :, None]))[:, 0]


def _lexicon_layout(params: WorldParams, n_speakers: int):
    """Carve PII lexicon and pool token ids out of the vocabulary."""
    nxt = params.v_common
    lexicons = []
    for _ in range(n_speakers):
        d = {}
        for typ in PII_TYPES:
            d[typ] = list(range(nxt, nxt + LEXICON_PER_TYPE))
            nxt += LEXICON_PER_TYPE
        lexicons.append(d)
    pool = []
    for typ in PII_TYPES:
        for length in POOL_LENGTHS_PER_TYPE:
            pool.append(PoolEntry(type=typ, tokens=list(range(nxt, nxt + length))))
            nxt += length
    if nxt != params.V:
        raise ConfigError(f"vocabulary layout mismatch: carved {nxt}, V={params.V}")
    return lexicons, pool


def generate_world(params: WorldParams, n_speakers: int, utts_per_speaker: int,
                   rng: np.random.Generator, duration_range=(3.0, 18.0),
                   pii_frac: float = 0.3) -> Dataset:
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
            np.full(params.v_common, STYLE_ALPHA))
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
            n_tok = max(3, int(duration * FRAME_RATE) // FRAMES_PER_TOKEN)
            t_frames = n_tok * FRAMES_PER_TOKEN
            probs = spk.style[:params.v_common]
            tokens = rng.choice(params.v_common, size=n_tok, p=probs).astype(int).tolist()
            spans = []
            if k in pii_slots:
                for _ in range(int(rng.integers(1, 3))):
                    typ = PII_TYPES[int(rng.integers(len(PII_TYPES)))]
                    length = int(rng.integers(1, LEXICON_PER_TYPE + 1))
                    start = int(rng.integers(0, n_tok - length + 1))
                    if any(start < e and start + length > s for _, s, e in spans):
                        continue
                    ent = spk.pii_lexicon[typ][:length]
                    tokens[start:start + length] = ent
                    spans.append((typ, start, start + length))
                spans.sort(key=lambda sp: sp[1])
            voiced = rng.random(t_frames) >= UNVOICED_PROB
            voiced[0] = True
            f0 = np.zeros(t_frames)
            offs = rng.normal(0.0, PITCH_SD_SEMITONES, size=t_frames)
            f0[voiced] = spk.base_pitch_hz * 2.0 ** (offs[voiced] / 12.0)
            p_norm = pitch_or_zeros(f0)
            frame_tokens = np.repeat(tokens, FRAMES_PER_TOKEN)
            frames = synth_frames(params, frame_tokens, p_norm, spk.embedding, rng)
            utterances.append(Utterance(
                id=f"utt{uid:05d}", speaker_id=spk.id, gender=spk.gender,
                duration_s=duration, tokens=tokens, entity_spans=spans,
                f0_hz=f0, p_norm=p_norm, frames=frames,
                frames_per_token=FRAMES_PER_TOKEN))
            uid += 1
    return Dataset(params=params, speakers=speakers, utterances=utterances, pool=pool)


@dataclass
class WorldConfig:
    """The knobs of a generated world; an out-of-range value raises
    ConfigError naming its key."""
    D: int = 16
    F: int = 24
    v_common: int = 80
    n_speakers: int = 12
    utts_per_speaker: int = 8
    noise_sigma: float = 0.05
    duration_range: tuple = (6.0, 12.0)
    pii_frac: float = 0.4

    def __post_init__(self):
        self.duration_range = tuple(self.duration_range)
        check_ranges("world", self, {
            **dict.fromkeys(("D", "F", "v_common", "n_speakers",
                             "utts_per_speaker"), AT_LEAST_1),
            "noise_sigma": NON_NEGATIVE,
            "pii_frac": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
            "duration_range": (
                lambda v: len(v) == 2 and 0.0 < v[0] <= v[1] <= MAX_DURATION_S,
                f"[lo, hi] with 0 < lo <= hi <= {MAX_DURATION_S:g}")})

    def generate(self, seed: int) -> Dataset:
        params = make_world_params(D=self.D, F=self.F, v_common=self.v_common,
                                   n_speakers=self.n_speakers,
                                   noise_sigma=self.noise_sigma, seed=seed)
        return generate_world(params, self.n_speakers, self.utts_per_speaker,
                              np.random.default_rng(seed),
                              duration_range=self.duration_range,
                              pii_frac=self.pii_frac)


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
    """Per-frame nearest-column token recovery (ties -> lowest token id)."""
    frames = np.asarray(frames, dtype=float)
    resid = frames - np.outer(np.asarray(p_norm), params.B) - params.C @ np.asarray(s)
    return nearest(resid, params.A.T)


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
    p = _POW10[np.abs(k)]
    return np.divide(a, p, out=a * p, where=k < 0)


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
    rounding to 9 significant digits, then its suffix, NUL padded; and the
    float64 values that these texts parse back to."""
    n = v.size
    m, e, fast = _split9(v)
    # +-m * 10**(e - 8), by one exact power of ten: correctly rounded, as
    # parsing the text is
    r = _scale(m, 16 - e)
    np.copysign(r, v, out=r)
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
        text = json.dumps(float(f"{v[i]:.9g}"))
        r[i] = float(text)
        buf[i, :_TEXT_W] = 0
        buf[i, :len(text)] = np.frombuffer(text.encode(), np.uint8)
    buf[:, _TEXT_W:] = _SUFFIX[code]
    return buf, r


def _json_arrays(arrays) -> tuple:
    """``json.dumps(_round9(a))`` as bytes for each non-empty 1-D or 2-D
    float array, from one text buffer over all their values; and all their
    values as the texts give them back, in order."""
    v = np.concatenate([a.ravel() for a in arrays]).astype(float, copy=False)
    code = np.full(v.size, _SEP)
    ends = np.cumsum([a.size for a in arrays]).tolist()
    for a, end in zip(arrays, ends):
        if a.ndim == 2:
            code[end - a.size + a.shape[1] - 1:end:a.shape[1]] = _ENDROW
        code[end - 1] = _END1 if a.ndim == 1 else _END2
    buf, values = _text_rows(v, code)
    out = []
    for a, start, stop in zip(arrays, [0] + ends, ends):
        rows = buf[start:stop]
        out.append(b"[" * a.ndim + rows[rows != 0].tobytes())
    return out, values


def _batched(v) -> bool:
    """A non-empty 1-D or 2-D float array whose values are exact in
    float64."""
    return (isinstance(v, np.ndarray) and v.dtype.kind == "f"
            and v.dtype.itemsize <= 8 and v.ndim in (1, 2) and v.size > 0)


@functools.lru_cache(maxsize=64)
def _key_text(key: str) -> bytes:
    return json.dumps(key).encode() + b": "


def _object_text(parts: dict) -> bytes:
    """``json.dumps`` of a dict, from the JSON text of each value."""
    return b"{" + b", ".join(_key_text(k) + text
                             for k, text in parts.items()) + b"}"


def _write_batch(f, rows, stream=None) -> list:
    streamed = [[k for k, v in row.items() if _batched(v)] for row in rows]
    arrays = [row[k] for row, keys in zip(rows, streamed) for k in keys]
    texts, values = _json_arrays(arrays) if arrays else ([], np.empty(0))
    texts = iter(texts)
    shaped = []
    for row, keys in zip(rows, streamed):
        parts = {k: next(texts) if k in keys else json.dumps(_round9(v)).encode()
                 for k, v in row.items()}
        f.write(_object_text(parts) + b"\n")
        shapes = {k: str(list(row[k].shape)).encode() for k in keys}
        shaped.append((tuple(keys), _object_text({**parts, **shapes})))
    if stream is not None:
        stream.write(values.astype("<f8", copy=False))
    return shaped


def _write_jsonl(f, rows, stream=None) -> list:
    """Write ``json.dumps(_round9(row))`` and a newline per row dict to the
    binary file ``f``.  Float arrays in the rows are formatted together, in
    batches cut before they would pass BATCH_VALUES values; with a binary
    file ``stream``, their values as the text gives them back are appended
    to it as little-endian float64, in order.  Returns, per row, the keys
    of its float arrays and the row's JSON text with each of those arrays
    replaced by its shape."""
    batch, n, shaped = [], 0, []
    for row in rows:
        size = sum(v.size for v in row.values() if _batched(v))
        if batch and n + size > BATCH_VALUES:
            shaped += _write_batch(f, batch, stream)
            batch, n = [], 0
        batch.append(row)
        n += size
    return shaped + _write_batch(f, batch, stream)


# The array cache: ``arrays.f64`` holds the float arrays of these fields of
# every row of these files, in order, as the text gives them back;
# ``arrays.json`` holds the rows with each of those arrays replaced by its
# shape, and the sha256 of both JSONL files, of the stream and of the rows.
ARRAY_FIELDS = {"speakers.jsonl": ("embedding", "style"),
                "utterances.jsonl": ("f0_hz", "p_norm", "frames")}
CACHE_FILES = ("arrays.f64", "arrays.json")
DATASET_FILES = ("world.json", "speakers.jsonl", "utterances.jsonl",
                 "replacement_pool.jsonl", *CACHE_FILES)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def save_dataset(dataset: Dataset, out_dir) -> None:
    """Write the dataset's files.  They replace the old files only once
    all are written (see ``checkpoint.replacing``).  Floats are stored at 9
    significant digits.  The array cache is left out, and an old one
    removed, when some row's float arrays are not the fields it stores."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = {"speakers.jsonl": map(_fields_of, dataset.speakers),
            "utterances.jsonl": map(_fields_of, dataset.utterances)}
    shaped = {}
    with replacing([out / name for name in DATASET_FILES]) as paths:
        tmp = dict(zip(DATASET_FILES, paths))
        tmp["world.json"].write_bytes(
            json.dumps(dataset.params.to_dict(), indent=1).encode() + b"\n")
        with open(tmp["arrays.f64"], "wb") as stream:
            for name in ARRAY_FIELDS:
                with open(tmp[name], "wb") as f:
                    shaped[name] = _write_jsonl(f, rows[name], stream)
        with open(tmp["replacement_pool.jsonl"], "wb") as f:
            _write_jsonl(f, ({**_fields_of(e), "length": e.length}
                             for e in dataset.pool))
        whole = all(keys == fields for name, fields in ARRAY_FIELDS.items()
                    for keys, _ in shaped[name])
        if whole:
            # json.dumps of the rows, as the loader checks it
            text = _object_text({
                name: b"[" + b", ".join(t for _, t in shaped[name]) + b"]"
                for name in ARRAY_FIELDS})
            digests = {name: sha256_file(tmp[name])
                       for name in ("arrays.f64", *ARRAY_FIELDS)}
            digests["rows"] = hashlib.sha256(text).hexdigest()
            tmp["arrays.json"].write_bytes(_object_text({
                "sha256": json.dumps(digests).encode(), "rows": text}) + b"\n")
        else:
            tmp["arrays.f64"].unlink()


def _parse_jsonl(path: Path):
    """The row of each line of a JSONL file; a malformed line names the
    path and line."""
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        try:
            yield json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{n}: not valid JSON: {e}") from e


def _cached_rows(src: Path) -> dict:
    """The rows of the files of ARRAY_FIELDS, with their arrays, from the
    array cache in ``src``; or {} unless the cache is whole and its digests
    match the files beside it."""
    try:
        doc = json.loads((src / "arrays.json").read_bytes())
        digests, rows = doc["sha256"], doc["rows"]
        if (hashlib.sha256(json.dumps(rows).encode()).hexdigest()
                != digests["rows"]):
            return {}
        # each (row, field) holds the shape of its array
        cells = [(row, k) for name, fields in ARRAY_FIELDS.items()
                 for row in rows[name] for k in fields]
        cuts = np.cumsum([0] + [math.prod(row[k]) for row, k in cells]).tolist()
        stream = src / "arrays.f64"
        if (stream.stat().st_size != 8 * cuts[-1]
                or any(sha256_file(src / name) != digests[name]
                       for name in ARRAY_FIELDS)):
            return {}
        values = np.fromfile(stream, "<f8")
        if hashlib.sha256(values).hexdigest() != digests["arrays.f64"]:
            return {}
        arrays = [values[a:b].reshape(row[k])
                  for (row, k), a, b in zip(cells, cuts, cuts[1:])]
    except (OSError, ValueError, KeyError, TypeError):
        return {}
    for (row, k), a in zip(cells, arrays):
        row[k] = a
    return rows


def _checked_rows(path: Path, rows, record):
    """Yield ("path:line", dict) per row; a row without one of the fields
    of the dataclass ``record`` names both."""
    names = [f.name for f in fields(record)]
    for n, d in enumerate(rows, start=1):
        where = f"{path}:{n}"
        missing = [k for k in names if k not in d]
        if missing:
            raise DataError(f"{where}: missing field(s) {', '.join(missing)}")
        yield where, d


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


def load_params(in_dir) -> WorldParams:
    """The world parameters of a dataset directory, from its world.json."""
    path = Path(in_dir) / "world.json"
    try:
        d = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(d, dict):
        raise DataError(f"{path}: not a JSON object")
    names = {f.name for f in fields(WorldParams)}
    missing = sorted(names - set(d))
    if missing:
        raise DataError(f"{path}: missing key(s) {', '.join(missing)}")
    unknown = sorted(set(d) - names)
    if unknown:
        raise DataError(f"{path}: unknown key(s) {', '.join(unknown)}")
    try:
        return WorldParams(**d)
    except (TypeError, ValueError) as e:     # ConfigError is a ValueError
        raise DataError(f"{path}: {e}") from e


def load_dataset(in_dir) -> Dataset:
    """Read a dataset directory.  Speaker and utterance rows come from the
    array cache when its digests match the JSONL files, and are parsed
    from the text otherwise; either way they get the same checks."""
    src = Path(in_dir)
    params = load_params(src)
    cached = _cached_rows(src)

    def rows(name, record):
        path = src / name
        return _checked_rows(path, cached[name] if name in cached
                             else _parse_jsonl(path), record)

    speakers = [Speaker(
        id=d["id"], gender=d["gender"],
        embedding=_float_array(where, d, "embedding", (params.D,)),
        base_pitch_hz=d["base_pitch_hz"],
        style=_float_array(where, d, "style", (params.V,)),
        pii_lexicon={k: list(v) for k, v in d["pii_lexicon"].items()})
        for where, d in rows("speakers.jsonl", Speaker)]
    utterances = [_load_utterance(where, d, params) for where, d in
                  rows("utterances.jsonl", Utterance)]
    pool = [PoolEntry(type=d["type"], tokens=list(d["tokens"])) for _, d in
            rows("replacement_pool.jsonl", PoolEntry)]
    return Dataset(params=params, speakers=speakers, utterances=utterances, pool=pool)
