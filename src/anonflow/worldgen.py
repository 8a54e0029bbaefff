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
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import (AT_LEAST_1, EVEN_AT_LEAST_2, NON_NEGATIVE,
                         check_ranges, replacing, utf8_text)
from .errors import ConfigError, DataError, InputError
from .pitch import normalize_pitch
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


def _round9(x: float) -> float:
    """``x`` at 9 significant digits, as the dataset files store floats."""
    return float(f"{x:.9g}")


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
        for key in ("D", "V", "F"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, "
                                  f"got {getattr(self, key)}")
        # a NaN fails both comparisons
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise_sigma must be a finite number >= 0, "
                              f"got {self.noise_sigma!r}")
        if self.F < self.D + 1:
            raise ConfigError(f"F={self.F} must be >= D+1={self.D + 1}")
        shapes = {"A": (self.F, self.V), "B": (self.F,), "C": (self.F, self.D),
                  "gender_means": (2, self.D)}
        for key, shape in shapes.items():
            value = np.asarray(getattr(self, key), dtype=float)
            if value.shape != shape:
                raise ConfigError(f"{key} has shape {value.shape}, "
                                  f"expected {shape}")
            setattr(self, key, value)
        if np.linalg.matrix_rank(self.C) < self.D:
            raise ConfigError("speaker imprint C must have full column rank")
        self._c_pinv = np.linalg.pinv(self.C)

    @property
    def c_pinv(self) -> np.ndarray:
        """Pseudo-inverse of C, computed once at construction."""
        return self._c_pinv


def make_world_params(D: int, F: int, v_common: int, n_speakers: int,
                      noise_sigma: float, seed: int) -> WorldParams:
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
        # closest pair of columns, 32 columns at a time against the columns
        # from theirs onward, so each pair is summed once: the whole
        # (F, V, V) difference tensor is 8*F*V^2 bytes (76 MB at V = 628)
        d2min = np.inf
        for j in range(0, V, 32):
            d2 = np.sum((A[:, j:, None] - A[:, None, j:j + 32]) ** 2, axis=0)
            cols = np.arange(d2.shape[1])
            d2[cols, cols] = np.inf
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
    utterances: list            # or a one-pass generator, for save_dataset
    pool: list = field(default_factory=list)
    # path -> sha256 of each file ``load_dataset`` read or verified, as read
    sha256: dict = field(default_factory=dict, compare=False, repr=False)

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
                   rng: np.random.Generator, duration_range,
                   pii_frac: float) -> Dataset:
    """Generate a gender-balanced dataset from the linear world model;
    ``WorldConfig`` keeps ``n_speakers`` even and ``utts_per_speaker`` at
    least 2."""
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
    n_pii = max(1, round(pii_frac * utts_per_speaker))
    for spk in speakers:
        # the random draws, utterance by utterance, in the order that one
        # synthesis per utterance takes them
        utts, noise = [], []
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
            if params.noise_sigma > 0:
                noise.append(rng.standard_normal((t_frames, params.F)))
            utts.append(Utterance(
                id=f"utt{len(utterances) + k:05d}", speaker_id=spk.id,
                gender=spk.gender, duration_s=duration, tokens=tokens,
                entity_spans=spans, f0_hz=f0, p_norm=normalize_pitch(f0),
                frames=None, frames_per_token=FRAMES_PER_TOKEN))
        # the speaker's frames in one pass, row for row the sums that one
        # synthesis per utterance takes; each utterance copies its rows, so
        # the block is freed here (row views kept every block live until
        # the dataset was dropped, and a later text parse in the same
        # process then peaked about 14 MB higher)
        frames = (params.A[:, stacked_frame_tokens(utts)].T
                  + np.outer(np.concatenate([u.p_norm for u in utts]), params.B)
                  + params.C @ spk.embedding)
        if noise:
            frames += params.noise_sigma * np.concatenate(noise)
        stop = 0
        for u in utts:
            start, stop = stop, stop + len(u.f0_hz)
            u.frames = frames[start:stop].copy()
        utterances += utts
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
            **dict.fromkeys(("D", "F", "v_common"), AT_LEAST_1),
            # what generate_world asks, named by key
            "n_speakers": EVEN_AT_LEAST_2,
            "utts_per_speaker": (lambda v: v >= 2, ">= 2"),
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

def frame_count_groups(utts) -> list:
    """(T, rows) for each frame count T among ``utts``, T ascending: the
    indices of the utterances with T frames, in order."""
    n = np.array([u.n_frames for u in utts], dtype=np.intp)
    order = np.argsort(n, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(n[order])) + 1)
    return [(int(n[rows[0]]), rows) for rows in groups if rows.size]


def stacked_frame_tokens(utts) -> np.ndarray:
    """The token id of each frame of ``utts`` under the exact alignment
    (each token repeated ``frames_per_token`` times), concatenated."""
    tokens = [u.tokens for u in utts]
    flat = np.fromiter(itertools.chain.from_iterable(tokens), dtype=int)
    return np.repeat(flat, np.repeat([u.frames_per_token for u in utts],
                                     [len(t) for t in tokens]))


def oracle_extract_speakers(utts, params: WorldParams) -> np.ndarray:
    """Invert the linear model for the speaker component of each utterance:
    an (N, D) array, row i of ``utts[i]``.

    The residual is always taken against the utterance's own tokens and
    pitch, so anonymized utterances yield their rendered pseudo-identity.
    The utterances of one frame count T form one (k, T, F) residual: its
    sum over axis 1 adds each utterance's rows in order, as ``mean(axis=0)``
    of the utterance alone does, so each row is that utterance's result bit
    for bit.  The first utterance without frames is an InputError.
    """
    groups = frame_count_groups(utts)
    if groups and groups[0][0] == 0:
        raise InputError("utterance has no frames")
    out = np.empty((len(utts), params.D))
    c_pinv = params.c_pinv
    for t, rows in groups:
        group = [utts[i] for i in rows]
        resid = np.concatenate([u.frames for u in group], dtype=float)
        resid -= params.A[:, stacked_frame_tokens(group)].T
        resid -= (np.concatenate([u.p_norm for u in group], dtype=float)[:, None]
                  * params.B)
        mean = resid.reshape(rows.size, t, -1).sum(axis=1) / t
        # a stacked matrix-vector product: each row as ``c_pinv @ mean[i]``
        out[rows] = (c_pinv @ mean[:, :, None])[:, :, 0]
    return out


def oracle_extract_speaker(utt: Utterance, params: WorldParams) -> np.ndarray:
    """``oracle_extract_speakers`` of one utterance."""
    return oracle_extract_speakers([utt], params)[0]


def oracle_recover_tokens(frames, p_norm, s, params: WorldParams) -> np.ndarray:
    """Per-frame nearest-column token recovery (ties -> lowest token id)."""
    frames = np.asarray(frames, dtype=float)
    resid = frames - np.outer(np.asarray(p_norm), params.B) - params.C @ np.asarray(s)
    return nearest(resid, params.A.T)


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
# values formatted at once: the (n, 23) text rows, the digit columns and
# the sort by layout take about 150 bytes a value, so a desk-world save
# peaks at 2.6 MB traced (9.4 MB at 1 << 16) and runs faster too
BATCH_VALUES = 1 << 14


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
        text = _value_text(v[i])
        r[i] = float(text)
        buf[i, :_TEXT_W] = 0
        buf[i, :len(text)] = np.frombuffer(text, np.uint8)
    buf[:, _TEXT_W:] = _SUFFIX[code]
    return buf, r


def _json_arrays(arrays) -> tuple:
    """``json.dumps`` as bytes of each 1-D or 2-D float array, its values
    rounded one at a time by ``_round9``, from one text buffer over all
    their values; and all their values as the texts give them back, in
    order."""
    v = np.concatenate([a.ravel() for a in arrays]).astype(float, copy=False)
    code = np.full(v.size, _SEP)
    ends = np.cumsum([a.size for a in arrays]).tolist()
    for a, end in zip(arrays, ends):
        if a.size:      # an empty array has no value to end it
            if a.ndim == 2:
                code[end - a.size + a.shape[1] - 1:end:a.shape[1]] = _ENDROW
            code[end - 1] = _END1 if a.ndim == 1 else _END2
    buf, values = _text_rows(v, code)
    out = []
    for a, start, stop in zip(arrays, [0] + ends, ends):
        rows = buf[start:stop]
        out.append(b"[" * a.ndim + rows[rows != 0].tobytes() if a.size
                   else json.dumps(a.tolist()).encode())
    return out, values


@functools.lru_cache(maxsize=64)
def _key_text(key: str) -> bytes:
    return json.dumps(key).encode() + b": "


def _object_text(parts: dict) -> bytes:
    """``json.dumps`` of a dict, from the JSON text of each value."""
    return b"{" + b", ".join(_key_text(k) + text
                             for k, text in parts.items()) + b"}"


def _value_text(v) -> bytes:
    """``json.dumps`` of a row value that is not a float array; a float is
    rounded by ``_round9``, and no other value holds one."""
    return json.dumps(_round9(v) if isinstance(v, float) else v).encode()


def _write_batch(f, rows, fields, stream) -> list:
    arrays = [row[k] for row in rows for k in fields]
    texts, values = _json_arrays(arrays) if arrays else ([], np.empty(0))
    texts = iter(texts)
    shaped = []
    for row in rows:
        parts = {k: next(texts) if k in fields else _value_text(v)
                 for k, v in row.items()}
        f.write(_object_text(parts) + b"\n")
        shapes = {k: str(list(row[k].shape)).encode() for k in fields}
        shaped.append(_object_text({**parts, **shapes}))
    stream.write(values.astype("<f8", copy=False))
    return shaped


def _write_jsonl(f, rows, fields, stream) -> list:
    """Write the JSON text and a newline of each row dict to the binary
    file ``f``, floats rounded by ``_round9``.  The float arrays of the
    rows, under the keys ``fields`` (in row order), are formatted together,
    in batches cut before they would pass BATCH_VALUES values; their values
    as the text gives them back are appended to the binary file ``stream``
    as little-endian float64, in order.  Returns each row's JSON text with
    each of those arrays replaced by its shape."""
    batch, n, shaped = [], 0, []
    for row in rows:
        size = sum(row[k].size for k in fields)
        if batch and n + size > BATCH_VALUES:
            shaped += _write_batch(f, batch, fields, stream)
            batch, n = [], 0
        batch.append(row)
        n += size
    return shaped + _write_batch(f, batch, fields, stream)


# Each dataset JSON file holds one JSON line per record, the record's
# fields in order (``world.json`` one ``WorldParams`` row).  The array
# cache: ``arrays.f64`` holds the float arrays of these fields of every row
# of these files, in order, as the text gives them back; ``arrays.json``
# holds the rows with each of those arrays replaced by its shape, and the
# sha256 of each of the files, of the stream and of the rows.
ARRAY_FIELDS = {"world.json": ("A", "B", "C", "gender_means"),
                "speakers.jsonl": ("embedding", "style"),
                "utterances.jsonl": ("f0_hz", "p_norm", "frames"),
                "replacement_pool.jsonl": ()}
CACHE_FILES = ("arrays.f64", "arrays.json")
DATASET_FILES = (*ARRAY_FIELDS, *CACHE_FILES)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class _Hashing:
    """``paths[name]`` open for binary writing; on closing, the sha256 of
    the bytes written to it goes into ``digests[name]``, so that a digest
    of the file needs no second read."""

    def __init__(self, paths: dict, name: str, digests: dict):
        self._f = open(paths[name], "wb")
        self._sha256 = hashlib.sha256()
        self._name, self._digests = name, digests

    def write(self, data) -> None:
        self._sha256.update(data)
        self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._f.close()
        self._digests[self._name] = self._sha256.hexdigest()


def save_dataset(dataset: Dataset, out_dir) -> dict:
    """Write the dataset's files, and return the sha256 of each file
    written, by its path in ``out_dir``, hashed from the bytes as they were
    written.  The files replace the old files only once all are written
    (see ``checkpoint.replacing``).  Floats are stored at 9 significant
    digits.  Each record list is read once, in order, so the utterances
    may be a generator (``anonymize_stream``)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = dict(zip(ARRAY_FIELDS, ([dataset.params], dataset.speakers,
                                      dataset.utterances, dataset.pool)))
    shaped, digests = {}, {}
    with replacing([out / name for name in DATASET_FILES]) as paths:
        tmp = dict(zip(DATASET_FILES, paths))
        with _Hashing(tmp, "arrays.f64", digests) as stream:
            for name, fields in ARRAY_FIELDS.items():
                with _Hashing(tmp, name, digests) as f:
                    shaped[name] = _write_jsonl(
                        f, map(_fields_of, records[name]), fields, stream)
        # json.dumps of the rows; the loader checks these bytes
        text = _object_text({name: b"[" + b", ".join(shaped[name]) + b"]"
                             for name in ARRAY_FIELDS})
        sums = {name: digests[name] for name in ("arrays.f64", *ARRAY_FIELDS)}
        sums["rows"] = hashlib.sha256(text).hexdigest()
        with _Hashing(tmp, "arrays.json", digests) as f:
            f.write(_rows_head(sums) + text + b"}\n")
    return {out / name: digest for name, digest in digests.items()}


def _rows_head(sums: dict) -> bytes:
    """The text of ``arrays.json`` before its rows."""
    return b'{"sha256": ' + json.dumps(sums).encode() + b', "rows": '


def _read(path: Path, digests: dict) -> bytes:
    """The bytes of ``path``; their sha256 goes into ``digests`` under the
    path, unless it holds the path already."""
    data = path.read_bytes()
    if path not in digests:
        digests[path] = hashlib.sha256(data).hexdigest()
    return data


def _parse_jsonl(path: Path, data: bytes):
    """The row of each line of ``data``, the bytes of a JSONL file; bytes
    that are not UTF-8 name the path, a malformed line the path and line."""
    for n, line in enumerate(utf8_text(path, data).splitlines(), start=1):
        try:
            yield json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{n}: not valid JSON: {e}") from e


def _cached_rows(src: Path, digests: dict) -> dict:
    """The rows of the files of ARRAY_FIELDS, with their arrays, from the
    array cache in ``src``; or {} unless the cache is whole and its digests
    match the files beside it.  The sha256 of each file read or verified
    goes into ``digests``, so that no file is hashed twice."""
    try:
        data = _read(src / "arrays.json", digests)
        doc = json.loads(data)
        sums, rows = doc["sha256"], doc["rows"]
        # the rows digest covers the rows' bytes as stored: any other
        # spelling of them is read from the text
        head = _rows_head(sums)
        if (not data.startswith(head) or not data.endswith(b"}\n")
                or hashlib.sha256(memoryview(data)[len(head):-2]).hexdigest()
                != sums["rows"]):
            return {}
        # each (row, field) holds the shape of its array
        cells = [(row, k) for name, fields in ARRAY_FIELDS.items()
                 for row in rows[name] for k in fields]
        cuts = np.cumsum([0] + [math.prod(row[k]) for row, k in cells]).tolist()
        stream = src / "arrays.f64"
        if stream.stat().st_size != 8 * cuts[-1]:
            return {}
        for name in ARRAY_FIELDS:
            digests[src / name] = sha256_file(src / name)
            if digests[src / name] != sums[name]:
                return {}
        values = np.fromfile(stream, "<f8")
        digests[stream] = hashlib.sha256(values).hexdigest()
        if digests[stream] != sums["arrays.f64"]:
            return {}
        arrays = [values[a:b].reshape(row[k])
                  for (row, k), a, b in zip(cells, cuts, cuts[1:])]
    except (OSError, ValueError, KeyError, TypeError):
        return {}
    for (row, k), a in zip(cells, arrays):
        row[k] = a
    return rows


def _checked_rows(path: Path, rows, record):
    """Yield ("path:line", dict) per row of ``path``: each row must be a
    JSON object whose keys are exactly the fields of the dataclass
    ``record``, or an error names the row and the missing or unknown keys.
    ``world.json`` holds one row, which errors name by the path alone."""
    names = [f.name for f in fields(record)]
    keys = set(names)
    for n, d in enumerate(rows, start=1):
        where = f"{path}" if record is WorldParams else f"{path}:{n}"
        if not isinstance(d, dict):
            raise DataError(f"{where}: not a JSON object")
        if d.keys() != keys:
            missing = [k for k in names if k not in d]
            if missing:
                raise DataError(f"{where}: missing key(s) {', '.join(missing)}")
            raise DataError(f"{where}: unknown key(s) "
                            f"{', '.join(sorted(d.keys() - keys))}")
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


def _token_ids(where: str, key: str, ids, params: WorldParams) -> list:
    """``ids``, field ``key`` of a row, if it is a list of integer token
    ids in [0, V)."""
    if not (isinstance(ids, list) and all(type(k) is int for k in ids)):
        raise DataError(f"{where}: {key} must be a list of integer ids")
    if ids and not (0 <= min(ids) and max(ids) < params.V):
        raise DataError(f"{where}: {key} ids must lie in [0, {params.V})")
    return ids


def _string_id(where: str, d: dict) -> str:
    if type(d["id"]) is not str:
        raise DataError(f"{where}: id must be a string, got {d['id']!r}")
    return d["id"]


def _gender(where: str, d: dict) -> str:
    if d["gender"] not in ("male", "female"):
        raise DataError(f"{where}: gender must be male or female, "
                        f"got {d['gender']!r}")
    return d["gender"]


def _entity_spans(where: str, spans, n_tokens: int) -> list:
    """``spans``, field entity_spans of a row, as (type, start, end)
    tuples, if each is [type, start, end] with a type in PII_TYPES and
    integers 0 <= start < end <= n_tokens."""
    if not isinstance(spans, list):
        raise DataError(f"{where}: entity_spans must be a list of spans")
    for sp in spans:
        if not (isinstance(sp, list) and len(sp) == 3 and sp[0] in PII_TYPES
                and type(sp[1]) is int and type(sp[2]) is int
                and 0 <= sp[1] < sp[2] <= n_tokens):
            raise DataError(f"{where}: entity span {sp!r} is not [type, "
                            f"start, end] with a type in {list(PII_TYPES)} "
                            f"and 0 <= start < end <= {n_tokens}")
    return [tuple(sp) for sp in spans]


def _finite(where: str, d: dict, key: str):
    """Field ``key`` of a row, if it is a finite number."""
    v = d[key]
    # a NaN fails the comparison; an int past float range passes it
    if type(v) not in (int, float) or not abs(v) < math.inf:
        raise DataError(f"{where}: {key} must be a finite number, got {v!r}")
    return v


def _load_world(path: Path, rows) -> WorldParams:
    """The world parameters of ``world.json`` at ``path``, from its checked
    rows: it must hold exactly one, whose values ``WorldParams`` accepts."""
    rows = list(rows)
    if len(rows) != 1:
        raise DataError(f"{path}: holds {len(rows)} rows, expected 1")
    try:
        return WorldParams(**rows[0][1])
    except (TypeError, ValueError) as e:     # ConfigError is a ValueError
        raise DataError(f"{path}: {e}") from e


def _load_speaker(where: str, d: dict, params: WorldParams) -> Speaker:
    """One speaker row; its id must be a string, its gender male or female,
    its base pitch a finite number and each PII lexicon entry a list of
    token ids under one of PII_TYPES."""
    lexicon = d["pii_lexicon"]
    if not isinstance(lexicon, dict):
        raise DataError(f"{where}: pii_lexicon must be an object of token "
                        f"id lists")
    for k in lexicon:
        if k not in PII_TYPES:
            raise DataError(f"{where}: pii_lexicon keys must be among "
                            f"{list(PII_TYPES)}, got {k!r}")
    return Speaker(
        id=_string_id(where, d), gender=_gender(where, d),
        embedding=_float_array(where, d, "embedding", (params.D,)),
        base_pitch_hz=_finite(where, d, "base_pitch_hz"),
        style=_float_array(where, d, "style", (params.V,)),
        pii_lexicon={k: _token_ids(where, f"pii_lexicon.{k}", v, params)
                     for k, v in lexicon.items()})


def _load_utterance(where: str, d: dict, params: WorldParams,
                    speaker_ids) -> Utterance:
    """One utterance row of a speaker among ``speaker_ids``; the id must be
    a string, the gender male or female, tokens ids in [0, V), each entity
    span within the tokens, the duration a finite number, and the
    per-frame arrays must have T = len(tokens) * frames_per_token rows."""
    fpt = d["frames_per_token"]
    if type(fpt) is not int or fpt < 1:
        raise DataError(f"{where}: frames_per_token must be a positive "
                        f"integer, got {fpt!r}")
    tokens = _token_ids(where, "tokens", d["tokens"], params)
    if type(d["speaker_id"]) is not str or d["speaker_id"] not in speaker_ids:
        raise DataError(f"{where}: speaker_id {d['speaker_id']!r} is not "
                        f"in speakers.jsonl")
    t = len(tokens) * fpt
    return Utterance(
        id=_string_id(where, d), speaker_id=d["speaker_id"],
        gender=_gender(where, d), duration_s=_finite(where, d, "duration_s"),
        tokens=tokens,
        entity_spans=_entity_spans(where, d["entity_spans"], len(tokens)),
        f0_hz=_float_array(where, d, "f0_hz", (t,)),
        p_norm=_float_array(where, d, "p_norm", (t,)),
        frames=_float_array(where, d, "frames", (t, params.F)),
        frames_per_token=fpt)


def _load_pool_entry(where: str, d: dict, params: WorldParams) -> PoolEntry:
    """One replacement pool row; its type must be one of PII_TYPES and its
    tokens a non-empty list of ids in [0, V): an empty entity would erase
    the span it replaces."""
    if d["type"] not in PII_TYPES:
        raise DataError(f"{where}: type must be one of {list(PII_TYPES)}, "
                        f"got {d['type']!r}")
    tokens = _token_ids(where, "tokens", d["tokens"], params)
    if not tokens:
        raise DataError(f"{where}: tokens must not be empty")
    return PoolEntry(type=d["type"], tokens=tokens)


def load_params(in_dir) -> WorldParams:
    """The world parameters of a dataset directory, from the text of its
    world.json alone, read and checked as ``load_dataset`` reads it."""
    path = Path(in_dir) / "world.json"
    return _load_world(path, _checked_rows(
        path, _parse_jsonl(path, path.read_bytes()), WorldParams))


def load_dataset(in_dir) -> Dataset:
    """Read a dataset directory.  The rows of all four JSON files come
    from the array cache when its digests match the files, and are parsed
    from the text otherwise, one JSON line per row.  Either way each row
    goes through ``_checked_rows`` and then its record's loader, and
    world.json must hold one row.  The dataset's ``sha256`` holds the
    digest of each file read or verified, each file hashed once."""
    src = Path(in_dir)
    digests = {}
    cached = _cached_rows(src, digests)

    def rows(name, record):
        path = src / name
        return _checked_rows(path, cached[name] if cached
                             else _parse_jsonl(path, _read(path, digests)),
                             record)

    params = _load_world(src / "world.json", rows("world.json", WorldParams))
    speakers = [_load_speaker(where, d, params)
                for where, d in rows("speakers.jsonl", Speaker)]
    speaker_ids = {s.id for s in speakers}
    utterances = [_load_utterance(where, d, params, speaker_ids)
                  for where, d in rows("utterances.jsonl", Utterance)]
    pool = [_load_pool_entry(where, d, params)
            for where, d in rows("replacement_pool.jsonl", PoolEntry)]
    return Dataset(params=params, speakers=speakers, utterances=utterances,
                   pool=pool, sha256=digests)
