"""Privacy/utility evaluation: trial construction, speaker-level
enrollment, cosine scoring, EER, attacker models and utility probes."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .anonymizer import WeightStrategy, anonymize_speaker
from .checkpoint import replace_text
from .errors import DataError, InputError
from .worldgen import (Dataset, oracle_extract_speaker, oracle_recover_tokens,
                       token_error_rate)

log = logging.getLogger(__name__)

DURATION_WINDOW = (5.0, 15.0)   # seconds; acoustic trials' utterance lengths
GATHER_VALUES = 1 << 16         # embedding values one scoring gather holds


@dataclass(frozen=True, eq=False)
class Trials:
    """A trial list as three columns, one entry per trial: enrollment
    speaker ids, test utterance ids and labels (1 = target, 0 =
    nontarget)."""

    enroll: list = field(default_factory=list)
    test: list = field(default_factory=list)
    label: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.label)


def build_trials(dataset: Dataset, mode: str, rng: np.random.Generator) -> Trials:
    """Per enrollment utterance: two positives (same speaker) and two
    negatives (one sourced from a male, one from a female speaker).

    Acoustic mode keeps utterances with duration in ``DURATION_WINDOW``;
    content mode keeps PII-bearing utterances.  Negative sourcing falls
    back to any different speaker when the requested gender has no other
    speaker.
    """
    if mode not in ("acoustic", "content"):
        raise InputError(f"unknown trial mode {mode!r}")
    if mode == "acoustic":
        lo, hi = DURATION_WINDOW
        cands = [u for u in dataset.utterances if lo <= u.duration_s <= hi]
    else:
        cands = [u for u in dataset.utterances if u.has_pii]
    if not cands:
        log.warning("trial construction: no candidate utterances after "
                    "%s filtering", mode)
        return Trials()
    genders = {s.id: s.gender for s in dataset.speakers}
    if len(set(genders.values())) < 2:
        raise InputError("dataset must contain both genders")
    by_speaker = {}
    for u in cands:
        by_speaker.setdefault(u.speaker_id, []).append(u)
    by_gender = {g: [u for u in cands if genders[u.speaker_id] == g]
                 for g in ("male", "female")}
    neg_pools = {}
    for sid in by_speaker:
        for gender, pool in by_gender.items():
            # only the speaker's own gender list holds its utterances
            if gender == genders[sid]:
                pool = [u for u in pool if u.speaker_id != sid]
            neg_pools[sid, gender] = pool or [u for u in cands
                                              if u.speaker_id != sid]

    enroll_ids, test_ids, labels = [], [], []
    for enroll in cands:
        same = [u for u in by_speaker[enroll.speaker_id] if u.id != enroll.id]
        if not same:
            log.warning("speaker %s has a single candidate utterance; "
                        "skipping enrollment utterance %s",
                        enroll.speaker_id, enroll.id)
            continue
        if len(same) >= 2:
            picks = rng.choice(len(same), size=2, replace=False)
            positives = [same[int(i)] for i in picks]
        else:
            positives = [same[0], same[0]]
        negatives = []
        for gender in ("male", "female"):
            neg_pool = neg_pools[enroll.speaker_id, gender]
            if not neg_pool:
                raise InputError("no different-speaker utterance available "
                                 "for negative trials")
            negatives.append(neg_pool[int(rng.integers(len(neg_pool)))])
        enroll_ids += [enroll.speaker_id] * 4
        test_ids += [u.id for u in positives + negatives]
        labels += [1, 1, 0, 0]
    return Trials(enroll_ids, test_ids, np.array(labels, dtype=np.int64))


def enrollment_embedding(utterance_embeddings) -> np.ndarray:
    """Arithmetic mean of utterance-level embeddings; no re-normalization."""
    embs = np.asarray(utterance_embeddings, dtype=float)
    if embs.ndim != 2 or embs.shape[0] == 0:
        raise InputError("need at least one utterance embedding")
    return embs.mean(axis=0)


# a norm below this has a subnormal square, so it and the scores it enters
# lose precision: vectors near 1e-161 can score 0.3 off their cosine
_NORM_TINY = np.sqrt(np.finfo(float).tiny)


def cosine_score(a, b) -> float:
    """Cosine similarity; zero vectors score 0 by convention.  A finite,
    nonzero vector whose squares under- or overflow is first divided by
    its largest magnitude (see ``_scaled_rows``)."""
    (a, b), (na, nb) = _scaled_rows(np.array([a, b], dtype=float))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _rows(embs: dict, ids, kind: str) -> tuple:
    """The embeddings of ``embs`` stacked as rows, and the row of each id
    in ``ids``; an id ``embs`` lacks, or the first id in ``ids`` whose
    embedding is not finite, is a DataError."""
    index = {k: i for i, k in enumerate(embs)}
    try:
        at = np.fromiter(map(index.__getitem__, ids), dtype=np.intp,
                         count=len(ids))
    except KeyError as e:
        raise DataError(f"trial list names unknown {kind} "
                        f"{e.args[0]!r}") from e
    rows = np.stack(list(embs.values()))
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1)[at])
    if bad.size:
        raise DataError(f"embedding of trial-list {kind} {ids[bad[0]]!r} "
                        f"is not finite")
    return rows, at


def _dots(a, b) -> np.ndarray:
    """Row-wise dot products as a stacked (n, 1, D) @ (n, D, 1) matmul,
    which takes numpy's vector-dot path: each equals ``np.dot`` of its
    two rows bit for bit.  An einsum, a row-wise product sum or one GEMM
    sums in another order and moves results in the last bits."""
    return (a[:, None, :] @ b[:, :, None]).reshape(-1)


def _scaled_rows(x) -> tuple:
    """The rows of ``x`` as they are scored, and their norms.  A finite,
    nonzero row whose norm comes out below ``_NORM_TINY`` or inf is
    divided by its largest magnitude first; every other row is kept."""
    n = np.sqrt(_dots(x, x))
    odd = np.flatnonzero(~((n >= _NORM_TINY) & (n < np.inf)))
    if odd.size:
        big = np.abs(x[odd]).max(axis=1)    # nan or inf for a non-finite row
        keep = np.isfinite(big) & (big > 0)
        odd, big = odd[keep], big[keep]
        x = x.copy()
        x[odd] /= big[:, None]
        n[odd] = np.sqrt(_dots(x[odd], x[odd]))
    return x, n


def score_trials(trials: Trials, enroll_embs: dict,
                 test_embs: dict) -> np.ndarray:
    """``cosine_score`` of each trial, bit for bit, over columns.

    Each embedding's norm is taken once; the trials' dot products are
    taken a chunk of trials at a time, so that one gather of their rows
    holds at most ``GATHER_VALUES`` values (4096 trials at D = 16).  A
    speaker, then an utterance, whose embedding is not finite is a
    DataError naming the first such id in trial order."""
    enroll, ia = _rows(enroll_embs, trials.enroll, "speaker")
    test, ib = _rows(test_embs, trials.test, "utterance")
    (enroll, na), (test, nb) = _scaled_rows(enroll), _scaled_rows(test)
    scores = np.zeros(len(trials))
    chunk = max(1, GATHER_VALUES // enroll.shape[1])
    for lo in range(0, len(trials), chunk):
        a, b = ia[lo:lo + chunk], ib[lo:lo + chunk]
        ok = (na[a] != 0.0) & (nb[b] != 0.0)
        a, b = a[ok], b[ok]
        scores[lo:lo + chunk][ok] = _dots(enroll[a], test[b]) / (na[a] * nb[b])
    return scores


def compute_eer(scores, labels) -> float:
    """EER percent: accept iff score >= threshold; sweep thresholds over the
    sorted unique scores plus the infinities and linearly interpolate the
    FAR/FRR crossing.  Can exceed 50% when score orientation is inverted.

    One stable sort and cumulative per-label counts give FAR and FRR at
    every threshold as integer counts over ``n_non``/``n_tar``, so the
    cost is O(n log n)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputError("scores and labels must be equal-length 1-D")
    n_tar = int(np.sum(labels == 1))
    n_non = int(np.sum(labels == 0))
    if n_tar == 0 or n_non == 0:
        raise InputError("both target and nontarget trials are required")
    order = np.argsort(scores, kind="stable")
    s, lab = scores[order], labels[order]
    first = np.unique(s, return_index=True)[1]
    # trials strictly below each unique threshold, by label
    non_below = np.concatenate(([0], np.cumsum(lab == 0)))[first]
    tar_below = np.concatenate(([0], np.cumsum(lab == 1)))[first]
    far = np.concatenate(([n_non], n_non - non_below, [0])) / n_non
    frr = np.concatenate(([0], tar_below, [n_tar])) / n_tar
    d = far - frr   # goes from +1 at -inf to -1 at +inf
    hit = (d[:-1] == 0.0) | ((d[:-1] > 0.0) & (d[1:] <= 0.0))
    if not hit.any():
        return 100.0 * far[-1]
    k = int(np.argmax(hit))
    if d[k] == 0.0:
        return 100.0 * far[k]
    if d[k + 1] == 0.0:
        return 100.0 * far[k + 1]
    alpha = d[k] / (d[k] - d[k + 1])
    return 100.0 * (far[k] + alpha * (far[k + 1] - far[k]))


# ---------------------------------------------------------------------------
# embeddings for the two verification views

def acoustic_embeddings(dataset: Dataset) -> dict:
    return {u.id: oracle_extract_speaker(u, dataset.params)
            for u in dataset.utterances}


def content_embedding(tokens, vocab_size: int) -> np.ndarray:
    """L2-normalized token-frequency vector of one transcript."""
    v = np.bincount(np.asarray(tokens, dtype=int), minlength=vocab_size).astype(float)
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def content_speaker_model(transcripts_by_speaker: dict, vocab_size: int) -> dict:
    """Per-speaker L2-normalized token-frequency centroids."""
    if len(transcripts_by_speaker) < 2:
        raise InputError("need at least 2 speakers")
    out = {}
    for sid, transcripts in transcripts_by_speaker.items():
        if not transcripts:
            raise InputError(f"speaker {sid} has no transcripts")
        vecs = [content_embedding(t, vocab_size) for t in transcripts]
        centroid = np.mean(vecs, axis=0)
        n = np.linalg.norm(centroid)
        out[sid] = centroid / n if n > 0 else centroid
    return out


# ---------------------------------------------------------------------------
# attacker models

@dataclass
class EvalReport:
    """One attacker's results; a_eer/c_eer is None for the mode not run.
    ``trials`` and their ``scores`` are kept for the trial and score
    files; ``to_dict`` leaves them out."""

    attacker: str
    a_eer: float | None = None
    c_eer: float | None = None
    token_error_rate: float | None = None
    secs_proxy: float | None = None
    counts: dict = field(default_factory=dict)
    trials: Trials = field(default_factory=Trials)
    scores: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def to_dict(self) -> dict:
        return {"attacker": self.attacker, "a_eer": self.a_eer,
                "c_eer": self.c_eer,
                "utility": {"token_error_rate": self.token_error_rate,
                            "secs_proxy": self.secs_proxy},
                "counts": self.counts}


def run_attack(dataset_orig: Dataset, dataset_anon: Dataset, mapping,
               attacker: str, mode: str, rng: np.random.Generator,
               anonymizer=None, strategy: WeightStrategy | None = None,
               steps: int = 16, trials: Trials | None = None) -> EvalReport:
    """Score a trial list under one attacker model.

    ignorant: enrollment from original-domain embeddings, test on the
    anonymized side.  lazy_informed: enrollment re-anonymized with the same
    strategy (identity ODEs of ``steps`` steps) under fresh randomness,
    then enrolled.  The utility probes run in acoustic mode when a
    ``mapping`` is given.
    """
    if attacker not in ("ignorant", "lazy_informed"):
        raise InputError(f"unknown attacker {attacker!r}")
    if trials is None:
        trials = build_trials(dataset_orig, mode, rng)
    if not trials:
        raise InputError("empty trial list")
    vocab = dataset_orig.params.V

    if mode == "acoustic":
        test_embs = acoustic_embeddings(dataset_anon)
        orig_utt_embs = acoustic_embeddings(dataset_orig)
        by_spk = dataset_orig.by_speaker()
        enroll_embs = {}
        if attacker == "ignorant":
            for sid, utts in by_spk.items():
                enroll_embs[sid] = enrollment_embedding(
                    [orig_utt_embs[u.id] for u in utts])
        else:
            if anonymizer is None or strategy is None:
                raise InputError("lazy_informed needs the anonymization "
                                 "system (model + strategy)")
            # each enrollment utterance is re-anonymized independently;
            # by_speaker() follows the speaker order, so speaker k's own
            # embedding is pool row k
            order = [(k, u) for k, utts in enumerate(by_spk.values())
                     for u in utts]
            s_anon, _ = anonymize_speaker(
                anonymizer, np.array([orig_utt_embs[u.id] for _, u in order]),
                strategy, rng, steps,
                pool=[s.embedding for s in dataset_orig.speakers],
                exclude=[k for k, _ in order])
            ends = np.cumsum([len(utts) for utts in by_spk.values()])
            for sid, chunk in zip(by_spk, np.split(s_anon, ends[:-1])):
                enroll_embs[sid] = enrollment_embedding(chunk)
    else:
        by_spk = dataset_orig.by_speaker()
        enroll_embs = content_speaker_model(
            {sid: [u.tokens for u in utts] for sid, utts in by_spk.items()},
            vocab)
        test_embs = {u.id: content_embedding(u.tokens, vocab)
                     for u in dataset_anon.utterances}

    scores = score_trials(trials, enroll_embs, test_embs)
    eer = compute_eer(scores, trials.label)
    report = EvalReport(attacker=attacker,
                        a_eer=eer if mode == "acoustic" else None,
                        c_eer=eer if mode == "content" else None,
                        counts={f"{mode}_trials": len(trials),
                                f"{mode}_targets": int(trials.label.sum()),
                                "speakers": len(dataset_orig.speakers)},
                        trials=trials, scores=scores)
    if mode == "acoustic" and mapping is not None:
        ter, secs = utility_probes(dataset_anon, dataset_anon.params, mapping)
        report.token_error_rate = ter
        report.secs_proxy = secs
    return report


def utility_probes(dataset_anon: Dataset, params, mapping) -> tuple:
    """(token error rate percent, mean cosine between the oracle-extracted
    speaker of the anonymized frames and the intended pseudo-identity)."""
    ters = []
    secs = []
    for u in dataset_anon.utterances:
        s_anon = mapping[u.speaker_id][1]
        rec = oracle_recover_tokens(u.frames, u.p_norm, s_anon, params)
        ters.append(token_error_rate(rec, u.tokens, u.frames_per_token))
        secs.append(cosine_score(oracle_extract_speaker(u, params), s_anon))
    return 100.0 * float(np.mean(ters)), float(np.mean(secs))


# ---------------------------------------------------------------------------
# trial / score file formats

def save_trials(trials: Trials, path) -> None:
    replace_text(path, "".join(
        f"{sid}\t{uid}\t{label}\n" for sid, uid, label
        in zip(trials.enroll, trials.test, trials.label.tolist())))


def _raise_bad_row(path, lines) -> None:
    """Raise the DataError that names the first malformed trial row."""
    for n, line in enumerate(lines, start=1):
        try:
            _, _, lab = line.split("\t")
            label = int(lab)
        except ValueError as e:
            raise DataError(f"{path}:{n}: bad trial row: {e}") from e
        if label not in (0, 1):
            raise DataError(f"{path}:{n}: trial label must be 0 or 1, "
                            f"got {label}")


def load_trials(path) -> Trials:
    """Read a trial file into columns: the rows are split in one pass, and
    each distinct label text is parsed once by ``int``.  A malformed file
    is walked row by row only to name its first bad row."""
    lines = Path(path).read_text().splitlines()
    cols = "\t".join(lines).split("\t") if lines else []
    labels = cols[2::3]
    try:
        value = {lab: int(lab) for lab in set(labels)}
    except ValueError:
        value = None
    if (set(map(str.count, lines, repeat("\t"))) - {2} or value is None
            or set(value.values()) - {0, 1}):
        _raise_bad_row(path, lines)
    return Trials(cols[0::3], cols[1::3],
                  np.fromiter(map(value.__getitem__, labels), dtype=np.int64,
                              count=len(labels)))


def save_scores(trials: Trials, scores, path) -> None:
    replace_text(path, "".join(
        f"{sid}\t{uid}\t{label}\t{score:.9g}\n" for sid, uid, label, score
        in zip(trials.enroll, trials.test, trials.label.tolist(),
               scores.tolist())))
