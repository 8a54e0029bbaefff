"""Privacy/utility evaluation: trial construction, speaker-level
enrollment, cosine scoring, EER, attacker models and utility probes."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .anonymizer import WeightStrategy, anonymize_speaker
from .checkpoint import replace_text
from .errors import DataError, InputError
from .worldgen import (Dataset, oracle_extract_speaker, oracle_recover_tokens,
                       token_error_rate)

log = logging.getLogger(__name__)

DURATION_WINDOW = (5.0, 15.0)   # seconds; acoustic trials' utterance lengths


@dataclass(frozen=True)
class Trial:
    enroll_speaker_id: str
    test_utterance_id: str
    label: int   # 1 = target, 0 = nontarget


def build_trials(dataset: Dataset, mode: str, rng: np.random.Generator) -> list:
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
        return []
    genders = {s.id: s.gender for s in dataset.speakers}
    if len(set(genders.values())) < 2:
        raise InputError("dataset must contain both genders")
    by_speaker = {}
    for u in cands:
        by_speaker.setdefault(u.speaker_id, []).append(u)
    neg_pools = {}
    for sid in by_speaker:
        others = [u for u in cands if u.speaker_id != sid]
        for gender in ("male", "female"):
            neg_pools[sid, gender] = [u for u in others
                                      if genders[u.speaker_id] == gender] or others

    trials = []
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
        for pos in positives:
            trials.append(Trial(enroll.speaker_id, pos.id, 1))
        for gender in ("male", "female"):
            neg_pool = neg_pools[enroll.speaker_id, gender]
            if not neg_pool:
                raise InputError("no different-speaker utterance available "
                                 "for negative trials")
            neg = neg_pool[int(rng.integers(len(neg_pool)))]
            trials.append(Trial(enroll.speaker_id, neg.id, 0))
    return trials


def enrollment_embedding(utterance_embeddings) -> np.ndarray:
    """Arithmetic mean of utterance-level embeddings; no re-normalization."""
    embs = np.asarray(utterance_embeddings, dtype=float)
    if embs.ndim != 2 or embs.shape[0] == 0:
        raise InputError("need at least one utterance embedding")
    return embs.mean(axis=0)


def cosine_score(a, b) -> float:
    """Cosine similarity; zero vectors score 0 by convention."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _norms(embs: dict, ids, kind: str) -> dict:
    """Norm of each embedding named in ``ids``, computed once per id."""
    try:
        return {i: np.linalg.norm(embs[i]) for i in dict.fromkeys(ids)}
    except KeyError as e:
        raise DataError(f"trial list names unknown {kind} "
                        f"{e.args[0]!r}") from e


def score_trials(trials, enroll_embs: dict, test_embs: dict):
    """``cosine_score`` of each trial, with each embedding's norm taken once.

    The per-trial ``np.dot`` is kept on purpose: a batched einsum or GEMM
    sums in another order and moves scores in the last bits.
    """
    na = _norms(enroll_embs, (t.enroll_speaker_id for t in trials), "speaker")
    nb = _norms(test_embs, (t.test_utterance_id for t in trials), "utterance")
    scores = []
    for t in trials:
        a, b = t.enroll_speaker_id, t.test_utterance_id
        if na[a] == 0.0 or nb[b] == 0.0:
            scores.append(0.0)
        else:
            scores.append(float(np.dot(enroll_embs[a], test_embs[b])
                                / (na[a] * nb[b])))
    labels = [t.label for t in trials]
    return scores, labels


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
    trials: list = field(default_factory=list)
    scores: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"attacker": self.attacker, "a_eer": self.a_eer,
                "c_eer": self.c_eer,
                "utility": {"token_error_rate": self.token_error_rate,
                            "secs_proxy": self.secs_proxy},
                "counts": self.counts}


def run_attack(dataset_orig: Dataset, dataset_anon: Dataset, mapping,
               attacker: str, mode: str, rng: np.random.Generator,
               anonymizer=None, strategy: WeightStrategy | None = None,
               steps: int = 16, trials=None) -> EvalReport:
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

    scores, labels = score_trials(trials, enroll_embs, test_embs)
    eer = compute_eer(scores, labels)
    report = EvalReport(attacker=attacker,
                        a_eer=eer if mode == "acoustic" else None,
                        c_eer=eer if mode == "content" else None,
                        counts={f"{mode}_trials": len(trials),
                                f"{mode}_targets": int(sum(labels)),
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

def save_trials(trials, path) -> None:
    replace_text(path, "".join(
        f"{t.enroll_speaker_id}\t{t.test_utterance_id}\t{t.label}\n"
        for t in trials))


def load_trials(path) -> list:
    out = []
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        try:
            sid, uid, lab = line.split("\t")
            label = int(lab)
        except ValueError as e:
            raise DataError(f"{path}:{n}: bad trial row: {e}") from e
        if label not in (0, 1):
            raise DataError(f"{path}:{n}: trial label must be 0 or 1, "
                            f"got {label}")
        out.append(Trial(sid, uid, label))
    return out


def save_scores(trials, scores, path) -> None:
    replace_text(path, "".join(
        f"{t.enroll_speaker_id}\t{t.test_utterance_id}\t{t.label}\t{s:.9g}\n"
        for t, s in zip(trials, scores)))
