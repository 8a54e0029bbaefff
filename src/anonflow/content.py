"""Content anonymization: gazetteer PII detection, type-and-length
replacement matching, and generative re-synthesis of the edited spans.

The recognizer is a gazetteer lookup (token -> entity type); maximal runs
of consecutive same-type hits form one span, so the spans come sorted,
disjoint and within the tokens, and the edits are planned from them as
they come, with the entity types the dataset loader checked against
``PII_TYPES``.  Replacements are drawn from a shared pool, matching entity
type and token count, and the affected frames are regenerated by the
backbone, one solve per run of a speaker's edited utterances, while
everything outside the spans is left bit-identical.
``anonymize_content_stream`` makes every random draw first and then
yields the utterances from a generator that solves one run at a time, as
the dataset writer reads them; ``anonymize_content`` is the same stream in
a list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .backbone import (RUN_FRAMES, BackboneModel, NoiseReplay, frame_runs,
                       reconstruct)
from .checkpoint import replace_text
from .errors import DivergenceError, InputError, UnmatchedEntityError
from .worldgen import Dataset, PoolEntry, Utterance


@dataclass(frozen=True)
class EntitySpan:
    type: str
    token_start: int
    token_end: int              # half-open
    source_text: tuple = ()

    @property
    def length(self) -> int:
        return self.token_end - self.token_start


class ReplacementPool:
    """Pool entries grouped by (type, length) for O(1) lookup."""

    def __init__(self, entries):
        self._by_type_len = {}
        for e in entries:
            self._by_type_len.setdefault((e.type, e.length), []).append(e)

    def candidates(self, typ: str, length: int):
        return self._by_type_len.get((typ, length), [])

    def lengths_for(self, typ: str):
        return sorted(n for t, n in self._by_type_len if t == typ)


def detect_pii(tokens, gazetteer: dict) -> list:
    """Maximal runs of consecutive same-type gazetteer hits become one span."""
    spans = []
    i = 0
    n = len(tokens)
    while i < n:
        typ = gazetteer.get(tokens[i])
        if typ is None:
            i += 1
            continue
        j = i + 1
        while j < n and gazetteer.get(tokens[j]) == typ:
            j += 1
        spans.append(EntitySpan(type=typ, token_start=i, token_end=j,
                                source_text=tuple(tokens[i:j])))
        i = j
    return spans


def match_replacement(span: EntitySpan, pool: ReplacementPool,
                      rng: np.random.Generator) -> list:
    """Uniform draw among same-(type, length) entries, excluding an exact
    self-match; falls back to the nearest length of the same type
    (ties -> shorter)."""
    cands = [e for e in pool.candidates(span.type, span.length)
             if tuple(e.tokens) != span.source_text]
    if not cands:
        lengths = [l for l in pool.lengths_for(span.type) if l != span.length]
        if not lengths:
            raise UnmatchedEntityError(
                f"no {span.type} replacement available", span=span)
        best = min(lengths, key=lambda l: (abs(l - span.length), l))
        cands = [e for e in pool.candidates(span.type, best)
                 if tuple(e.tokens) != span.source_text]
        if not cands:
            raise UnmatchedEntityError(
                f"no {span.type} replacement available", span=span)
    return list(cands[int(rng.integers(len(cands)))].tokens)


def _span_pitch(utt: Utterance, span: EntitySpan, repl) -> tuple:
    """(p_norm, f0_hz) of the frames that replace ``span`` with ``repl``:
    the span's own slice for an equal-length replacement, else the slice
    resampled to the new length."""
    fpt = utt.frames_per_token
    src = slice(span.token_start * fpt, span.token_end * fpt)
    src_pn, src_f0 = utt.p_norm[src], utt.f0_hz[src]
    if len(repl) == span.length:
        return src_pn, src_f0
    pos = np.linspace(0, len(src_pn) - 1, len(repl) * fpt)
    return (np.interp(pos, np.arange(len(src_pn)), src_pn),
            np.interp(pos, np.arange(len(src_f0)), src_f0))


def span_inputs(utt: Utterance, edits) -> tuple:
    """The frame tokens and normalized pitch of the frames that replace
    the spans of ``edits``, (span, replacement tokens) pairs in span order:
    the inputs of the frame-flow solve whose output ``apply_edits`` takes.
    There must be an edit."""
    toks = [np.repeat(repl, utt.frames_per_token) for _, repl in edits]
    pn = [_span_pitch(utt, span, repl)[0] for span, repl in edits]
    return np.concatenate(toks), np.concatenate(pn)


def apply_edits(utt: Utterance, edits, frames) -> Utterance:
    """Replace tokens and splice in ``frames``, the regenerated frames of
    all spans in span order (a solve over ``span_inputs``).

    Equal-length replacements reuse the span's own pitch slice; a
    length-mismatched fallback resamples the slice to the new length and
    shifts the alignment.  Frames outside all spans stay bit-identical.
    """
    fpt = utt.frames_per_token
    tokens = list(utt.tokens)
    ends = np.cumsum([len(repl) * fpt for _, repl in edits], dtype=int)
    frames = np.asarray(frames, dtype=float)
    want = (int(ends[-1]) if len(ends) else 0, utt.frames.shape[1])
    if frames.shape != want:
        raise InputError(f"expected {want} span frames, got {frames.shape}")
    out_tokens, out_frames, out_f0, out_pn, new_spans = [], [], [], [], []
    cursor = 0
    offset = 0  # token-index shift accumulated from length-mismatched edits
    for (span, repl), gen in zip(edits, np.split(frames, ends[:-1])):
        new_pn, new_f0 = _span_pitch(utt, span, repl)
        keep = slice(cursor * fpt, span.token_start * fpt)
        out_tokens += tokens[cursor:span.token_start] + list(repl)
        out_frames += [utt.frames[keep], gen]
        out_f0 += [utt.f0_hz[keep], new_f0]
        out_pn += [utt.p_norm[keep], new_pn]
        start = span.token_start + offset
        new_spans.append((span.type, start, start + len(repl)))
        offset += len(repl) - span.length
        cursor = span.token_end
    tail = slice(cursor * fpt, None)
    return replace(utt, tokens=out_tokens + tokens[cursor:],
                   entity_spans=new_spans,
                   f0_hz=np.concatenate(out_f0 + [utt.f0_hz[tail]]),
                   p_norm=np.concatenate(out_pn + [utt.p_norm[tail]]),
                   frames=np.concatenate(out_frames + [utt.frames[tail]],
                                         axis=0))


def corrupt_tokens(tokens, p_asr: float, vocab_size: int,
                   rng: np.random.Generator) -> list:
    """Recognition-error stand-in: substitute each token with probability p_asr."""
    out = list(tokens)
    for i in range(len(out)):
        if rng.random() < p_asr:
            out[i] = int(rng.integers(vocab_size))
    return out


def anonymize_content_stream(backbone: BackboneModel, dataset: Dataset,
                             pool: ReplacementPool, gazetteer: dict,
                             steps: int, rng: np.random.Generator,
                             mapping: dict | None, p_asr: float):
    """detect -> match -> plan -> apply over every utterance.

    The edits are voiced with each speaker's pseudo-identity from
    ``mapping`` when one is given, else with the ground-truth speaker
    embedding.  With ``p_asr > 0`` detection and the output transcript run
    on a corrupted transcript, modeling an upstream recognizer in the
    cascade.  Unmatched entities are reported and left unedited; the run
    continues.  Returns (edited dataset, edit reports); the reports are
    whole when this returns, and the dataset's utterances are a generator,
    to be read once, as ``save_dataset`` does.

    Each utterance draws its transcript errors, its replacements and then
    its span noise, in utterance order, before this returns; the noise is
    dropped once drawn (``NoiseReplay``), and no solve uses the generator.
    The spans are regenerated by one ``reconstruct`` per run of adjacent
    edited utterances of one speaker, cut before it would pass
    ``RUN_FRAMES`` frames, from the noise drawn again.  The generator yields
    the utterances in dataset order: it solves each run in turn and keeps
    the run's span frames until it yields each of its utterances, assembled
    by ``apply_edits``; so only one run's noise and frames are held at a
    time.
    """
    reports = []
    bases = []      # each utterance as observed, before its edits
    edited = []     # (index in bases, edits, frame tokens, p_norm, noise mark)
    noise = NoiseReplay(rng)
    for u in dataset.utterances:
        observed = (corrupt_tokens(u.tokens, p_asr, dataset.params.V, rng)
                    if p_asr > 0 else list(u.tokens))
        spans = detect_pii(observed, gazetteer)
        edits = []
        errors = []
        for span in spans:
            try:
                edits.append((span, match_replacement(span, pool, rng)))
            except UnmatchedEntityError as e:
                errors.append({"span": [span.type, span.token_start,
                                        span.token_end], "error": str(e)})
        base = u if p_asr == 0 else replace(u, tokens=observed)
        if edits:
            toks, pn = span_inputs(base, edits)
            edited.append((len(bases), edits, toks, pn,
                           noise.skip((len(toks), dataset.params.F))))
        bases.append(base)
        reports.append({
            "utterance_id": u.id,
            "spans": [[sp.type, sp.token_start, sp.token_end] for sp in spans],
            "replacements": [[sp.type, sp.token_start, repl]
                             for sp, repl in edits],
            "status": "ok" if not errors else "partial",
            "errors": errors,
        })

    def assembled():
        i = 0                       # the next utterance to yield
        for run in frame_runs([bases[e[0]].speaker_id for e in edited],
                              [len(e[2]) for e in edited], RUN_FRAMES):
            at, edit_lists, toks, pns, marks = zip(*(edited[j] for j in run))
            sid = bases[at[0]].speaker_id
            s = (dataset.speaker(sid).embedding if mapping is None
                 else mapping[sid][1])
            try:
                frames = reconstruct(backbone, np.concatenate(toks),
                                     np.concatenate(pns), s, steps,
                                     np.concatenate([noise.redraw(m)
                                                     for m in marks]))
            except DivergenceError as e:
                raise DivergenceError(
                    f"utterances {bases[at[0]].id}..{bases[at[-1]].id}: "
                    f"{e}", step=e.step) from e
            ends = np.cumsum([len(t) for t in toks])[:-1]
            for k, e, f in zip(at, edit_lists, np.split(frames, ends)):
                yield from bases[i:k]
                yield apply_edits(bases[k], e, f)
                i = k + 1
        yield from bases[i:]

    out = Dataset(params=dataset.params, speakers=dataset.speakers,
                  utterances=assembled(), pool=dataset.pool)
    return out, reports


def anonymize_content(backbone: BackboneModel, dataset: Dataset,
                      pool: ReplacementPool, gazetteer: dict,
                      steps: int, rng: np.random.Generator,
                      mapping: dict | None, p_asr: float):
    """``anonymize_content_stream`` with the edited utterances in a list."""
    out, reports = anonymize_content_stream(backbone, dataset, pool,
                                            gazetteer, steps, rng,
                                            mapping=mapping, p_asr=p_asr)
    out.utterances = list(out.utterances)
    return out, reports


def build_gazetteer(dataset: Dataset) -> dict:
    """token -> type map covering every lexicon and pool entity in the world."""
    gaz = {}
    for s in dataset.speakers:
        for typ, toks in s.pii_lexicon.items():
            for tok in toks:
                gaz[tok] = typ
    for e in dataset.pool:
        for tok in e.tokens:
            gaz[tok] = e.type
    return gaz


def save_gazetteer(gaz: dict, path) -> None:
    replace_text(path, "".join(
        json.dumps({"token": int(tok), "type": gaz[tok]}) + "\n"
        for tok in sorted(gaz)))


def save_edit_reports(reports, path) -> None:
    replace_text(path, "".join(json.dumps(r) + "\n" for r in reports))
