"""Content anonymization: gazetteer PII detection, type-and-length
replacement matching, and generative re-synthesis of the edited spans.

The recognizer is a gazetteer lookup (token -> entity type); maximal runs
of consecutive same-type hits form one span.  Replacements are drawn from
a shared pool, matching entity type and token count, and the affected
frames are regenerated by the backbone while everything outside the spans
is left bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .backbone import BackboneModel, reconstruct
from .checkpoint import replace_text
from .errors import InputError, UnmatchedEntityError
from .worldgen import PII_TYPES, Dataset, PoolEntry, Utterance


@dataclass(frozen=True)
class EntitySpan:
    type: str
    token_start: int
    token_end: int              # half-open
    source_text: tuple = ()

    def __post_init__(self):
        if self.type not in PII_TYPES:
            raise InputError(f"unknown entity type {self.type!r}")
        if not self.token_start < self.token_end:
            raise InputError("span must satisfy token_start < token_end")

    @property
    def length(self) -> int:
        return self.token_end - self.token_start


class ReplacementPool:
    """Pool entries grouped by (type, length) for O(1) lookup."""

    def __init__(self, entries):
        self._by_type_len = {}
        self._by_type = {}
        for e in entries:
            self._by_type_len.setdefault((e.type, e.length), []).append(e)
            self._by_type.setdefault(e.type, []).append(e)

    def candidates(self, typ: str, length: int):
        return self._by_type_len.get((typ, length), [])

    def lengths_for(self, typ: str):
        return sorted({e.length for e in self._by_type.get(typ, [])})


@dataclass
class EditPlan:
    utterance_id: str
    edits: list = field(default_factory=list)  # (EntitySpan, replacement tokens)

    def __post_init__(self):
        spans = sorted((s for s, _ in self.edits), key=lambda s: s.token_start)
        for a, b in zip(spans, spans[1:]):
            if a.token_end > b.token_start:
                raise InputError("edit spans must be non-overlapping")
        self.edits = sorted(self.edits, key=lambda e: e[0].token_start)


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


def apply_edits(backbone: BackboneModel, utt: Utterance, plan: EditPlan,
                s, steps: int, rng: np.random.Generator) -> Utterance:
    """Replace tokens and regenerate only the affected frames, voiced with
    identity ``s`` in ``steps``-step frame-flow solves.

    Equal-length replacements reuse the span's own pitch slice; a
    length-mismatched fallback resamples the slice to the new length and
    shifts the alignment.  Frames outside all spans stay bit-identical.
    All spans are regenerated by one ``reconstruct`` call; its frame noise
    is drawn in span order, as one call per span would draw it.
    """
    fpt = utt.frames_per_token
    tokens = list(utt.tokens)
    pieces_tokens = []
    pieces_frames = []
    pieces_f0 = []
    pieces_pn = []
    new_spans = []
    gen_tokens = []             # frame tokens of each span's replacement
    cursor = 0
    offset = 0  # token-index shift accumulated from length-mismatched edits
    for span, repl in plan.edits:
        if not (0 <= span.token_start < span.token_end <= len(tokens)):
            raise InputError(f"span {span} outside utterance bounds")
        # untouched stretch before the span
        pieces_tokens.append(tokens[cursor:span.token_start])
        pieces_frames.append(utt.frames[cursor * fpt:span.token_start * fpt])
        pieces_f0.append(utt.f0_hz[cursor * fpt:span.token_start * fpt])
        pieces_pn.append(utt.p_norm[cursor * fpt:span.token_start * fpt])
        src_pn = utt.p_norm[span.token_start * fpt:span.token_end * fpt]
        src_f0 = utt.f0_hz[span.token_start * fpt:span.token_end * fpt]
        n_new = len(repl) * fpt
        if len(repl) == span.length:
            new_pn, new_f0 = src_pn, src_f0
        else:
            pos = np.linspace(0, len(src_pn) - 1, n_new)
            new_pn = np.interp(pos, np.arange(len(src_pn)), src_pn)
            new_f0 = np.interp(pos, np.arange(len(src_f0)), src_f0)
        gen_tokens.append(np.repeat(repl, fpt))
        start = span.token_start + offset
        new_spans.append((span.type, start, start + len(repl)))
        offset += len(repl) - span.length
        pieces_tokens.append(list(repl))
        pieces_frames.append(None)          # filled from the one solve below
        pieces_f0.append(np.asarray(new_f0, dtype=float))
        pieces_pn.append(np.asarray(new_pn, dtype=float))
        cursor = span.token_end
    pieces_tokens.append(tokens[cursor:])
    pieces_frames.append(utt.frames[cursor * fpt:])
    pieces_f0.append(utt.f0_hz[cursor * fpt:])
    pieces_pn.append(utt.p_norm[cursor * fpt:])
    if gen_tokens:
        gen = reconstruct(backbone, np.concatenate(gen_tokens),
                          np.concatenate(pieces_pn[1::2]), s, steps, rng)
        ends = np.cumsum([len(t) for t in gen_tokens])[:-1]
        pieces_frames[1::2] = np.split(gen, ends)

    return replace(utt, tokens=[t for chunk in pieces_tokens for t in chunk],
                   entity_spans=new_spans, f0_hz=np.concatenate(pieces_f0),
                   p_norm=np.concatenate(pieces_pn),
                   frames=np.concatenate(pieces_frames, axis=0))


def corrupt_tokens(tokens, p_asr: float, vocab_size: int,
                   rng: np.random.Generator) -> list:
    """Recognition-error stand-in: substitute each token with probability p_asr."""
    out = list(tokens)
    for i in range(len(out)):
        if rng.random() < p_asr:
            out[i] = int(rng.integers(vocab_size))
    return out


def anonymize_content(backbone: BackboneModel, dataset: Dataset,
                      pool: ReplacementPool, gazetteer: dict,
                      steps: int, rng: np.random.Generator,
                      mapping: dict | None = None,
                      p_asr: float = 0.0):
    """detect -> match -> plan -> apply over every utterance.

    The edits are voiced with each speaker's pseudo-identity from
    ``mapping`` when one is given, else with the ground-truth speaker
    embedding.  With ``p_asr > 0`` detection and the output transcript run
    on a corrupted transcript, modeling an upstream recognizer in the
    cascade.  Unmatched entities are reported and left unedited; the run
    continues.
    """
    reports = []
    new_utts = []
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
        if mapping is None:
            s = dataset.speaker(u.speaker_id).embedding
        else:
            s = mapping[u.speaker_id][1]
        base = u if p_asr == 0 else replace(u, tokens=observed)
        new_utts.append(apply_edits(backbone, base,
                                    EditPlan(utterance_id=u.id, edits=edits),
                                    s, steps, rng) if edits else base)
        reports.append({
            "utterance_id": u.id,
            "spans": [[sp.type, sp.token_start, sp.token_end] for sp in spans],
            "replacements": [[sp.type, sp.token_start, repl]
                             for sp, repl in edits],
            "status": "ok" if not errors else "partial",
            "errors": errors,
        })
    out = Dataset(params=dataset.params, speakers=dataset.speakers,
                  utterances=new_utts, pool=dataset.pool)
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
