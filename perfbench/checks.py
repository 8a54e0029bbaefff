"""Output checks run on every artifact the benchmark's CLI commands write.

Each check returns ``None`` when the artifact is correct and a one-line
reason when it is not.  The EER reference and the file readers here are
independent of anonflow: they parse the written files directly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def read_jsonl(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def reference_eer(scores, labels) -> float:
    """EER percent by one sort and cumulative counts.

    Same definition as the program's: accept iff score >= threshold, the
    thresholds are -inf, the sorted unique scores and +inf, and the FAR/FRR
    crossing is interpolated linearly.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    order = np.argsort(scores, kind="stable")
    s, lab = scores[order], labels[order]
    uniq_first = np.unique(s, return_index=True)[1]
    n_tar = int(np.sum(lab == 1))
    n_non = int(np.sum(lab == 0))
    # trials strictly below each unique threshold, by label
    non_below = np.concatenate(([0], np.cumsum(lab == 0)))[uniq_first]
    tar_below = np.concatenate(([0], np.cumsum(lab == 1)))[uniq_first]
    far = np.concatenate(([n_non], n_non - non_below, [0])) / n_non
    frr = np.concatenate(([0], tar_below, [n_tar])) / n_tar
    d = far - frr
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


def check_eer(eval_dir, key: str, n_trials: int | None = None):
    """report.json's ``key`` equals the reference EER of scores.tsv to 1e-9."""
    eval_dir = Path(eval_dir)
    report = json.loads((eval_dir / "report.json").read_text())
    rows = [line.split("\t")
            for line in (eval_dir / "scores.tsv").read_text().splitlines()]
    if n_trials is not None and len(rows) != n_trials:
        return f"{eval_dir.name}: {len(rows)} scored trials, expected {n_trials}"
    labels = [int(r[2]) for r in rows]
    scores = [float(r[3]) for r in rows]
    if not all(math.isfinite(x) for x in scores):
        return f"{eval_dir.name}: non-finite score"
    got = report.get(key)
    if got is None:
        return f"{eval_dir.name}: report has no {key}"
    want = reference_eer(scores, labels)
    if abs(got - want) > 1e-9:
        return f"{eval_dir.name}: {key} {got!r} != reference {want!r}"
    return None


def check_utility(eval_dir):
    """The ignorant evaluation with a mapping ran its utility probes."""
    util = json.loads((Path(eval_dir) / "report.json").read_text())["utility"]
    vals = (util.get("token_error_rate"), util.get("secs_proxy"))
    if any(v is None or not math.isfinite(v) for v in vals):
        return f"{Path(eval_dir).name}: utility probes missing or non-finite"
    return None


def frame_shape(utt: dict) -> tuple:
    return (len(utt["frames"]), len(utt["frames"][0]))


def check_anonymize(world_utts: list, anon_dir, n_speakers: int, w: float):
    """Tokens, p_norm, alignment and frame counts survive anonymization,
    frames are finite, and the mapping has one row per speaker at weight w.

    ``world_utts`` are the source utterance records, each with its
    ``frame_shape``.
    """
    anon_dir = Path(anon_dir)
    anon = read_jsonl(anon_dir / "utterances.jsonl")
    if len(anon) != len(world_utts):
        return f"anonymize: {len(anon)} utterances, expected {len(world_utts)}"
    for src, out in zip(world_utts, anon):
        for k in ("id", "speaker_id", "tokens", "p_norm", "frames_per_token"):
            if src[k] != out[k]:
                return f"anonymize: {out['id']} changed {k}"
        n = len(src["tokens"]) * src["frames_per_token"]
        frames = np.asarray(out["frames"], dtype=float)
        if frames.shape != tuple(src["frame_shape"]) or frames.shape[0] != n:
            return f"anonymize: {out['id']} frame shape {frames.shape}"
        if not np.all(np.isfinite(frames)):
            return f"anonymize: {out['id']} has non-finite frames"
    rows = [line.split("\t")
            for line in (anon_dir / "mapping.tsv").read_text().splitlines()]
    if len(rows) != n_speakers or len({r[0] for r in rows}) != n_speakers:
        return f"anonymize: mapping has {len(rows)} rows, expected {n_speakers}"
    for sid, wtxt, stxt in rows:
        if float(wtxt) != w:
            return f"anonymize: {sid} mapped with w={wtxt}, expected {w}"
        if not all(math.isfinite(float(v)) for v in stxt.split(",")):
            return f"anonymize: {sid} has a non-finite pseudo-identity"
    return None


def check_seca(src_dir, out_dir):
    """Outside the edited spans, tokens and frames are bit-identical to the
    input; regenerated frames are finite."""
    src = read_jsonl(Path(src_dir) / "utterances.jsonl")
    out = read_jsonl(Path(out_dir) / "utterances.jsonl")
    edits = read_jsonl(Path(out_dir) / "edits.jsonl")
    if not len(src) == len(out) == len(edits):
        return "seca: utterance count changed"
    for u, v, e in zip(src, out, edits):
        fpt = u["frames_per_token"]
        ends = {(s[1]): s[2] for s in e["spans"]}
        cursor, offset = 0, 0
        for _, start, repl in sorted(e["replacements"], key=lambda r: r[1]):
            end = ends[start]
            if not _same(u, v, cursor, start, offset, fpt):
                return f"seca: {u['id']} changed outside its edits"
            lo, hi = (start + offset) * fpt, (start + offset + len(repl)) * fpt
            if not np.all(np.isfinite(np.asarray(v["frames"][lo:hi], dtype=float))):
                return f"seca: {u['id']} regenerated non-finite frames"
            offset += len(repl) - (end - start)
            cursor = end
        if not _same(u, v, cursor, len(u["tokens"]), offset, fpt):
            return f"seca: {u['id']} changed outside its edits"
        if len(v["frames"]) != (len(u["tokens"]) + offset) * fpt:
            return f"seca: {u['id']} frame count mismatch"
    return None


def _same(u, v, a, b, offset, fpt) -> bool:
    """Tokens [a, b) of u equal tokens [a+offset, b+offset) of v, and so do
    their frames, element for element."""
    return (u["tokens"][a:b] == v["tokens"][a + offset:b + offset]
            and u["frames"][a * fpt:b * fpt]
            == v["frames"][(a + offset) * fpt:(b + offset) * fpt])


def check_loss_trace(path):
    """Every logged loss and learning rate of a training trace is finite."""
    trace = read_jsonl(path)
    if not trace:
        return f"{Path(path).name}: empty trace"
    for t in trace:
        for k, v in t.items():
            if k != "step" and not math.isfinite(v):
                return f"{Path(path).name}: non-finite {k} at step {t['step']}"
    return None


def check_tensors(name: str, tensors: dict, shapes: dict):
    """A loaded model's tensors are finite and have the expected shapes."""
    for k, v in tensors.items():
        if not np.all(np.isfinite(v)):
            return f"{name}: non-finite tensor {k}"
    for k, shape in shapes.items():
        if tensors[k].shape != shape:
            return f"{name}: {k} has shape {tensors[k].shape}, expected {shape}"
    return None


def check_same_manifests(dirs_a: dict, dirs_b: dict):
    """Commands rerun with the same seeds hash to the same outputs."""
    for name, a in dirs_a.items():
        ma = json.loads((Path(a) / "manifest.json").read_text())
        mb = json.loads((Path(dirs_b[name]) / "manifest.json").read_text())
        if ma != mb:
            return f"{name}: manifest differs between repetitions"
    return None
