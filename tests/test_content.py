import collections
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import anonflow.backbone as backbone_mod
from anonflow import content as content_mod
from anonflow.backbone import (BackboneConfig, BackboneModel, frame_runs,
                               reconstruct, train_backbone)
from anonflow.content import (EditPlan, EntitySpan, ReplacementPool,
                              anonymize_content, anonymize_content_stream,
                              apply_edits, build_gazetteer, corrupt_tokens,
                              detect_pii, match_replacement, span_inputs)
from anonflow.errors import DivergenceError, InputError, UnmatchedEntityError
from anonflow.worldgen import PoolEntry, generate_world, make_world_params


@pytest.fixture(scope="module")
def world():
    p = make_world_params(D=8, F=12, v_common=24, n_speakers=4,
                          noise_sigma=0.05, seed=6)
    ds = generate_world(p, 4, 4, np.random.default_rng(6),
                        duration_range=(4.0, 8.0), pii_frac=0.5)
    return p, ds


@pytest.fixture(scope="module")
def backbone(world):
    p, ds = world
    cfg = BackboneConfig(content_dim=8, hidden=(48, 48), codebook_size=p.V + 8,
                         steps=400, batch=128, seed=4)
    model, _ = train_backbone(ds, cfg, np.random.default_rng(4))
    return model


class TestDetect:
    def test_merges_consecutive_same_type(self):
        gaz = {10: "PER", 11: "PER", 20: "LOC"}
        spans = detect_pii([1, 10, 11, 2, 20, 3], gaz)
        assert [(s.type, s.token_start, s.token_end) for s in spans] == \
            [("PER", 1, 3), ("LOC", 4, 5)]

    def test_type_change_splits_runs(self):
        gaz = {10: "PER", 20: "LOC"}
        spans = detect_pii([10, 20], gaz)
        assert len(spans) == 2

    def test_no_hits_no_spans(self):
        assert detect_pii([1, 2, 3], {10: "PER"}) == []

    def test_span_validation(self):
        with pytest.raises(InputError):
            EntitySpan(type="PER", token_start=3, token_end=3)
        with pytest.raises(InputError):
            EntitySpan(type="XXX", token_start=0, token_end=1)


class TestMatch:
    def pool(self):
        return ReplacementPool([
            PoolEntry(type="PER", tokens=[100]),
            PoolEntry(type="PER", tokens=[101]),
            PoolEntry(type="PER", tokens=[102, 103]),
            PoolEntry(type="LOC", tokens=[110, 111, 112]),
        ])

    def test_type_and_length_match(self):
        span = EntitySpan(type="PER", token_start=0, token_end=1,
                          source_text=(50,))
        for seed in range(10):
            repl = match_replacement(span, self.pool(),
                                     np.random.default_rng(seed))
            assert repl in ([100], [101])

    def test_self_match_excluded(self):
        span = EntitySpan(type="PER", token_start=0, token_end=1,
                          source_text=(100,))
        for seed in range(10):
            assert match_replacement(span, self.pool(),
                                     np.random.default_rng(seed)) == [101]

    def test_nearest_length_fallback_prefers_shorter(self):
        # no 3-token PER; lengths 1 and 2 available -> distance ties broken
        # toward the shorter (length 2 is nearer than 1, so it wins here)
        span = EntitySpan(type="PER", token_start=0, token_end=3,
                          source_text=(1, 2, 3))
        assert match_replacement(span, self.pool(),
                                 np.random.default_rng(0)) == [102, 103]

    def test_unmatched_type_raises(self):
        span = EntitySpan(type="ORG", token_start=0, token_end=1,
                          source_text=(7,))
        with pytest.raises(UnmatchedEntityError):
            match_replacement(span, self.pool(), np.random.default_rng(0))


def edit_one(backbone, utt, plan, s, steps, rng):
    """One utterance's edits in a solve of its own: its span noise is drawn
    from ``rng``, then its spans are regenerated and spliced in."""
    toks, pn = span_inputs(utt, plan)
    noise = rng.standard_normal((len(toks), backbone.frame_dim))
    return apply_edits(utt, plan, reconstruct(backbone, toks, pn, s, steps,
                                              noise))


def span_frames(utt):
    """The frames of an edited utterance's spans, in span order."""
    fpt = utt.frames_per_token
    return np.concatenate([utt.frames[a * fpt:b * fpt]
                           for _, a, b in utt.entity_spans])


def edited_runs(ds, reports):
    """Ids of the edited utterances, grouped into runs of one speaker."""
    speaker_of = {u.id: u.speaker_id for u in ds.utterances}
    runs = []
    for r in reports:
        if r["replacements"]:
            uid = r["utterance_id"]
            if runs and speaker_of[runs[-1][-1]] == speaker_of[uid]:
                runs[-1].append(uid)
            else:
                runs.append([uid])
    return runs


def eager_reference(backbone, ds, pool, gaz, steps, rng, mapping=None,
                    p_asr=0.0):
    """``anonymize_content`` as it was before it streamed: the walk keeps
    every edited utterance's span noise, and every run is solved and
    assembled before any utterance is returned."""
    reports, new_utts, edited = [], [], []
    for u in ds.utterances:
        observed = (corrupt_tokens(u.tokens, p_asr, ds.params.V, rng)
                    if p_asr > 0 else list(u.tokens))
        spans = detect_pii(observed, gaz)
        edits, errors = [], []
        for span in spans:
            try:
                edits.append((span, match_replacement(span, pool, rng)))
            except UnmatchedEntityError as e:
                errors.append({"span": [span.type, span.token_start,
                                        span.token_end], "error": str(e)})
        base = u if p_asr == 0 else replace(u, tokens=observed)
        if edits:
            plan = EditPlan(utterance_id=u.id, edits=edits)
            toks, pn = span_inputs(base, plan)
            edited.append((len(new_utts), plan, toks, pn, rng.standard_normal(
                (len(toks), ds.params.F))))
        new_utts.append(base)
        reports.append({
            "utterance_id": u.id,
            "spans": [[sp.type, sp.token_start, sp.token_end] for sp in spans],
            "replacements": [[sp.type, sp.token_start, repl]
                             for sp, repl in edits],
            "status": "ok" if not errors else "partial", "errors": errors})
    for run in frame_runs([new_utts[e[0]].speaker_id for e in edited],
                          [len(e[2]) for e in edited], content_mod.RUN_FRAMES):
        at, plans, toks, pns, noise = zip(*(edited[j] for j in run))
        sid = new_utts[at[0]].speaker_id
        s = ds.speaker(sid).embedding if mapping is None else mapping[sid][1]
        frames = reconstruct(backbone, np.concatenate(toks),
                             np.concatenate(pns), s, steps,
                             np.concatenate(noise))
        ends = np.cumsum([len(t) for t in toks])[:-1]
        for i, plan, f in zip(at, plans, np.split(frames, ends)):
            new_utts[i] = apply_edits(new_utts[i], plan, f)
    return new_utts, reports


class TestStream:
    @pytest.mark.parametrize("cap", ["default", "cut"])
    @pytest.mark.parametrize("mapped,p_asr", [(False, 0.0), (True, 0.0),
                                              (True, 0.3)],
                             ids=["own", "mapped", "mapped-asr"])
    def test_matches_eager_reference(self, world, backbone, monkeypatch,
                                     mapped, p_asr, cap):
        # every draw is made before the stream is read, and the stream
        # yields the eager utterances bit for bit, in dataset order
        _, ds = world
        if cap == "cut":
            monkeypatch.setattr(content_mod, "RUN_FRAMES", 10)
        pool, gaz = ReplacementPool(ds.pool), build_gazetteer(ds)
        draw = np.random.default_rng(8)
        mapping = ({s.id: (0.5, draw.standard_normal(ds.params.D))
                    for s in ds.speakers} if mapped else None)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        out, reports = anonymize_content_stream(
            backbone, ds, pool, gaz, 4, rng, mapping=mapping, p_asr=p_asr)
        ref, ref_reports = eager_reference(backbone, ds, pool, gaz, 4,
                                           ref_rng, mapping, p_asr)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert reports == ref_reports
        got = list(out.utterances)
        assert len(got) == len(ref) == len(ds.utterances)
        for u, r in zip(got, ref):
            assert (u.id, u.tokens, u.entity_spans) == \
                (r.id, r.tokens, r.entity_spans)
            for k in ("frames", "f0_hz", "p_norm"):
                assert np.array_equal(getattr(u, k), getattr(r, k)), k

    def test_holds_one_run(self, monkeypatch):
        # 32 utterances of 160-240 frames (1.2 MB of frames), each with
        # PII: draining the stream holds one run's span noise and frames
        # and one assembled utterance above the level at the call, under 8
        # runs' frame bytes; the eager form held every edited utterance
        p = make_world_params(D=8, F=24, v_common=24, n_speakers=4, seed=3,
                              noise_sigma=0.05)
        ds = generate_world(p, 4, 8, np.random.default_rng(3),
                            duration_range=(40.0, 60.0), pii_frac=1.0)
        monkeypatch.setattr(content_mod, "RUN_FRAMES", 480)
        run_bytes = 480 * p.F * 8
        assert sum(u.frames.nbytes for u in ds.utterances) > 12 * run_bytes
        backbone = BackboneModel(frame_dim=p.F, speaker_dim=p.D,
                                 vocab_size=p.V,
                                 config=BackboneConfig(content_dim=8,
                                                       hidden=(16, 16)))
        backbone.codebook.entries = backbone.f_sem(np.arange(p.V))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, reports = anonymize_content_stream(
                backbone, ds, ReplacementPool(ds.pool), build_gazetteer(ds),
                4, np.random.default_rng(1), mapping=None, p_asr=0.0)
            collections.deque(out.utterances, maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r["replacements"] for r in reports)
        assert peak - base < 8 * run_bytes


class TestApplyEdits:
    def test_out_of_span_frames_bit_identical(self, world, backbone):
        _, ds = world
        utt = next(u for u in ds.utterances if u.has_pii)
        gaz = build_gazetteer(ds)
        pool = ReplacementPool(ds.pool)
        spans = detect_pii(utt.tokens, gaz)
        rng = np.random.default_rng(1)
        edits = [(s, match_replacement(s, pool, rng)) for s in spans]
        # force equal-length replacements so the frame grid is unchanged
        edits = [(s, r) for s, r in edits if len(r) == s.length]
        if not edits:
            pytest.skip("no equal-length replacement drawn for this utterance")
        s_emb = ds.speaker(utt.speaker_id).embedding
        steps = 6
        out = edit_one(backbone, utt, EditPlan(utt.id, edits), s_emb, steps,
                       np.random.default_rng(2))
        fpt = utt.frames_per_token
        mask = np.ones(utt.n_frames, dtype=bool)
        for sp, _ in edits:
            mask[sp.token_start * fpt:sp.token_end * fpt] = False
        assert np.array_equal(out.frames[mask], utt.frames[mask])
        assert not np.array_equal(out.frames[~mask], utt.frames[~mask])

    def test_length_mismatch_shifts_alignment(self, world, backbone):
        _, ds = world
        utt = ds.utterances[0]
        span = EntitySpan(type="PER", token_start=1, token_end=2,
                          source_text=(utt.tokens[1],))
        repl = [5, 6]   # one token replaced by two
        s_emb = ds.speaker(utt.speaker_id).embedding
        steps = 4
        out = edit_one(backbone, utt, EditPlan(utt.id, [(span, repl)]),
                       s_emb, steps, np.random.default_rng(0))
        assert len(out.tokens) == len(utt.tokens) + 1
        assert out.n_frames == utt.n_frames + utt.frames_per_token
        assert out.tokens[1:3] == [5, 6]
        assert out.tokens[3:] == utt.tokens[2:]
        assert out.entity_spans == [("PER", 1, 3)]

    def test_spans_spliced_in_order(self, world):
        # two spans, the first replaced by a longer entity: each span's
        # frames land at its shifted place, the rest is kept bit for bit
        _, ds = world
        utt = next(u for u in ds.utterances if len(u.tokens) >= 6)
        spans = [EntitySpan(type="PER", token_start=1, token_end=2,
                            source_text=(utt.tokens[1],)),
                 EntitySpan(type="LOC", token_start=3, token_end=5,
                            source_text=tuple(utt.tokens[3:5]))]
        plan = EditPlan(utt.id, [(spans[0], [5, 6]), (spans[1], [7, 8])])
        fpt = utt.frames_per_token
        toks, pn = span_inputs(utt, plan)
        assert np.array_equal(toks, np.repeat([5, 6, 7, 8], fpt))
        assert np.array_equal(pn[2 * fpt:], utt.p_norm[3 * fpt:5 * fpt])
        gen = np.arange(4 * fpt * ds.params.F, dtype=float).reshape(4 * fpt, -1)
        out = apply_edits(utt, plan, gen)
        assert out.entity_spans == [("PER", 1, 3), ("LOC", 4, 6)]
        assert np.array_equal(out.frames[fpt:3 * fpt], gen[:2 * fpt])
        assert np.array_equal(out.frames[4 * fpt:6 * fpt], gen[2 * fpt:])
        assert np.array_equal(out.p_norm[fpt:3 * fpt], pn[:2 * fpt])
        assert np.array_equal(out.frames[3 * fpt:4 * fpt],
                              utt.frames[2 * fpt:3 * fpt])
        assert np.array_equal(out.frames[6 * fpt:], utt.frames[5 * fpt:])
        with pytest.raises(InputError):
            apply_edits(utt, plan, gen[1:])

    def test_overlapping_edits_rejected(self):
        a = EntitySpan(type="PER", token_start=0, token_end=2)
        b = EntitySpan(type="PER", token_start=1, token_end=3)
        with pytest.raises(InputError):
            EditPlan("u", [(a, [1, 1]), (b, [2, 2])])


class TestCorrupt:
    def test_p_zero_is_identity(self):
        toks = [1, 2, 3, 4]
        assert corrupt_tokens(toks, 0.0, 10, np.random.default_rng(0)) == toks

    def test_p_one_substitutes_heavily(self):
        toks = list(range(50))
        out = corrupt_tokens(toks, 1.0, 1000, np.random.default_rng(0))
        assert np.mean([a != b for a, b in zip(toks, out)]) > 0.9


class TestPipeline:
    def test_gazetteer_covers_lexicons_and_pool(self, world):
        _, ds = world
        gaz = build_gazetteer(ds)
        for s in ds.speakers:
            for typ, toks in s.pii_lexicon.items():
                for tok in toks:
                    assert gaz[tok] == typ
        for e in ds.pool:
            for tok in e.tokens:
                assert gaz[tok] == e.type

    def test_full_run_type_match_audit(self, world, backbone):
        _, ds = world
        gaz = build_gazetteer(ds)
        pool = ReplacementPool(ds.pool)
        steps = 6
        out, reports = anonymize_content(backbone, ds, pool, gaz, steps,
                                         np.random.default_rng(3),
                                         mapping=None, p_asr=0.0)
        assert len(out.utterances) == len(ds.utterances)
        by_id = {u.id: u for u in out.utterances}
        for r in reports:
            assert r["status"] == "ok"
            u = by_id[r["utterance_id"]]
            for typ, a, b in u.entity_spans:
                for tok in u.tokens[a:b]:
                    assert gaz[tok] == typ   # replacement type matches
        edited = [r for r in reports if r["replacements"]]
        assert edited   # the world guarantees PII utterances exist

    @pytest.mark.parametrize("mapped", [False, True])
    def test_edits_voiced_from_mapping_when_given(self, world, backbone,
                                                  monkeypatch, mapped):
        _, ds = world
        rng = np.random.default_rng(8)
        mapping = ({s.id: (0.5, rng.standard_normal(ds.params.D))
                    for s in ds.speakers} if mapped else None)
        voiced = []

        def fake_reconstruct(backbone, frame_tokens, p_norm, s, steps, noise):
            voiced.append(np.array(s))
            return np.zeros((len(frame_tokens), ds.params.F))

        monkeypatch.setattr(content_mod, "reconstruct", fake_reconstruct)
        _, reports = anonymize_content(backbone, ds, ReplacementPool(ds.pool),
                                       build_gazetteer(ds), 4,
                                       np.random.default_rng(3),
                                       mapping=mapping, p_asr=0.0)
        speaker_of = {u.id: u.speaker_id for u in ds.utterances}
        runs = edited_runs(ds, reports)
        assert runs and len(voiced) == len(runs)
        for run, s in zip(runs, voiced):     # one reconstruct per run
            sid = speaker_of[run[0]]
            want = (ds.speaker(sid).embedding if mapping is None
                    else mapping[sid][1])
            assert np.array_equal(s, want)

    def test_one_solve_per_run(self, world, backbone, monkeypatch):
        # one reconstruct per run of a speaker's edited utterances, giving
        # frames within 1e-6 of one solve per utterance (a run cap of one
        # frame) from the same generator
        _, ds = world
        pool, gaz = ReplacementPool(ds.pool), build_gazetteer(ds)
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return reconstruct(*args)

        monkeypatch.setattr(content_mod, "reconstruct", counted)
        out, reports = anonymize_content(backbone, ds, pool, gaz, 4,
                                         np.random.default_rng(3),
                                         mapping=None, p_asr=0.0)
        runs = edited_runs(ds, reports)
        assert len(calls) == len(runs) < sum(map(len, runs))
        calls.clear()
        monkeypatch.setattr(content_mod, "RUN_FRAMES", 1)
        ref, ref_reports = anonymize_content(backbone, ds, pool, gaz, 4,
                                             np.random.default_rng(3),
                                             mapping=None, p_asr=0.0)
        assert ref_reports == reports
        assert len(calls) == sum(map(len, runs))
        by_id = {u.id: u for u in ref.utterances}
        for u, orig in zip(out.utterances, ds.utterances):
            r = by_id[u.id]
            assert u.tokens == r.tokens and u.entity_spans == r.entity_spans
            assert np.array_equal(u.p_norm, r.p_norm)
            if u.id not in sum(runs, []):
                assert u is orig
                continue
            assert np.max(np.abs(u.frames - r.frames)) <= 1e-6
            kept = np.ones(u.n_frames, dtype=bool)
            for _, a, b in u.entity_spans:
                kept[a * u.frames_per_token:b * u.frames_per_token] = False
            assert np.array_equal(u.frames[kept], r.frames[kept])

    @pytest.mark.parametrize("cap", ["default", "cut"])
    def test_run_noise_matches_per_utterance_draws(self, world, backbone,
                                                   monkeypatch, cap):
        # with the solve the identity, each edited utterance's span frames
        # are its noise: drawn after its replacements, in utterance order
        _, ds = world
        pool, gaz = ReplacementPool(ds.pool), build_gazetteer(ds)
        rows = []

        def identity(field, x, steps, cond=None):
            rows.append(len(x))
            return x

        monkeypatch.setattr(backbone_mod, "integrate", identity)
        if cap == "cut":
            monkeypatch.setattr(content_mod, "RUN_FRAMES", 10)
        out, reports = anonymize_content(backbone, ds, pool, gaz, 4,
                                         np.random.default_rng(3),
                                         mapping=None, p_asr=0.0)
        assert all(r["status"] == "ok" for r in reports)
        if cap == "cut":
            assert max(rows) <= 10 < sum(rows)
            assert len(rows) > len(edited_runs(ds, reports))
        rng = np.random.default_rng(3)
        n_edited = 0
        for u, o in zip(ds.utterances, out.utterances):
            repls = [match_replacement(sp, pool, rng)
                     for sp in detect_pii(u.tokens, gaz)]
            if repls:
                n_edited += 1
                n = sum(map(len, repls)) * u.frames_per_token
                noise = rng.standard_normal((n, ds.params.F))
                assert np.array_equal(span_frames(o), noise)
        assert n_edited > len(edited_runs(ds, reports))

    def test_divergence_names_the_run(self, world, backbone, monkeypatch):
        _, ds = world
        pool, gaz = ReplacementPool(ds.pool), build_gazetteer(ds)
        _, reports = anonymize_content(backbone, ds, pool, gaz, 4,
                                       np.random.default_rng(3),
                                       mapping=None, p_asr=0.0)
        first = edited_runs(ds, reports)[0]
        assert len(first) > 1

        def diverge(field, x, steps, cond=None):
            raise DivergenceError("non-finite state at step 2", step=2)

        monkeypatch.setattr(backbone_mod, "integrate", diverge)
        with pytest.raises(DivergenceError) as ei:
            anonymize_content(backbone, ds, pool, gaz, 4,
                              np.random.default_rng(3),
                              mapping=None, p_asr=0.0)
        assert str(ei.value) == (f"utterances {first[0]}..{first[-1]}: "
                                 "non-finite state at step 2")
        assert ei.value.step == 2

    def test_unmatched_entity_reported_not_fatal(self, world, backbone):
        _, ds = world
        gaz = build_gazetteer(ds)
        # a pool with no PER entries at all forces partial status on
        # utterances whose spans are PER
        thin = ReplacementPool([e for e in ds.pool if e.type != "PER"])
        steps = 4
        has_per = any(
            sp[0] == "PER" for u in ds.utterances for sp in u.entity_spans)
        assert has_per
        out, reports = anonymize_content(backbone, ds, thin, gaz, steps,
                                         np.random.default_rng(0),
                                         mapping=None, p_asr=0.0)
        assert any(r["status"] == "partial" for r in reports)

    def test_p_asr_changes_transcripts(self, world, backbone):
        _, ds = world
        gaz = build_gazetteer(ds)
        pool = ReplacementPool(ds.pool)
        steps = 4
        out, _ = anonymize_content(backbone, ds, pool, gaz, steps,
                                   np.random.default_rng(5),
                                   mapping=None, p_asr=0.3)
        changed = sum(
            a.tokens != b.tokens
            for a, b in zip(out.utterances, ds.utterances))
        assert changed > len(ds.utterances) // 2
