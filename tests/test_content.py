import numpy as np
import pytest

from anonflow import content as content_mod
from anonflow.backbone import (BackboneConfig, BackboneModel, reconstruct,
                               train_backbone)
from anonflow.content import (EditPlan, EntitySpan, ReplacementPool,
                              anonymize_content, apply_edits, build_gazetteer,
                              corrupt_tokens, detect_pii, match_replacement)
from anonflow.errors import InputError, UnmatchedEntityError
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
        out = apply_edits(backbone, utt, EditPlan(utt.id, edits), s_emb, steps,
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
        out = apply_edits(backbone, utt, EditPlan(utt.id, [(span, repl)]),
                          s_emb, steps, np.random.default_rng(0))
        assert len(out.tokens) == len(utt.tokens) + 1
        assert out.n_frames == utt.n_frames + utt.frames_per_token
        assert out.tokens[1:3] == [5, 6]
        assert out.tokens[3:] == utt.tokens[2:]
        assert out.entity_spans == [("PER", 1, 3)]

    def test_one_solve_per_utterance(self, world, backbone, monkeypatch):
        # one reconstruct call for all spans, giving the frames of one call
        # per span in span order with the same generator
        _, ds = world
        utt = next(u for u in ds.utterances if len(u.tokens) >= 6)
        spans = [EntitySpan(type="PER", token_start=1, token_end=2,
                            source_text=(utt.tokens[1],)),
                 EntitySpan(type="LOC", token_start=3, token_end=5,
                            source_text=tuple(utt.tokens[3:5]))]
        edits = [(spans[0], [5, 6]), (spans[1], [7, 8])]
        s_emb = ds.speaker(utt.speaker_id).embedding
        steps = 4
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return reconstruct(*args)

        monkeypatch.setattr(content_mod, "reconstruct", counted)
        out = apply_edits(backbone, utt, EditPlan(utt.id, edits), s_emb,
                          steps, np.random.default_rng(3))
        fpt = utt.frames_per_token
        assert calls == [4 * fpt]
        rng = np.random.default_rng(3)
        for start, end in ((1, 3), (4, 6)):
            sl = slice(start * fpt, end * fpt)
            ref = reconstruct(backbone, np.repeat(out.tokens[start:end], fpt),
                              out.p_norm[sl], s_emb, steps, rng)
            assert np.max(np.abs(out.frames[sl] - ref)) <= 1e-6
        assert out.entity_spans == [("PER", 1, 3), ("LOC", 4, 6)]
        assert np.array_equal(out.frames[3 * fpt:4 * fpt],
                              utt.frames[2 * fpt:3 * fpt])
        assert np.array_equal(out.frames[6 * fpt:], utt.frames[5 * fpt:])

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
                                         np.random.default_rng(3))
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

        def fake_reconstruct(backbone, frame_tokens, p_norm, s, steps, rng):
            voiced.append(np.array(s))
            return np.zeros((len(frame_tokens), ds.params.F))

        monkeypatch.setattr(content_mod, "reconstruct", fake_reconstruct)
        _, reports = anonymize_content(backbone, ds, ReplacementPool(ds.pool),
                                       build_gazetteer(ds), 4,
                                       np.random.default_rng(3),
                                       mapping=mapping)
        speaker_of = {u.id: u.speaker_id for u in ds.utterances}
        edited = [speaker_of[r["utterance_id"]] for r in reports
                  if r["replacements"]]
        assert edited and len(voiced) == len(edited)
        for sid, s in zip(edited, voiced):   # one reconstruct per utterance
            want = (ds.speaker(sid).embedding if mapping is None
                    else mapping[sid][1])
            assert np.array_equal(s, want)

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
                                         np.random.default_rng(0))
        assert any(r["status"] == "partial" for r in reports)

    def test_p_asr_changes_transcripts(self, world, backbone):
        _, ds = world
        gaz = build_gazetteer(ds)
        pool = ReplacementPool(ds.pool)
        steps = 4
        out, _ = anonymize_content(backbone, ds, pool, gaz, steps,
                                   np.random.default_rng(5), p_asr=0.3)
        changed = sum(
            a.tokens != b.tokens
            for a, b in zip(out.utterances, ds.utterances))
        assert changed > len(ds.utterances) // 2
