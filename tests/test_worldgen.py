import dataclasses
import hashlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anonflow import worldgen
from anonflow.anonymizer import (AnonymizerConfig, AnonymizerModel,
                                 WeightStrategy)
from anonflow.backbone import BackboneConfig, BackboneModel
from anonflow.content import (ReplacementPool, anonymize_content,
                              build_gazetteer)
from anonflow.errors import ConfigError, DataError, InputError
from anonflow.worldgen import (ARRAY_FIELDS, CACHE_FILES, DATASET_FILES,
                               MAX_DURATION_S, PII_TYPES, PoolEntry, Speaker,
                               Utterance, WorldConfig, WorldParams, _round9,
                               generate_world, load_dataset, load_params,
                               make_world_params, oracle_extract_speaker,
                               oracle_extract_speakers, oracle_recover_tokens,
                               sample_speaker_embedding,
                               sample_speaker_embeddings, save_dataset,
                               stacked_frame_tokens)

from helpers import anonymized, token_error_rate


def recover_tokens_by_difference(frames, p_norm, s, params):
    """Reference token recovery: exact distances from the (T, V, F)
    difference tensor, ties to the lowest token id."""
    resid = frames - np.outer(p_norm, params.B) - params.C @ s
    diff = resid[:, None, :] - params.A.T[None, :, :]
    return np.argmin(np.einsum("tvf,tvf->tv", diff, diff), axis=1)


def synth_frames(params: WorldParams, frame_tokens, p_norm, s, rng) -> np.ndarray:
    """Reference synthesis of one utterance: linear imprints plus
    observation noise of sd ``noise_sigma``."""
    frame_tokens = np.asarray(frame_tokens, dtype=int)
    x = params.A[:, frame_tokens].T + np.outer(p_norm, params.B) + params.C @ np.asarray(s)
    if params.noise_sigma > 0:
        x = x + params.noise_sigma * rng.standard_normal(x.shape)
    return x


def median_pitch(f0):
    """Reference pitch of a contour whose first frame is voiced: np.median
    of the voiced semitones, subtracted until it reads exactly 0."""
    voiced = f0 > 0
    s = 12.0 * np.log2(f0[voiced] / 440.0)
    s -= np.median(s)
    for _ in range(4):
        m = np.median(s)
        if m == 0.0:
            break
        s -= m
    p_norm = np.zeros_like(f0)
    p_norm[voiced] = s
    return p_norm


def generate_world_per_utterance(params, n_speakers, utts_per_speaker, rng,
                                 duration_range=(3.0, 18.0), pii_frac=0.3):
    """Reference: ``generate_world`` with one ``synth_frames`` call per
    utterance, its noise drawn after the utterance's pitch."""
    lexicons, pool = worldgen._lexicon_layout(params, n_speakers)
    speakers = []
    for i in range(n_speakers):
        gender = "male" if i % 2 == 0 else "female"
        emb = sample_speaker_embedding(params, gender, rng)
        base = rng.uniform(100.0, 140.0) if gender == "male" else rng.uniform(180.0, 240.0)
        style = np.zeros(params.V)
        style[:params.v_common] = rng.dirichlet(
            np.full(params.v_common, worldgen.STYLE_ALPHA))
        style[:params.v_common] /= style[:params.v_common].sum()
        speakers.append(Speaker(id=f"spk{i:03d}", gender=gender, embedding=emb,
                                base_pitch_hz=float(base), style=style,
                                pii_lexicon=lexicons[i]))
    utterances = []
    n_pii = max(1, round(pii_frac * utts_per_speaker))
    for spk in speakers:
        pii_slots = set(rng.choice(utts_per_speaker, size=n_pii, replace=False).tolist())
        for k in range(utts_per_speaker):
            duration = float(rng.uniform(*duration_range))
            n_tok = max(3, int(duration * worldgen.FRAME_RATE) // worldgen.FRAMES_PER_TOKEN)
            t_frames = n_tok * worldgen.FRAMES_PER_TOKEN
            probs = spk.style[:params.v_common]
            tokens = rng.choice(params.v_common, size=n_tok, p=probs).astype(int).tolist()
            spans = []
            if k in pii_slots:
                for _ in range(int(rng.integers(1, 3))):
                    typ = PII_TYPES[int(rng.integers(len(PII_TYPES)))]
                    length = int(rng.integers(1, worldgen.LEXICON_PER_TYPE + 1))
                    start = int(rng.integers(0, n_tok - length + 1))
                    if any(start < e and start + length > s for _, s, e in spans):
                        continue
                    tokens[start:start + length] = spk.pii_lexicon[typ][:length]
                    spans.append((typ, start, start + length))
                spans.sort(key=lambda sp: sp[1])
            voiced = rng.random(t_frames) >= worldgen.UNVOICED_PROB
            voiced[0] = True
            f0 = np.zeros(t_frames)
            offs = rng.normal(0.0, worldgen.PITCH_SD_SEMITONES, size=t_frames)
            f0[voiced] = spk.base_pitch_hz * 2.0 ** (offs[voiced] / 12.0)
            p_norm = median_pitch(f0)
            frame_tokens = np.repeat(tokens, worldgen.FRAMES_PER_TOKEN)
            frames = synth_frames(params, frame_tokens, p_norm, spk.embedding, rng)
            utterances.append(Utterance(
                id=f"utt{len(utterances):05d}", speaker_id=spk.id,
                gender=spk.gender, duration_s=duration, tokens=tokens,
                entity_spans=spans, f0_hz=f0, p_norm=p_norm, frames=frames,
                frames_per_token=worldgen.FRAMES_PER_TOKEN))
    return worldgen.Dataset(params=params, speakers=speakers,
                            utterances=utterances, pool=pool)


def small_params(noise_sigma=0.05, seed=0, n_speakers=4):
    return make_world_params(D=8, F=12, v_common=24, n_speakers=n_speakers,
                             noise_sigma=noise_sigma, seed=seed)


def small_world(noise_sigma=0.05, seed=0, n_speakers=4, utts=4,
                duration_range=(3.0, 18.0)):
    p = small_params(noise_sigma=noise_sigma, seed=seed, n_speakers=n_speakers)
    return p, generate_world(p, n_speakers, utts, np.random.default_rng(seed),
                             duration_range=duration_range, pii_frac=0.3)


class TestWorldParams:
    def test_f_must_exceed_d(self):
        p = small_params()
        with pytest.raises(ConfigError):
            WorldParams(D=12, V=p.V, F=12, A=np.zeros((12, p.V)), B=np.zeros(12),
                        C=np.zeros((12, 12)), noise_sigma=0.0,
                        gender_means=np.zeros((2, 12)), seed=0, v_common=24)

    def test_singular_c_rejected(self):
        p = small_params()
        c = np.zeros((12, 8))
        with pytest.raises(ConfigError):
            WorldParams(D=8, V=p.V, F=12, A=p.A, B=p.B, C=c, noise_sigma=0.0,
                        gender_means=np.zeros((2, 8)), seed=0, v_common=24)

    def test_margin_enforced(self):
        p = make_world_params(D=8, F=12, v_common=24, n_speakers=4, noise_sigma=0.4,
                              seed=0)
        d2 = np.sum((p.A[:, :, None] - p.A[:, None, :]) ** 2, axis=0)
        np.fill_diagonal(d2, np.inf)
        assert np.sqrt(d2.min()) > 6 * 0.4 * np.sqrt(12)

    @pytest.mark.parametrize("noise_sigma,seed", [(0.05, 0), (0.4, 0),
                                                  (0.4, 3), (0.6, 5)])
    def test_margin_rescale_matches_full_difference_tensor(self, noise_sigma,
                                                           seed):
        p = make_world_params(D=8, F=12, v_common=24, n_speakers=4,
                              noise_sigma=noise_sigma, seed=seed)
        a = np.random.default_rng(seed).standard_normal((12, p.V))
        d2 = np.sum((a[:, :, None] - a[:, None, :]) ** 2, axis=0)
        np.fill_diagonal(d2, np.inf)
        dmin, margin = np.sqrt(d2.min()), 6.0 * noise_sigma * np.sqrt(12)
        if dmin <= margin:
            a *= 1.05 * margin / dmin
        assert np.array_equal(p.A, a)

    def test_round_trip_dict(self, tmp_path):
        p = small_params()
        (tmp_path / "world.json").write_text(json.dumps(world_dict(p)))
        q = load_params(tmp_path)
        assert world_dict(q) == world_dict(p)
        assert q.V == p.V and q.D == p.D
        assert np.allclose(q.A, p.A, atol=1e-6)


class TestGenerateWorld:
    def test_counts_and_gender_split(self):
        p = make_world_params(D=16, F=24, v_common=64, n_speakers=10,
                              noise_sigma=0.05, seed=0)
        ds = generate_world(p, 10, 10, np.random.default_rng(1),
                            duration_range=(3.0, 18.0), pii_frac=0.3)
        assert len(ds.utterances) == 100
        males = [s for s in ds.speakers if s.gender == "male"]
        assert len(males) == 5

    # WorldConfig, which makes every world the program generates, owns
    # the speaker and utterance counts
    def test_odd_speakers_rejected(self):
        with pytest.raises(ConfigError, match="world.n_speakers must be even"):
            WorldConfig(n_speakers=3)

    def test_single_utt_rejected(self):
        with pytest.raises(ConfigError,
                           match="world.utts_per_speaker must be >= 2"):
            WorldConfig(utts_per_speaker=1)

    def test_style_is_simplex(self):
        _, ds = small_world()
        for s in ds.speakers:
            assert abs(s.style.sum() - 1.0) < 1e-9
            assert s.base_pitch_hz > 0

    def test_male_pitch_below_female(self):
        _, ds = small_world()
        male = max(s.base_pitch_hz for s in ds.speakers if s.gender == "male")
        female = min(s.base_pitch_hz for s in ds.speakers if s.gender == "female")
        assert male < female

    def test_pii_spans_within_bounds_and_exclusive(self):
        _, ds = small_world(utts=10)
        seen_lex = {}
        for u in ds.utterances:
            for typ, a, b in u.entity_spans:
                assert typ in PII_TYPES
                assert 0 <= a < b <= len(u.tokens)
                for tok in u.tokens[a:b]:
                    owner = seen_lex.setdefault(tok, u.speaker_id)
                    assert owner == u.speaker_id  # speaker-exclusive tokens
        assert any(u.has_pii for u in ds.utterances)

    def test_alignment_covers_all_frames(self):
        _, ds = small_world()
        for u in ds.utterances:
            assert u.n_frames == len(u.tokens) * u.frames_per_token
            assert stacked_frame_tokens([u]).shape[0] == u.n_frames
            assert u.duration_s > 0

    def test_determinism_byte_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            p, ds = small_world(seed=5)
            save_dataset(ds, tmp_path / sub)
        for name in ("world.json", "speakers.jsonl", "utterances.jsonl",
                     "replacement_pool.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_degenerate_world_constant_frames(self):
        p = small_params(noise_sigma=0.0)
        s = np.ones(8) / np.sqrt(8)
        tok = np.full(12, 3)
        frames = synth_frames(p, tok, np.zeros(12), s, np.random.default_rng(0))
        expected = p.A[:, 3] + p.C @ s
        assert np.allclose(frames, np.tile(expected, (12, 1)))

    def test_save_load_round_trip(self, tmp_path):
        p, ds = small_world()
        save_dataset(ds, tmp_path / "d")
        ds2 = load_dataset(tmp_path / "d")
        assert len(ds2.utterances) == len(ds.utterances)
        assert np.allclose(ds2.utterances[0].frames, ds.utterances[0].frames,
                           atol=1e-5)
        assert ds2.utterances[0].entity_spans == ds.utterances[0].entity_spans


class TestOracles:
    def test_noiseless_inversion(self):
        p, ds = small_world(noise_sigma=0.0)
        for u in ds.utterances[:5]:
            s = ds.speaker(u.speaker_id).embedding
            assert np.allclose(oracle_extract_speaker(u, p), s, atol=1e-6)

    def test_noisy_extraction_high_cosine(self):
        p = make_world_params(D=8, F=12, v_common=24, n_speakers=4,
                              noise_sigma=0.1, seed=2)
        # 48-52 s at 4 frames per second: 192-208 frames per utterance
        ds = generate_world(p, 4, 2, np.random.default_rng(2),
                            duration_range=(48.0, 52.0), pii_frac=0.3)
        assert all(u.n_frames >= 192 for u in ds.utterances)
        for u in ds.utterances:
            s = ds.speaker(u.speaker_id).embedding
            e = oracle_extract_speaker(u, p)
            cos = e @ s / (np.linalg.norm(e) * np.linalg.norm(s))
            assert cos >= 0.99

    def test_pure_imprint(self):
        p = small_params(noise_sigma=0.0)
        sp = np.random.default_rng(4).standard_normal(8)
        sp /= np.linalg.norm(sp)
        frames = np.tile(p.C @ sp, (6, 1))
        # zero content/pitch passed in: token column must also be subtracted out
        resid = frames - 0  # frames built from speaker imprint only
        est = p.c_pinv @ resid.mean(axis=0)
        assert np.allclose(est, sp, atol=1e-8)

    def test_clean_token_recovery(self):
        p, ds = small_world(noise_sigma=0.05)
        for u in ds.utterances[:5]:
            s = ds.speaker(u.speaker_id).embedding
            rec = oracle_recover_tokens(u.frames, u.p_norm, s, p)
            assert token_error_rate(rec, u.tokens, u.frames_per_token) == 0.0

    def test_single_frame_identity(self):
        p = small_params(noise_sigma=0.0)
        s = sample_speaker_embedding(p, "male", np.random.default_rng(0))
        x = (p.A[:, 3] + p.C @ s)[None, :]
        rec = oracle_recover_tokens(x, np.zeros(1), s, p)
        assert rec[0] == 3

    def test_noise_frames_near_chance(self):
        p = small_params(noise_sigma=0.05, seed=7)
        rng = np.random.default_rng(7)
        frames = 20.0 * rng.standard_normal((400, 12))
        rec = oracle_recover_tokens(frames, np.zeros(400), np.zeros(8), p)
        err = np.mean(rec != 0)  # reference irrelevant; check near-uniform picks
        counts = np.bincount(rec, minlength=p.V)
        assert counts.max() / 400 < 0.15  # no token dominates

    @pytest.mark.parametrize("scale", [0.0, 1.0, 5.0, 30.0])
    def test_recovery_matches_difference_reference(self, scale):
        p, ds = small_world(noise_sigma=0.1, seed=3, utts=6)
        rng = np.random.default_rng(int(scale))
        for u in ds.utterances:
            frames = u.frames + scale * rng.standard_normal(u.frames.shape)
            s = ds.speaker(u.speaker_id).embedding
            assert np.array_equal(
                oracle_recover_tokens(frames, u.p_norm, s, p),
                recover_tokens_by_difference(frames, u.p_norm, s, p))

    def test_equidistant_frames_go_to_lowest_id(self):
        # columns at the corners of a square: each edge midpoint is exactly
        # equidistant from two columns, the centre from all four
        a = 2.0 * np.array([[0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 0]])
        p = WorldParams(D=2, V=4, F=3, A=a, B=np.zeros(3),
                        C=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                        noise_sigma=0.0, gender_means=np.zeros((2, 2)),
                        seed=0, v_common=4)
        frames = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 0.0],
                           [2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 5.0]])
        s = np.zeros(2)
        rec = oracle_recover_tokens(frames, np.zeros(6), s, p)
        assert rec.tolist() == [0, 2, 0, 1, 0, 0]
        assert np.array_equal(
            rec, recover_tokens_by_difference(frames, np.zeros(6), s, p))

    def test_midpoints_of_nearest_columns_match_reference(self):
        # ties in exact arithmetic that rounding may break either way
        p = small_params(noise_sigma=0.0, seed=4)
        d2 = np.sum((p.A[:, :, None] - p.A[:, None, :]) ** 2, axis=0)
        np.fill_diagonal(d2, np.inf)
        frames = 0.5 * (p.A + p.A[:, np.argmin(d2, axis=0)]).T
        p_norm, s = np.zeros(p.V), np.zeros(p.D)
        assert np.array_equal(
            oracle_recover_tokens(frames, p_norm, s, p),
            recover_tokens_by_difference(frames, p_norm, s, p))


def test_speaker_prior_unit_norm():
    p = small_params()
    rng = np.random.default_rng(0)
    for g in ("male", "female"):
        e = sample_speaker_embedding(p, g, rng)
        assert np.linalg.norm(e) == pytest.approx(1.0)


@pytest.mark.parametrize("D,n", [(8, 1001), (16, 10_000), (3, 7), (16, 0)])
def test_speaker_prior_batch_matches_per_row_draws(D, n):
    p = make_world_params(D=D, F=D + 4, v_common=24, n_speakers=4, seed=D,
                          noise_sigma=0.05)
    loop_rng, batch_rng = np.random.default_rng(5), np.random.default_rng(5)
    rows = [sample_speaker_embedding(p, ("male", "female")[i % 2], loop_rng)
            for i in range(n)]
    batch = sample_speaker_embeddings(p, n, batch_rng)
    assert batch.shape == (n, D)
    assert np.array_equal(batch, np.reshape(rows, (n, D)))
    # the stream goes on where n one-row draws leave it
    assert loop_rng.random() == batch_rng.random()


def round9_reference(obj):
    """``obj`` with each float, in arrays and lists too, rounded one at a
    time: the per-value reference of the dataset writer."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: round9_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9_reference(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return round9_reference(obj.tolist())
    return obj


def world_dict(params) -> dict:
    """The fields of ``params``, as ``world.json`` stores them."""
    return round9_reference({f.name: getattr(params, f.name)
                             for f in dataclasses.fields(params)})


def encoded(rows, fields) -> str:
    """The dataset writer's text for a list of row dicts whose float arrays
    are under ``fields``."""
    f = io.BytesIO()
    worldgen._write_jsonl(f, rows, fields, io.BytesIO())
    return f.getvalue().decode()


def reference_text(rows) -> str:
    return "".join(json.dumps(round9_reference(r)) + "\n" for r in rows)


@pytest.mark.parametrize("shape", [(0,), (7,), (33,), (5, 4), (1, 24), (3, 0)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_round9_matches_per_value_recursion(shape, dtype):
    """Rows of the kinds of values that datasets hold, with float arrays
    under named fields: empty ones too, beside a non-empty one."""
    rng = np.random.default_rng(0)
    special = [-0.0, 0.0, 1e-5, -1e-5, 1e9, 123456789.0, 3.0, -2.0,
               1.0 / 3.0, 2.5e-300, 6.02214076e23]
    scaled = rng.standard_normal(64) * 10.0 ** rng.integers(-6, 9, 64)
    a = np.resize(np.concatenate([special, scaled]), shape).astype(dtype)
    rows = [{"id": "utt00000", "x": a, "d": 1.0 / 3.0, "tokens": [2, 7],
             "spans": [("PER", 0, 1)], "lexicon": {"PER": [3, 4]},
             "z": np.array([[1.0 / 3.0, -0.0]]), "n": 4},
            {"id": "utt00001", "x": a[::-1], "d": np.float64(6.02214076e23),
             "tokens": [], "spans": [], "lexicon": {},
             "z": np.array([2.5e-300]), "n": 0}]
    assert encoded(rows, ("x", "z")) == reference_text(rows)


def _edges(x):
    return [x, -x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]


# values where the digit split could go wrong: signed zeros, subnormals,
# both sides of the fixed-notation range of repr (1e-4 <= |x| < 1e16, also
# after rounding), exact 9-digit ties, a carry into a tenth digit, non-finite
EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, *_edges(1e-4),
               *_edges(1e16), 9.9999999995e-5, 9.99999999949e-5,
               9999999995000000.0, 9999999994999999.0, 100000002.5,
               100000003.5, 0.1000000025, 2.5, 999999999.5, 9.999999999,
               123456789.0, 1e22, 1e23, float("nan"), float("inf"),
               float("-inf")]
float_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    st.builds(lambda m, e: m * 10.0 ** e, st.integers(-10 ** 9, 10 ** 9),
              st.integers(-14, 8)))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                               max_side=12),
                  elements=float_values))
def test_encoder_matches_per_value_reference(a):
    # two rows, so the batch is split back into arrays
    rows = [{"a": a, "x": 1.0 / 3.0, "b": a.ravel()},
            {"a": a[::-1], "x": 2, "b": a.ravel()[::-1]}]
    assert encoded(rows, ("a", "b")) == reference_text(rows)


# ---------------------------------------------------------------------------
# the array cache beside the JSONL text

def assert_same_dataset(a, b):
    """Equal records, world parameters too, and float arrays equal bit for
    bit (NaN and -0.0 too)."""
    for xs, ys in (([a.params], [b.params]), (a.speakers, b.speakers),
                   (a.utterances, b.utterances), (a.pool, b.pool)):
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            for k, v in vars(x).items():
                w = getattr(y, k)
                if isinstance(v, np.ndarray):
                    assert (v.dtype, v.shape, v.tobytes()) == \
                           (w.dtype, w.shape, w.tobytes()), k
                else:
                    assert (type(v), v) == (type(w), w), k


def watch_text(m, seen):
    """Make the MonkeyPatch ``m`` call ``seen(path)`` before each text
    decode of a dataset file."""
    def watched(path, data, parse=worldgen._parse_jsonl):
        seen(path)
        return parse(path, data)
    m.setattr(worldgen, "_parse_jsonl", watched)


def refuse(path):
    """A ``seen`` for ``watch_text``: the cache holds every JSON file, so a
    load that uses it decodes none."""
    raise AssertionError(f"parsed {path.name}")


def load_both(d):
    """(the dataset from the cache, the dataset from the text) of ``d``;
    the first load must not parse the files that the cache holds."""
    with pytest.MonkeyPatch.context() as m:
        watch_text(m, refuse)
        hit = load_dataset(d)
    for name in CACHE_FILES:
        (d / name).unlink()
    return hit, load_dataset(d)


def plant(ds, values):
    """Write ``values`` (cycled) into every float array of the first
    speaker and the first utterance."""
    u, s = ds.utterances[0], ds.speakers[0]
    for a in (u.f0_hz, u.p_norm, u.frames, s.embedding, s.style):
        a.flat[:] = np.resize(np.asarray(values, dtype=float), a.size)


def test_cache_hit_matches_text_on_desk_world(tmp_path):
    ds = WorldConfig(n_speakers=64, utts_per_speaker=12, noise_sigma=0.1,
                     duration_range=(6.0, 12.0), pii_frac=0.4).generate(1)
    save_dataset(ds, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DATASET_FILES)
    hit, text = load_both(tmp_path)
    assert_same_dataset(hit, text)


def test_cache_hit_matches_text_on_edge_values(tmp_path):
    _, ds = small_world(seed=3)
    plant(ds, EDGE_VALUES)
    save_dataset(ds, tmp_path)
    hit, text = load_both(tmp_path)
    assert_same_dataset(hit, text)
    frames = hit.utterances[0].frames.ravel()
    assert np.signbit(frames[1]) and frames[1] == 0.0
    assert np.isnan(frames).any() and np.isinf(frames).any()


def edit_first_value(path, key) -> float:
    """Change the last digit of the first value after ``key`` in the file
    ``path``, keeping its length; the edited value."""
    text = path.read_text()
    start = text.index(key) + len(key)
    end = text.index(",", start)
    edited = text[start:end - 1] + ("1" if text[end - 1] == "0" else "0")
    path.write_text(text[:start] + edited + text[end:])
    return float(edited)


def test_edited_jsonl_loads_the_edit(tmp_path):
    _, ds = small_world(seed=4)
    save_dataset(ds, tmp_path)
    edited = edit_first_value(tmp_path / "utterances.jsonl", '"frames": [[')
    frames = load_dataset(tmp_path).utterances[0].frames
    assert frames[0, 0] == edited != ds.utterances[0].frames[0, 0]


def test_edited_world_json_loads_the_edit(tmp_path):
    _, ds = small_world(seed=4)
    save_dataset(ds, tmp_path)
    edited = edit_first_value(tmp_path / "world.json", '"B": [')
    assert load_dataset(tmp_path).params.B[0] == edited != ds.params.B[0]


def test_world_json_shape_edit_names_the_file(tmp_path):
    """An edit of the text that changes a shape is read from the text, and
    fails there, though the cache beside it is whole."""
    _, ds = small_world(seed=4)
    save_dataset(ds, tmp_path)
    path = tmp_path / "world.json"
    text = path.read_text()
    at = text.index('"B": [') + len('"B": [')
    path.write_text(text[:at] + text[text.index(", ", at) + 2:])
    with pytest.raises(DataError, match=r"world\.json: B has shape \(11,\), "
                                        r"expected \(12,\)"):
        load_dataset(tmp_path)


def _flip(at):
    def corrupt(path):
        data = bytearray(path.read_bytes())
        data[at(len(data))] ^= 1
        path.write_bytes(bytes(data))
    return corrupt


@pytest.mark.parametrize("name", CACHE_FILES)
@pytest.mark.parametrize("corrupt", [
    lambda p: p.unlink(),
    lambda p: p.write_bytes(p.read_bytes()[:len(p.read_bytes()) // 2]),
    lambda p: p.write_bytes(p.read_bytes()[:-1]),
    _flip(lambda n: 0), _flip(lambda n: n // 2), _flip(lambda n: n - 2),
], ids=["missing", "half", "one-byte-short", "flip-first", "flip-middle",
        "flip-last"])
def test_damaged_cache_falls_back_to_text(tmp_path, name, corrupt):
    _, ds = small_world(seed=5)
    save_dataset(ds, tmp_path / "d")
    corrupt(tmp_path / "d" / name)
    loaded = load_dataset(tmp_path / "d")
    for n in CACHE_FILES:
        (tmp_path / "d" / n).unlink(missing_ok=True)
    assert_same_dataset(loaded, load_dataset(tmp_path / "d"))


def test_flipped_row_value_in_index_falls_back(tmp_path):
    _, ds = small_world(seed=5)
    save_dataset(ds, tmp_path)
    path = tmp_path / "arrays.json"
    doc = path.read_text()
    at = doc.index('"duration_s": ') + len('"duration_s": ')
    path.write_text(doc[:at] + ("2" if doc[at] == "1" else "1") + doc[at + 1:])
    assert (load_dataset(tmp_path).utterances[0].duration_s
            == _round9(ds.utterances[0].duration_s))


def test_respelled_rows_fall_back_to_text(tmp_path, monkeypatch):
    """The rows digest covers the rows' stored bytes: the same rows with
    other whitespace (and the digest left as it was) are not used, and the
    text gives the same data bit for bit."""
    _, ds = small_world(seed=5)
    save_dataset(ds, tmp_path)
    path = tmp_path / "arrays.json"
    doc = json.loads(path.read_bytes())
    path.write_bytes(worldgen._rows_head(doc["sha256"]) + json.dumps(doc["rows"], separators=(",", ":"),
                                       indent=0).encode() + b"}\n")
    assert json.loads(path.read_bytes()) == doc
    parsed = []
    watch_text(monkeypatch, lambda p: parsed.append(p.name))
    loaded = load_dataset(tmp_path)
    assert parsed == list(ARRAY_FIELDS)
    for name in CACHE_FILES:
        (tmp_path / name).unlink()
    assert_same_dataset(loaded, load_dataset(tmp_path))


@pytest.mark.parametrize("cache", ["whole", "removed"])
def test_digests_are_of_the_files(tmp_path, cache):
    """``save_dataset`` returns, and ``Dataset.sha256`` holds, the sha256 of
    each file written or read, whether the load used the cache or not."""
    _, ds = small_world(seed=8)
    written = save_dataset(ds, tmp_path)
    assert {p: worldgen.sha256_file(p) for p in written} == written
    assert {p.name for p in written} == set(DATASET_FILES)
    if cache == "removed":
        for name in CACHE_FILES:
            (tmp_path / name).unlink()
    digests = {p: worldgen.sha256_file(p) for p in tmp_path.iterdir()}
    assert load_dataset(tmp_path).sha256 == digests


def test_hit_reads_no_jsonl_text_that_cache_holds(tmp_path, monkeypatch):
    save_dataset(small_world(seed=6)[1], tmp_path)
    watch_text(monkeypatch, refuse)
    load_dataset(tmp_path)
    (tmp_path / "arrays.f64").unlink()
    # on a miss the world row comes first, from the text
    with pytest.raises(AssertionError, match="parsed world.json"):
        load_dataset(tmp_path)


def test_text_loaded_dataset_saves_all_files(tmp_path):
    """A dataset read from the text alone is saved with its array cache,
    and loads back from that cache as the same data."""
    _, ds = small_world(seed=7)
    save_dataset(ds, tmp_path / "a")
    for name in CACHE_FILES:
        (tmp_path / "a" / name).unlink()
    text = load_dataset(tmp_path / "a")
    written = save_dataset(text, tmp_path / "b")
    assert sorted(p.name for p in written) == sorted(DATASET_FILES)
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == \
           sorted(DATASET_FILES)
    with pytest.MonkeyPatch.context() as m:
        watch_text(m, refuse)
        assert_same_dataset(load_dataset(tmp_path / "b"), text)


def test_world_params_from_cache_match_text(tmp_path):
    """Edge values in the world's arrays and scalars: the cached world row
    gives the parameters of the text bit for bit, every field and array,
    also when only ``arrays.f64`` is gone."""
    save_dataset(edge_world(), tmp_path)
    with pytest.MonkeyPatch.context() as m:
        watch_text(m, refuse)
        hit = load_dataset(tmp_path)
    assert np.signbit(hit.params.B[0]) and hit.params.B[0] == 0.0
    (tmp_path / "arrays.f64").unlink()
    assert_same_dataset(hit, load_dataset(tmp_path))


def test_indented_world_json_is_rejected(tmp_path):
    """``world.json`` is one JSON line: an indented one, as written before
    it was a row, is not read."""
    save_dataset(small_world(seed=9)[1], tmp_path)
    world = tmp_path / "world.json"
    world.write_text(json.dumps(json.loads(world.read_bytes()), indent=1))
    with pytest.raises(DataError, match=r"world\.json:1: not valid JSON"):
        load_dataset(tmp_path)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from([2, 4]), st.integers(2, 3),
       st.lists(float_values, min_size=1, max_size=30))
def test_save_load_save_is_byte_identical(seed, n_speakers, utts, values):
    _, ds = small_world(seed=seed, n_speakers=n_speakers, utts=utts)
    plant(ds, values)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        save_dataset(ds, first)
        save_dataset(load_dataset(first), second)
        for name in DATASET_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert_same_dataset(*load_both(first))
        assert_rows_are_fields(first)


def field_names(record) -> list:
    return [f.name for f in dataclasses.fields(record)]


def assert_rows_are_fields(path):
    """Each line of each saved JSON file holds exactly its record's fields,
    in order, and ``world.json`` is one line: a field that is added but not
    saved fails, and so does a stored value that no field holds."""
    for name, record in zip(ARRAY_FIELDS, (WorldParams, Speaker, Utterance,
                                           PoolEntry)):
        rows = [json.loads(line)
                for line in (path / name).read_text().splitlines()]
        assert rows and all(list(row) == field_names(record)
                            for row in rows), name
        assert name != "world.json" or len(rows) == 1


# ---------------------------------------------------------------------------
# world config

@pytest.mark.parametrize("key,value", [
    ("D", 0), ("F", 0), ("v_common", 0), ("n_speakers", 0),
    ("utts_per_speaker", 0), ("noise_sigma", -0.1),
    ("noise_sigma", float("nan")), ("pii_frac", 2.0), ("pii_frac", -0.5),
    ("duration_range", (5.0,)), ("duration_range", (12.0, 6.0)),
    ("duration_range", (0.0, 6.0)),
    ("duration_range", (6.0, MAX_DURATION_S * (1 + 1e-15))),
    ("duration_range", (1e15, 1e15)),
    ("n_speakers", 3), ("utts_per_speaker", 1),
])
def test_world_config_rejects_out_of_range(key, value):
    with pytest.raises(ConfigError, match=f"world.{key} "):
        WorldConfig(**{key: value})


def test_world_config_generates_what_the_functions_do():
    cfg = WorldConfig(D=8, F=12, v_common=24, n_speakers=4,
                      utts_per_speaker=3, duration_range=[6, 12])
    assert cfg.duration_range == (6, 12)
    assert WorldConfig(duration_range=[MAX_DURATION_S] * 2).duration_range \
        == (MAX_DURATION_S, MAX_DURATION_S)
    params = make_world_params(D=8, F=12, v_common=24, n_speakers=4,
                               noise_sigma=0.05, seed=2)
    ref = generate_world(params, 4, 3, np.random.default_rng(2),
                         duration_range=(6, 12), pii_frac=0.4)
    assert_same_dataset(cfg.generate(2), ref)


@pytest.mark.parametrize("n_speakers,utts,noise_sigma,duration_range", [
    (64, 12, 0.1, (6.0, 12.0)),     # the desk world
    (64, 12, 0.0, (6.0, 12.0)),     # no noise is drawn
    (2, 2, 0.1, (6.0, 12.0)),
    (4, 3, 0.1, (1.0, 2.0)),        # every utterance at the 3-token floor
])
def test_generate_world_matches_per_utterance_synthesis(n_speakers, utts,
                                                        noise_sigma,
                                                        duration_range):
    params = make_world_params(D=16, F=24, v_common=80, n_speakers=n_speakers,
                               noise_sigma=noise_sigma, seed=1)
    rngs = [np.random.default_rng(1) for _ in range(2)]
    got = generate_world(params, n_speakers, utts, rngs[0],
                         duration_range=duration_range, pii_frac=0.4)
    ref = generate_world_per_utterance(params, n_speakers, utts, rngs[1],
                                       duration_range=duration_range,
                                       pii_frac=0.4)
    assert_same_dataset(got, ref)
    # the same draws, in the same order
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_generate_world_peak_is_its_output_plus_one_speaker():
    """Frames are synthesized one speaker at a time: the traced peak of a
    desk ``generate_world`` stays within what it returns plus a few
    blocks the size of one speaker's frames (its noise, the gathered
    content imprint, the pitch imprint, their sums and the utterances'
    copies of their rows).  No utterance's frames are a view that keeps
    a speaker's block alive."""
    params = make_world_params(D=16, F=24, v_common=80, n_speakers=64,
                               noise_sigma=0.1, seed=1)
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        level = tracemalloc.get_traced_memory()[0]
        ds = generate_world(params, 64, 12, rng, duration_range=(6.0, 12.0),
                            pii_frac=0.4)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = {}
    for u in ds.utterances:
        block[u.speaker_id] = block.get(u.speaker_id, 0) + u.frames.nbytes
    assert peak - level <= current - level + 6 * max(block.values())
    assert all(u.frames.flags.owndata for u in ds.utterances)


@pytest.mark.parametrize("noise_sigma,fires", [(0.2, True), (0.05, False)])
@pytest.mark.parametrize("seed", range(1, 6))
def test_desk_margin_check_matches_all_column_pairs(noise_sigma, fires, seed):
    """The column check sums each pair once; every chunk against every
    column gives the same closest pair, so the same rescaled A."""
    p = make_world_params(D=16, F=24, v_common=80, n_speakers=64,
                          noise_sigma=noise_sigma, seed=seed)
    a = np.random.default_rng(seed).standard_normal((24, p.V))
    d2min = np.inf
    for j in range(0, p.V, 32):
        d2 = np.sum((a[:, :, None] - a[:, None, j:j + 32]) ** 2, axis=0)
        cols = np.arange(d2.shape[1])
        d2[j + cols, cols] = np.inf
        d2min = min(d2min, d2.min())
    dmin, margin = np.sqrt(d2min), 6.0 * noise_sigma * np.sqrt(24)
    assert (dmin <= margin) == fires
    if fires:
        a *= 1.05 * margin / dmin
    assert p.A.tobytes() == a.tobytes()


def test_failed_write_keeps_previous_files(tmp_path, monkeypatch):
    out = tmp_path / "d"
    save_dataset(small_world(seed=1)[1], out)
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    encode, calls = worldgen._json_arrays, []

    def failing(arrays):
        # world.json, then one row per batch: four speaker rows, then the
        # third utterance
        calls.append(arrays)
        if len(calls) == 8:
            raise RuntimeError("encoder failed")
        return encode(arrays)

    monkeypatch.setattr(worldgen, "_json_arrays", failing)
    monkeypatch.setattr(worldgen, "BATCH_VALUES", 1)
    with pytest.raises(RuntimeError, match="encoder failed"):
        save_dataset(small_world(seed=2)[1], out)
    assert len(calls) == 8 and any(a.ndim == 2 for a in calls[-1])
    assert sorted(before) == sorted(worldgen.DATASET_FILES)
    assert sorted(f.name for f in out.iterdir()) == sorted(before)
    for name, data in before.items():
        assert (out / name).read_bytes() == data, name


def edge_world():
    """A small world with edge values planted in its first rows and in
    ``world.json``, and one utterance of more values than the largest
    batch below."""
    _, ds = small_world(seed=11)
    edges = [-0.0, 1e-5, 9.9999999951e-5, 1e16, 1.0 / 3.0]
    plant(ds, edges)
    p = ds.params
    p.B[:len(edges)] = edges
    p.gender_means[1, :len(edges)] = edges
    p.noise_sigma = edges[2]
    u = ds.utterances[1]
    k = 65536 // (u.n_frames * (p.F + 2)) + 1
    ds.utterances[1] = dataclasses.replace(
        u, tokens=u.tokens * k, f0_hz=np.tile(u.f0_hz, k),
        p_norm=np.tile(u.p_norm, k), frames=np.tile(u.frames, (k, 1)))
    return ds


@pytest.mark.parametrize("world", ["desk", "edges"])
def test_save_does_not_depend_on_batch_size(tmp_path, monkeypatch,
                                            desk_datasets, world):
    ds = desk_datasets["world"] if world == "desk" else edge_world()
    saved = []
    for batch in (1, 7, 16384, 65536):
        monkeypatch.setattr(worldgen, "BATCH_VALUES", batch)
        digests = save_dataset(ds, tmp_path / str(batch))
        saved.append(({p.name: d for p, d in digests.items()},
                      {p.name: p.read_bytes()
                       for p in (tmp_path / str(batch)).iterdir()}))
    assert all(s == saved[0] for s in saved[1:])
    digests, files = saved[0]
    assert sorted(files) == sorted(DATASET_FILES)
    assert digests == {name: hashlib.sha256(data).hexdigest()
                       for name, data in files.items()}
    # the reference: world.json as one row of the per-value reference
    assert files["world.json"].decode() == reference_text(
        [world_dict(ds.params)])
    assert_same_dataset(*load_both(tmp_path / "1"))


def test_desk_world_rows_are_their_records_fields(tmp_path, desk_datasets):
    save_dataset(desk_datasets["world"], tmp_path)
    assert_rows_are_fields(tmp_path)


def test_rows_before_a_malformed_line_are_checked_first(tmp_path):
    """A bad field in line 2 is named before bad JSON in line 3, as when
    the rows were checked while they were parsed."""
    _, ds = small_world(seed=10)
    save_dataset(ds, tmp_path)
    path = tmp_path / "utterances.jsonl"
    lines = path.read_text().splitlines()
    d = json.loads(lines[1])
    d["frames_per_token"] = 0
    lines[1], lines[2] = json.dumps(d), lines[2][:30]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="utterances.jsonl:2: frames_per_token"):
        load_dataset(tmp_path)
    lines[1] = json.dumps({**d, "frames_per_token": 4})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="utterances.jsonl:3: not valid JSON"):
        load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# speaker extraction over frame-count blocks

def extract_speaker_reference(u, params):
    """The per-utterance formula that ``oracle_extract_speakers`` batches."""
    if u.n_frames == 0:
        raise InputError("utterance has no frames")
    frame_tokens = np.repeat(u.tokens, u.frames_per_token)
    resid = (u.frames - params.A[:, frame_tokens].T
             - np.outer(u.p_norm, params.B))
    return params.c_pinv @ resid.mean(axis=0)


def assert_extracts_as_reference(ds):
    got = oracle_extract_speakers(ds.utterances, ds.params)
    want = np.array([extract_speaker_reference(u, ds.params)
                     for u in ds.utterances])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return got


@pytest.fixture(scope="module")
def desk_datasets():
    """The desk world, and the world anonymized and then redacted by small
    untrained models, as ``anonymize`` and ``seca --mapping`` make them."""
    ds = WorldConfig(n_speakers=64, utts_per_speaker=12, noise_sigma=0.1,
                     duration_range=(6.0, 12.0), pii_frac=0.4).generate(1)
    p = ds.params
    backbone = BackboneModel(frame_dim=p.F, speaker_dim=p.D, vocab_size=p.V,
                             config=BackboneConfig(content_dim=8,
                                                   hidden=(16, 16)))
    backbone.codebook.entries = backbone.f_sem(np.arange(p.V))
    anonymizer = AnonymizerModel(AnonymizerConfig(), metadata=None)
    rng = np.random.default_rng(2)
    anon, mapping = anonymized(backbone, anonymizer, ds,
                               WeightStrategy(kind="fixed", w=0.5), 4, rng)
    red, _ = anonymize_content(backbone, anon, ReplacementPool(anon.pool),
                               build_gazetteer(anon), 4, rng, mapping=mapping,
                               p_asr=0.0)
    return {"world": ds, "anonymized": anon, "redacted": red}


@pytest.mark.parametrize("name", ["world", "anonymized", "redacted"])
def test_extraction_matches_per_utterance_formula(desk_datasets, name):
    ds = desk_datasets[name]
    assert len({u.n_frames for u in ds.utterances}) > 1
    assert_extracts_as_reference(ds)


def test_extraction_over_mixed_frame_counts():
    """Frame counts in no order, some of them held by one utterance only,
    and a single utterance alone."""
    p, ds = small_world(seed=6, utts=6, duration_range=(3.0, 30.0))
    counts = [u.n_frames for u in ds.utterances]
    assert any(counts.count(n) == 1 for n in counts)
    assert any(counts.count(n) > 1 for n in counts)
    assert_extracts_as_reference(ds)
    one = dataclasses.replace(ds, utterances=ds.utterances[3:4])
    assert_extracts_as_reference(one)
    assert np.array_equal(oracle_extract_speaker(ds.utterances[3], p),
                          extract_speaker_reference(ds.utterances[3], p))


def test_extraction_of_nan_frames_gives_nan_rows():
    p, ds = small_world(seed=7, utts=4)
    utts = list(ds.utterances)
    for i in (1, 6):
        frames = utts[i].frames.copy()
        frames[2, 3] = np.nan
        utts[i] = dataclasses.replace(utts[i], frames=frames)
    got = assert_extracts_as_reference(dataclasses.replace(ds, utterances=utts))
    assert np.flatnonzero(np.isnan(got).any(axis=1)).tolist() == [1, 6]
    assert np.isnan(got[[1, 6]]).all()


def test_extraction_of_an_empty_utterance_is_an_input_error():
    p, ds = small_world(seed=8)
    utts = list(ds.utterances)
    utts[2] = dataclasses.replace(utts[2], tokens=[], frames=np.zeros((0, p.F)),
                                  f0_hz=np.zeros(0), p_norm=np.zeros(0))
    with pytest.raises(InputError, match="utterance has no frames"):
        extract_speaker_reference(utts[2], p)
    with pytest.raises(InputError, match="utterance has no frames"):
        oracle_extract_speakers(utts, p)
    with pytest.raises(InputError, match="utterance has no frames"):
        oracle_extract_speaker(utts[2], p)
