import io
import json
import tempfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anonflow import worldgen
from anonflow.errors import ConfigError, InputError
from anonflow.worldgen import (PII_TYPES, WorldParams, _round9,
                               generate_world, load_dataset, make_world_params,
                               oracle_extract_speaker, oracle_recover_tokens,
                               sample_speaker_embedding, save_dataset,
                               synth_frames, token_error_rate)


def recover_tokens_by_difference(frames, p_norm, s, params):
    """Reference token recovery: exact distances from the (T, V, F)
    difference tensor, ties to the lowest token id."""
    resid = frames - np.outer(p_norm, params.B) - params.C @ s
    diff = resid[:, None, :] - params.A.T[None, :, :]
    return np.argmin(np.einsum("tvf,tvf->tv", diff, diff), axis=1)


def small_params(noise_sigma=0.05, seed=0, n_speakers=4):
    return make_world_params(D=8, F=12, v_common=24, n_speakers=n_speakers,
                             noise_sigma=noise_sigma, seed=seed)


def small_world(noise_sigma=0.05, seed=0, n_speakers=4, utts=4, **kw):
    p = small_params(noise_sigma=noise_sigma, seed=seed, n_speakers=n_speakers)
    return p, generate_world(p, n_speakers, utts, np.random.default_rng(seed), **kw)


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
        p = make_world_params(D=8, F=12, v_common=24, n_speakers=4, noise_sigma=0.4)
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

    def test_round_trip_dict(self):
        p = small_params()
        q = WorldParams.from_dict(p.from_dict(p.to_dict()).to_dict())
        assert q.V == p.V and q.D == p.D
        assert np.allclose(q.A, p.A, atol=1e-6)


class TestGenerateWorld:
    def test_counts_and_gender_split(self):
        p = make_world_params(D=16, F=24, v_common=64, n_speakers=10)
        ds = generate_world(p, 10, 10, np.random.default_rng(1))
        assert len(ds.utterances) == 100
        males = [s for s in ds.speakers if s.gender == "male"]
        assert len(males) == 5

    def test_odd_speakers_rejected(self):
        p = small_params()
        with pytest.raises(InputError):
            generate_world(p, 3, 4, np.random.default_rng(0))

    def test_single_utt_rejected(self):
        p = small_params()
        with pytest.raises(InputError):
            generate_world(p, 4, 1, np.random.default_rng(0))

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
            assert u.frame_tokens.shape[0] == u.n_frames
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
        frames = synth_frames(p, tok, np.zeros(12), s)
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
        ds = generate_world(p, 4, 2, np.random.default_rng(2),
                            duration_range=(12.0, 13.0), frame_rate=16.0)
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


def round9_reference(obj):
    """One recursive call per value: the plain form of ``_round9``."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: round9_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9_reference(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return round9_reference(obj.tolist())
    if isinstance(obj, np.floating):
        return round9_reference(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def encoded(rows) -> str:
    """The dataset writer's text for a list of row dicts."""
    f = io.BytesIO()
    worldgen._write_jsonl(f, rows)
    return f.getvalue().decode()


def reference_text(rows) -> str:
    return "".join(json.dumps(round9_reference(r)) + "\n" for r in rows)


@pytest.mark.parametrize("shape", [(0,), (7,), (33,), (5, 4), (1, 24), (3, 0),
                                   (2, 3, 4)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_round9_matches_per_value_recursion(shape, dtype):
    rng = np.random.default_rng(0)
    special = [-0.0, 0.0, 1e-5, -1e-5, 1e9, 123456789.0, 3.0, -2.0,
               1.0 / 3.0, 2.5e-300, 6.02214076e23]
    scaled = rng.standard_normal(64) * 10.0 ** rng.integers(-6, 9, 64)
    a = np.resize(np.concatenate([special, scaled]), shape).astype(dtype)
    mixed = {"x": a, "row": [1.0 / 3.0, 2, True, None, "s", np.float32(0.1),
                             np.int64(7), (0.5, [-0.0, 1e-5])]}
    for obj in (a, a.tolist(), mixed):
        assert json.dumps(_round9(obj)) == json.dumps(round9_reference(obj))
    assert encoded([mixed]) == reference_text([mixed])


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
    rows = [{"a": a, "x": 1.0 / 3.0}, {"b": a[::-1], "n": 2}]
    assert encoded(rows) == reference_text(rows)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from([2, 4]), st.integers(2, 3))
def test_save_load_save_is_byte_identical(seed, n_speakers, utts):
    _, ds = small_world(seed=seed, n_speakers=n_speakers, utts=utts)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        save_dataset(ds, first)
        save_dataset(load_dataset(first), second)
        for name in ("world.json", "speakers.jsonl", "utterances.jsonl",
                     "replacement_pool.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


def test_failed_write_keeps_previous_files(tmp_path, monkeypatch):
    out = tmp_path / "d"
    save_dataset(small_world(seed=1)[1], out)
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    encode, calls = worldgen._json_arrays, []

    def failing(arrays):
        # one row per batch: four speaker rows, then the third utterance
        calls.append(arrays)
        if len(calls) == 7:
            raise RuntimeError("encoder failed")
        return encode(arrays)

    monkeypatch.setattr(worldgen, "_json_arrays", failing)
    monkeypatch.setattr(worldgen, "BATCH_VALUES", 1)
    with pytest.raises(RuntimeError, match="encoder failed"):
        save_dataset(small_world(seed=2)[1], out)
    assert len(calls) == 7 and any(a.ndim == 2 for a in calls[-1])
    assert sorted(before) == sorted(worldgen.DATASET_FILES)
    assert sorted(f.name for f in out.iterdir()) == sorted(before)
    for name, data in before.items():
        assert (out / name).read_bytes() == data, name
