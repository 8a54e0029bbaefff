import dataclasses
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
from anonflow.worldgen import (ARRAY_FIELDS, CACHE_FILES, DATASET_FILES,
                               MAX_DURATION_S, PII_TYPES, PoolEntry, Speaker,
                               Utterance, WorldConfig, WorldParams, _round9,
                               generate_world, load_dataset, load_params,
                               make_world_params, oracle_extract_speaker,
                               oracle_recover_tokens, sample_speaker_embedding,
                               sample_speaker_embeddings, save_dataset,
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

    def test_round_trip_dict(self, tmp_path):
        p = small_params()
        (tmp_path / "world.json").write_text(json.dumps(p.to_dict()))
        q = load_params(tmp_path)
        assert q.to_dict() == p.to_dict()
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
                            duration_range=(48.0, 52.0))
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
    p = make_world_params(D=D, F=D + 4, v_common=24, n_speakers=4, seed=D)
    loop_rng, batch_rng = np.random.default_rng(5), np.random.default_rng(5)
    rows = [sample_speaker_embedding(p, ("male", "female")[i % 2], loop_rng)
            for i in range(n)]
    batch = sample_speaker_embeddings(p, n, batch_rng)
    assert batch.shape == (n, D)
    assert np.array_equal(batch, np.reshape(rows, (n, D)))
    # the stream goes on where n one-row draws leave it
    assert loop_rng.random() == batch_rng.random()


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


# ---------------------------------------------------------------------------
# the array cache beside the JSONL text

def assert_same_dataset(a, b):
    """Equal rows, and float arrays equal bit for bit (NaN and -0.0 too)."""
    assert a.params.to_dict() == b.params.to_dict()
    for xs, ys in ((a.speakers, b.speakers), (a.utterances, b.utterances),
                   (a.pool, b.pool)):
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            for k, v in vars(x).items():
                w = getattr(y, k)
                if isinstance(v, np.ndarray):
                    assert (v.dtype, v.shape, v.tobytes()) == \
                           (w.dtype, w.shape, w.tobytes()), k
                else:
                    assert (type(v), v) == (type(w), w), k


def text_only():
    """A ``_parse_jsonl`` that refuses the files the cache stores."""
    parse = worldgen._parse_jsonl

    def refusing(path):
        if path.name in ARRAY_FIELDS:
            raise AssertionError(f"parsed {path.name}")
        return parse(path)
    return refusing


def load_both(d):
    """(the dataset from the cache, the dataset from the text) of ``d``;
    the first load must not parse the JSONL files that the cache holds."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(worldgen, "_parse_jsonl", text_only())
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


def test_edited_jsonl_loads_the_edit(tmp_path):
    _, ds = small_world(seed=4)
    save_dataset(ds, tmp_path)
    path = tmp_path / "utterances.jsonl"
    lines = path.read_text().splitlines()
    start = lines[0].index('"frames": [[') + len('"frames": [[')
    end = lines[0].index(",", start)
    digit = lines[0][end - 1]
    edited = lines[0][start:end - 1] + ("1" if digit == "0" else "0")
    lines[0] = lines[0][:start] + edited + lines[0][end:]
    path.write_text("\n".join(lines) + "\n")
    frames = load_dataset(tmp_path).utterances[0].frames
    assert frames[0, 0] == float(edited) != ds.utterances[0].frames[0, 0]


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


def test_hit_reads_no_jsonl_text_that_cache_holds(tmp_path, monkeypatch):
    save_dataset(small_world(seed=6)[1], tmp_path)
    monkeypatch.setattr(worldgen, "_parse_jsonl", text_only())
    load_dataset(tmp_path)
    (tmp_path / "arrays.f64").unlink()
    with pytest.raises(AssertionError, match="parsed speakers.jsonl"):
        load_dataset(tmp_path)


def test_cache_left_out_for_rows_it_cannot_hold(tmp_path):
    _, ds = small_world(seed=7)
    save_dataset(ds, tmp_path)
    ds.utterances[1].p_norm = ds.utterances[1].p_norm.tolist()
    save_dataset(ds, tmp_path)
    assert not any((tmp_path / n).exists() for n in CACHE_FILES)
    assert load_dataset(tmp_path).utterances[1].p_norm.tolist() == \
           [float(f"{x:.9g}") for x in ds.utterances[1].p_norm]


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
    """Each saved record holds exactly its dataclass's fields, in order, so
    a field that is added but not saved fails."""
    world = json.loads((path / "world.json").read_text())
    assert list(world) == field_names(WorldParams)
    for name, record, extra in [("speakers.jsonl", Speaker, []),
                                ("utterances.jsonl", Utterance, []),
                                ("replacement_pool.jsonl", PoolEntry,
                                 ["length"])]:
        rows = [json.loads(line)
                for line in (path / name).read_text().splitlines()]
        assert rows and all(list(row) == field_names(record) + extra
                            for row in rows)


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
