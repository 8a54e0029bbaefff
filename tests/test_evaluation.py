import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonflow import evaluation
from anonflow.errors import DataError, InputError
from anonflow.evaluation import (DURATION_WINDOW, Trials, build_trials,
                                 compute_eer,
                                 content_embedding, content_speaker_model,
                                 cosine_score, enrollment_embedding, load_trials,
                                 run_attack, save_scores, save_trials,
                                 score_trials, utility_probes)
from anonflow.worldgen import generate_world, make_world_params


def table(rows):
    """A trial table from (enroll, test, label) rows."""
    enroll, test, label = zip(*rows) if rows else ((), (), ())
    return Trials(list(enroll), list(test), np.array(label, dtype=np.int64))


def rows_of(trials):
    return list(zip(trials.enroll, trials.test, trials.label.tolist()))


def brute_force_eer(scores, labels):
    """Independent O(n^2) threshold sweep with explicit crossing search."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    tar = scores[labels == 1]
    non = scores[labels == 0]
    ths = sorted(set(scores)) + [np.inf]
    ths = [-np.inf] + ths
    pts = []
    for th in ths:
        far = sum(1 for s in non if s >= th) / len(non)
        frr = sum(1 for s in tar if s < th) / len(tar)
        pts.append((far, frr))
    prev = pts[0]
    for cur in pts[1:]:
        d0 = prev[0] - prev[1]
        d1 = cur[0] - cur[1]
        if d0 == 0.0:
            return 100.0 * prev[0]
        if d0 > 0.0 and d1 <= 0.0:
            if d1 == 0.0:
                return 100.0 * cur[0]
            a = d0 / (d0 - d1)
            return 100.0 * (prev[0] + a * (cur[0] - prev[0]))
        prev = cur
    return 100.0 * pts[-1][0]


@pytest.fixture(scope="module")
def world():
    p = make_world_params(D=8, F=12, v_common=24, n_speakers=4,
                          noise_sigma=0.05, seed=9)
    ds = generate_world(p, 4, 4, np.random.default_rng(9),
                        duration_range=(6.0, 12.0))
    return p, ds


class TestEER:
    def test_perfect_separation(self):
        assert compute_eer([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 0.0

    def test_full_inversion(self):
        assert compute_eer([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 100.0

    def test_interleaved_fifty(self):
        assert compute_eer([0.6, 0.4, 0.5, 0.3],
                           [1, 1, 0, 0]) == pytest.approx(50.0)

    def test_one_class_rejected(self):
        with pytest.raises(InputError):
            compute_eer([0.1, 0.2], [1, 1])

    def test_matches_brute_force_on_200_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(4, 500))
            labels = np.zeros(n, dtype=int)
            k = int(rng.integers(1, n))
            labels[:k] = 1
            sep = rng.uniform(-1.0, 1.0)
            scores = rng.standard_normal(n) + sep * labels
            # the same set on a coarse grid, where most scores tie
            for s in (scores, np.round(2.0 * scores) / 2.0):
                assert compute_eer(s, labels) == brute_force_eer(s, labels)

    def test_rank_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(100)
        labels = (rng.random(100) < 0.5).astype(int)
        labels[0], labels[1] = 1, 0   # both classes present
        base = compute_eer(scores, labels)
        for f in (lambda s: 3 * s + 2, np.tanh, lambda s: s**3 + 0.1 * s):
            assert compute_eer(f(scores), labels) == pytest.approx(base,
                                                                   abs=1e-12)


class TestEnrollment:
    def test_single_embedding_is_itself(self):
        e = np.array([0.3, -0.4])
        assert np.array_equal(enrollment_embedding([e]), e)

    def test_mean_no_renormalization(self):
        out = enrollment_embedding([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(out, [0.5, 0.5])

    def test_opposite_embeddings_cancel_then_score_zero(self):
        e = np.array([1.0, 0.0])
        z = enrollment_embedding([e, -e])
        assert np.array_equal(z, [0.0, 0.0])
        assert cosine_score(z, e) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            enrollment_embedding(np.zeros((0, 4)))


class TestTrials:
    def test_counting_example_16_trials_8_positive(self):
        p = make_world_params(D=8, F=12, v_common=24, n_speakers=2, seed=11)
        ds = generate_world(p, 2, 2, np.random.default_rng(11),
                            duration_range=(6.0, 12.0))
        trials = build_trials(ds, "acoustic", np.random.default_rng(0))
        assert len(trials) == 16
        assert int(trials.label.sum()) == 8

    def test_duration_filter_empties(self, world):
        p, _ = world
        lo, hi = DURATION_WINDOW
        # every utterance shorter, then every one longer, than the window
        for span in ((lo / 4, lo / 2), (2 * hi, 3 * hi)):
            ds = generate_world(p, 4, 4, np.random.default_rng(9),
                                duration_range=span)
            assert not any(lo <= u.duration_s <= hi for u in ds.utterances)
            assert len(build_trials(ds, "acoustic",
                                    np.random.default_rng(0))) == 0

    def test_negatives_are_different_speaker(self, world):
        _, ds = world
        trials = build_trials(ds, "acoustic", np.random.default_rng(0))
        spk_of = {u.id: u.speaker_id for u in ds.utterances}
        for sid, uid, label in rows_of(trials):
            if label == 0:
                assert spk_of[uid] != sid
            else:
                assert spk_of[uid] == sid

    def test_gender_balanced_negatives(self, world):
        _, ds = world
        trials = build_trials(ds, "acoustic", np.random.default_rng(0))
        gender = {u.id: u.gender for u in ds.utterances}
        by_enroll = {}
        for sid, uid, label in rows_of(trials):
            if label == 0:
                by_enroll.setdefault(sid, []).append(gender[uid])
        for genders in by_enroll.values():
            assert "male" in genders and "female" in genders

    def test_content_mode_only_pii(self, world):
        _, ds = world
        trials = build_trials(ds, "content", np.random.default_rng(0))
        pii_ids = {u.id for u in ds.utterances if u.has_pii}
        assert set(trials.test) <= pii_ids

    def test_same_seed_reproducible(self, world, tmp_path):
        _, ds = world
        a = build_trials(ds, "acoustic", np.random.default_rng(7))
        b = build_trials(ds, "acoustic", np.random.default_rng(7))
        assert rows_of(a) == rows_of(b)
        save_trials(a, tmp_path / "t.tsv")
        assert rows_of(load_trials(tmp_path / "t.tsv")) == rows_of(a)


def build_trials_by_rows(dataset, mode, rng):
    """The row-by-row construction build_trials replaces: each speaker's
    negative pools filtered from every other speaker's candidates, O(S*U)
    per gender, and one (enroll, test, label) row per trial."""
    if mode == "acoustic":
        lo, hi = DURATION_WINDOW
        cands = [u for u in dataset.utterances if lo <= u.duration_s <= hi]
    else:
        cands = [u for u in dataset.utterances if u.has_pii]
    genders = {s.id: s.gender for s in dataset.speakers}
    by_speaker = {}
    for u in cands:
        by_speaker.setdefault(u.speaker_id, []).append(u)
    neg_pools = {}
    for sid in by_speaker:
        others = [u for u in cands if u.speaker_id != sid]
        for gender in ("male", "female"):
            neg_pools[sid, gender] = [u for u in others
                                      if genders[u.speaker_id] == gender] or others
    rows = []
    for enroll in cands:
        same = [u for u in by_speaker[enroll.speaker_id] if u.id != enroll.id]
        if not same:
            continue
        if len(same) >= 2:
            picks = rng.choice(len(same), size=2, replace=False)
            positives = [same[int(i)] for i in picks]
        else:
            positives = [same[0], same[0]]
        for pos in positives:
            rows.append((enroll.speaker_id, pos.id, 1))
        for gender in ("male", "female"):
            neg_pool = neg_pools[enroll.speaker_id, gender]
            neg = neg_pool[int(rng.integers(len(neg_pool)))]
            rows.append((enroll.speaker_id, neg.id, 0))
    return rows


def _one_female(ds, female_candidates=True):
    """``ds`` with every speaker but the last male, so that the female
    list holds one speaker; without ``female_candidates`` that speaker's
    utterances fall outside the duration window too."""
    last = ds.speakers[-1].id
    speakers = [dataclasses.replace(s, gender="female" if s.id == last
                                    else "male") for s in ds.speakers]
    utts = [u if female_candidates or u.speaker_id != last
            else dataclasses.replace(u, duration_s=2 * DURATION_WINDOW[1])
            for u in ds.utterances]
    return dataclasses.replace(ds, speakers=speakers, utterances=utts)


class TestTrialReference:
    @pytest.mark.parametrize("mode", ["acoustic", "content"])
    @pytest.mark.parametrize("variant", ["balanced", "one-female",
                                         "female-without-candidates"])
    def test_matches_row_by_row_construction(self, mode, variant):
        p = make_world_params(D=8, F=12, v_common=24, n_speakers=6, seed=4)
        ds = generate_world(p, 6, 6, np.random.default_rng(4),
                            duration_range=(4.0, 16.0), pii_frac=0.5)
        if variant != "balanced":
            ds = _one_female(ds, variant == "one-female")
        for seed in range(3):
            got = build_trials(ds, mode, np.random.default_rng(seed))
            want = build_trials_by_rows(ds, mode, np.random.default_rng(seed))
            assert len(want) > 0 and rows_of(got) == want
            assert got.label.dtype == np.int64


def unit_scaled(v):
    """``v`` divided by its largest magnitude when it is finite and
    nonzero but its norm comes out below sqrt(tiny) or inf."""
    n = np.linalg.norm(v)
    if (not np.sqrt(np.finfo(float).tiny) <= n < np.inf
            and np.isfinite(v).all() and v.any()):
        return v / np.abs(v).max()
    return v


def score_per_trial(trials, enroll_embs, test_embs):
    """The per-trial loop score_trials replaces: each vector rescaled and
    its norm taken once, then one np.dot per trial."""
    enroll = {i: unit_scaled(enroll_embs[i]) for i in trials.enroll}
    test = {i: unit_scaled(test_embs[i]) for i in trials.test}
    na = {i: np.linalg.norm(v) for i, v in enroll.items()}
    nb = {i: np.linalg.norm(v) for i, v in test.items()}
    scores = []
    for a, b in zip(trials.enroll, trials.test):
        if na[a] == 0.0 or nb[b] == 0.0:
            scores.append(0.0)
        else:
            scores.append(float(np.dot(enroll[a], test[b]) / (na[a] * nb[b])))
    return np.array(scores)


def _vector(d):
    """A zero vector, or d values in [-1, 1] scaled by 10**e for e in
    [-300, 300]."""
    return st.one_of(
        st.just(np.zeros(d)),
        st.builds(lambda m, e: np.array(m) * 10.0 ** e,
                  st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d),
                  st.integers(-300, 300)))


@st.composite
def _scoring_case(draw):
    d = draw(st.integers(1, 6))
    enroll = draw(st.lists(_vector(d), min_size=1, max_size=4))
    test = draw(st.lists(_vector(d), min_size=1, max_size=6))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(enroll) - 1),
                                    st.integers(0, len(test) - 1)),
                          min_size=1, max_size=40))
    return ({f"s{i}": v for i, v in enumerate(enroll)},
            {f"u{j}": v for j, v in enumerate(test)},
            table([(f"s{i}", f"u{j}", (i + j) % 2) for i, j in pairs]))


class TestScoreTrials:
    def test_matches_cosine_score_bit_for_bit(self):
        rng = np.random.default_rng(5)
        enroll = {f"s{i}": rng.standard_normal(8) for i in range(6)}
        test = {f"u{j}": rng.standard_normal(8) for j in range(20)}
        enroll["s0"] = np.zeros(8)
        test["u3"] = np.zeros(8)
        trials = table([(f"s{i}", f"u{j}", int(j % 6 == i))
                        for i in range(6) for j in range(20)])
        scores = score_trials(trials, enroll, test)
        want = [cosine_score(enroll[a], test[b])
                for a, b in zip(trials.enroll, trials.test)]
        assert scores.tolist() == want
        assert scores[3] == 0.0 and scores[20 + 3] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(_scoring_case())
    def test_matches_per_trial_loop_bit_for_bit(self, case):
        enroll, test, trials = case
        with np.errstate(all="ignore"):
            got = score_trials(trials, enroll, test)
            want = score_per_trial(trials, enroll, test)
        assert got.tobytes() == want.tobytes()
        assert np.all(np.abs(got) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("scale", [1e300, 1e200, 1e-161, 1e-200, 1e-300])
    def test_extreme_magnitudes_score_their_cosine(self, scale):
        a, b = np.array([3.0, 4.0]), np.array([4.0, 3.0])
        with np.errstate(all="ignore"):
            assert cosine_score(a * scale, b * scale) == pytest.approx(0.96)
            assert cosine_score(a * scale, b) == pytest.approx(0.96)
            assert cosine_score(a * scale, a * scale) == pytest.approx(1.0)

    def test_non_finite_embedding_names_its_first_id(self):
        enroll = {"s0": np.ones(3), "s1": np.array([1.0, np.nan, 0.0])}
        test = {"u0": np.ones(3), "u1": np.array([np.inf, 0.0, 0.0])}
        with pytest.raises(DataError, match="utterance 'u1' is not finite"):
            score_trials(table([("s0", "u0", 1), ("s0", "u1", 0)]),
                         enroll, test)
        with pytest.raises(DataError, match="speaker 's1' is not finite"):
            score_trials(table([("s0", "u1", 0), ("s1", "u0", 0)]),
                         enroll, test)

    @pytest.mark.parametrize("d", [16, 700])
    def test_chunks_match_per_trial_loop(self, d):
        rng = np.random.default_rng(6)
        enroll = {f"s{i}": rng.standard_normal(d) for i in range(8)}
        test = {f"u{j}": rng.standard_normal(d) for j in range(50)}
        enroll["s2"] = np.zeros(d)
        n = 2 * (evaluation.GATHER_VALUES // d) + 7
        trials = table([(f"s{i}", f"u{j}", 0) for i, j in zip(
            rng.integers(8, size=n), rng.integers(50, size=n))])
        got = score_trials(trials, enroll, test)
        assert got.tobytes() == score_per_trial(trials, enroll, test).tobytes()


class TestContentModel:
    def test_disjoint_vocabularies_separate_perfectly(self):
        tr = {"a": [[1, 2, 1], [2, 2]], "b": [[8, 9], [9, 9, 8]]}
        model = content_speaker_model(tr, 16)
        trials = table([("a", "ua", 1), ("a", "ub", 0),
                        ("b", "ub", 1), ("b", "ua", 0)])
        test = {"ua": content_embedding([1, 1, 2], 16),
                "ub": content_embedding([8, 9, 9], 16)}
        scores = score_trials(trials, model, test)
        assert compute_eer(scores, trials.label) == 0.0

    def test_permutation_null_near_fifty(self):
        rng = np.random.default_rng(2)
        eers = []
        for _ in range(20):
            scores = rng.standard_normal(400)
            labels = np.zeros(400, dtype=int)
            labels[:200] = 1
            rng.shuffle(labels)
            eers.append(compute_eer(scores, labels))
        assert abs(np.mean(eers) - 50.0) < 5.0

    def test_too_few_speakers_rejected(self):
        with pytest.raises(InputError):
            content_speaker_model({"a": [[1]]}, 4)


class TestAttack:
    def test_identity_system_near_zero_eer(self, world):
        p, ds = world
        mapping = {s.id: (1.0, s.embedding) for s in ds.speakers}
        rep = run_attack(ds, ds, mapping, "ignorant", "acoustic",
                         np.random.default_rng(0))
        assert rep.a_eer < 5.0
        assert rep.token_error_rate <= 1.0
        assert rep.secs_proxy >= 0.99
        assert len(rep.trials) == len(rep.scores) == \
            rep.counts["acoustic_trials"]
        assert "trials" not in rep.to_dict() and "scores" not in rep.to_dict()

    def test_utility_only_with_mapping(self, world):
        _, ds = world
        rep = run_attack(ds, ds, None, "ignorant", "acoustic",
                         np.random.default_rng(0))
        assert rep.a_eer is not None
        assert rep.token_error_rate is None and rep.secs_proxy is None

    def test_unknown_attacker_rejected(self, world):
        _, ds = world
        with pytest.raises(InputError):
            run_attack(ds, ds, None, "semi_informed", "acoustic",
                       np.random.default_rng(0))

    def test_lazy_requires_model(self, world):
        _, ds = world
        with pytest.raises(InputError):
            run_attack(ds, ds, None, "lazy_informed", "acoustic",
                       np.random.default_rng(0))


class TestUtility:
    def test_ground_truth_dataset_scores_cleanly(self, world):
        p, ds = world
        mapping = {s.id: (1.0, s.embedding) for s in ds.speakers}
        ter, secs = utility_probes(ds, p, mapping)
        assert ter <= 1.0
        assert secs >= 0.99

    def test_noise_frames_score_near_chance(self, world):
        p, ds = world
        rng = np.random.default_rng(3)
        noisy = []
        import dataclasses
        for u in ds.utterances:
            noisy.append(dataclasses.replace(
                u, frames=20.0 * rng.standard_normal(u.frames.shape)))
        ds_noise = dataclasses.replace(ds, utterances=noisy)
        mapping = {s.id: (1.0, s.embedding) for s in ds.speakers}
        ter, _ = utility_probes(ds_noise, p, mapping)
        assert ter > 100.0 * (p.V - 1) / p.V - 15.0


def test_score_file_format(tmp_path):
    trials = table([("s0", "u0", 1), ("s1", "u1", 0)])
    save_scores(trials, np.array([0.123456789123, -0.5]), tmp_path / "s.tsv")
    lines = (tmp_path / "s.tsv").read_text().splitlines()
    assert lines[0] == "s0\tu0\t1\t0.123456789"
    assert lines[1] == "s1\tu1\t0\t-0.5"


def test_trial_file_round_trip_and_labels(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("s0\tu0\t1\ns1\tu1\t 0\ns0\tu2\t+1\r\ns1\tu3\t00\n")
    trials = load_trials(path)
    assert rows_of(trials) == [("s0", "u0", 1), ("s1", "u1", 0),
                               ("s0", "u2", 1), ("s1", "u3", 0)]
    save_trials(trials, tmp_path / "u.tsv")
    assert (tmp_path / "u.tsv").read_text() == \
        "s0\tu0\t1\ns1\tu1\t0\ns0\tu2\t1\ns1\tu3\t0\n"
    path.write_text("")
    assert len(load_trials(path)) == 0


@pytest.mark.parametrize("rows,named", [
    (["s\tu\t1", "s\tu\t1\tx", "s\tu"], "t.tsv:2: bad trial row"),
    (["s\tu\t1", "s\tu\t0", "", "s\tu\t1"], "t.tsv:3: bad trial row"),
    (["s\tu\t1", "s\tu\t1", "s\tu\t-1"], "t.tsv:3: .* got -1"),
    (["s\tu\t2", "s\tu\tno"], "t.tsv:1: .* got 2"),
])
def test_malformed_trial_file_names_first_bad_row(tmp_path, rows, named):
    path = tmp_path / "t.tsv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match=named):
        load_trials(path)
