import numpy as np
import pytest

from anonflow.errors import InputError
from anonflow.evaluation import (DURATION_WINDOW, Trial, build_trials,
                                 compute_eer,
                                 content_embedding, content_speaker_model,
                                 cosine_score, enrollment_embedding, load_trials,
                                 run_attack, save_scores, save_trials,
                                 score_trials, utility_probes)
from anonflow.worldgen import generate_world, make_world_params


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
        assert sum(t.label for t in trials) == 8

    def test_duration_filter_empties(self, world):
        p, _ = world
        lo, hi = DURATION_WINDOW
        # every utterance shorter, then every one longer, than the window
        for span in ((lo / 4, lo / 2), (2 * hi, 3 * hi)):
            ds = generate_world(p, 4, 4, np.random.default_rng(9),
                                duration_range=span)
            assert not any(lo <= u.duration_s <= hi for u in ds.utterances)
            assert build_trials(ds, "acoustic", np.random.default_rng(0)) == []

    def test_negatives_are_different_speaker(self, world):
        _, ds = world
        trials = build_trials(ds, "acoustic", np.random.default_rng(0))
        spk_of = {u.id: u.speaker_id for u in ds.utterances}
        for t in trials:
            if t.label == 0:
                assert spk_of[t.test_utterance_id] != t.enroll_speaker_id
            else:
                assert spk_of[t.test_utterance_id] == t.enroll_speaker_id

    def test_gender_balanced_negatives(self, world):
        _, ds = world
        trials = build_trials(ds, "acoustic", np.random.default_rng(0))
        gender = {u.id: u.gender for u in ds.utterances}
        by_enroll = {}
        for t in trials:
            if t.label == 0:
                by_enroll.setdefault(t.enroll_speaker_id, []).append(
                    gender[t.test_utterance_id])
        for genders in by_enroll.values():
            assert "male" in genders and "female" in genders

    def test_content_mode_only_pii(self, world):
        _, ds = world
        trials = build_trials(ds, "content", np.random.default_rng(0))
        pii_ids = {u.id for u in ds.utterances if u.has_pii}
        assert all(t.test_utterance_id in pii_ids for t in trials)

    def test_same_seed_reproducible(self, world, tmp_path):
        _, ds = world
        a = build_trials(ds, "acoustic", np.random.default_rng(7))
        b = build_trials(ds, "acoustic", np.random.default_rng(7))
        assert a == b
        save_trials(a, tmp_path / "t.tsv")
        assert load_trials(tmp_path / "t.tsv") == a


class TestScoreTrials:
    def test_matches_cosine_score_bit_for_bit(self):
        rng = np.random.default_rng(5)
        enroll = {f"s{i}": rng.standard_normal(8) for i in range(6)}
        test = {f"u{j}": rng.standard_normal(8) for j in range(20)}
        enroll["s0"] = np.zeros(8)
        test["u3"] = np.zeros(8)
        trials = [Trial(f"s{i}", f"u{j}", int(j % 6 == i))
                  for i in range(6) for j in range(20)]
        scores, labels = score_trials(trials, enroll, test)
        want = [cosine_score(enroll[t.enroll_speaker_id],
                             test[t.test_utterance_id]) for t in trials]
        assert scores == want
        assert labels == [t.label for t in trials]
        assert scores[3] == 0.0 and scores[20 + 3] == 0.0


class TestContentModel:
    def test_disjoint_vocabularies_separate_perfectly(self):
        tr = {"a": [[1, 2, 1], [2, 2]], "b": [[8, 9], [9, 9, 8]]}
        model = content_speaker_model(tr, 16)
        trials = [Trial("a", "ua", 1), Trial("a", "ub", 0),
                  Trial("b", "ub", 1), Trial("b", "ua", 0)]
        test = {"ua": content_embedding([1, 1, 2], 16),
                "ub": content_embedding([8, 9, 9], 16)}
        scores, labels = score_trials(trials, model, test)
        assert compute_eer(scores, labels) == 0.0

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
    trials = [Trial("s0", "u0", 1), Trial("s1", "u1", 0)]
    save_scores(trials, [0.123456789123, -0.5], tmp_path / "s.tsv")
    lines = (tmp_path / "s.tsv").read_text().splitlines()
    assert lines[0] == "s0\tu0\t1\t0.123456789"
    assert lines[1] == "s1\tu1\t0\t-0.5"
