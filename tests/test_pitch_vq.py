import numpy as np
import pytest
from hypothesis import given, strategies as st

from anonflow.errors import InputError
from anonflow.pitch import F_REF, normalize_pitch
from anonflow.vq import (Codebook, QuantizeResult, codebook_grad, nearest,
                         quantize)


class TestNormalizePitch:
    def test_reference_pitch_all_zero(self):
        assert np.array_equal(normalize_pitch([440.0, 440.0, 440.0]),
                              [0, 0, 0])

    def test_octave_arithmetic(self):
        out = normalize_pitch([220.0, 440.0, 880.0])
        assert np.allclose(out, [-12, 0, 12])
        assert np.array_equal(out, [-12, 0, 12])

    def test_unvoiced_masking_rule(self):
        # voiced semitones [0, 12, 12], median 12; unvoiced third frame -> 0
        out = normalize_pitch([440.0, 880.0, 0.0, 880.0])
        assert np.allclose(out, [-12, 0, 0, 0])

    def test_all_unvoiced_rejected(self):
        with pytest.raises(InputError, match="contour has no voiced frames"):
            normalize_pitch([0.0, 0.0])

    def test_negative_f0_rejected(self):
        with pytest.raises(InputError):
            normalize_pitch([-1.0, 440.0])

    def test_voiced_median_exactly_zero_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            f0 = rng.uniform(80, 500, n)
            f0[rng.random(n) < 0.3] = 0.0
            if not np.any(f0 > 0):
                f0[0] = 200.0
            out, voiced = normalize_pitch(f0), f0 > 0
            assert np.median(out[voiced]) == 0.0
            assert np.all(out[~voiced] == 0.0)

    @given(st.lists(st.floats(50, 1000), min_size=1, max_size=20))
    def test_median_zero_property(self, f0):
        assert np.median(normalize_pitch(f0)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_f0_rejected(self, bad):
        with pytest.raises(InputError):
            normalize_pitch([bad, 440.0, 220.0])


def normalize_pitch_by_median(f0):
    """Reference: np.median of the voiced semitones, subtracted once and
    then until it reads exactly 0, at most four more times; the contour
    and the number of re-centering passes that changed it."""
    f0 = np.asarray(f0, dtype=float)
    voiced = f0 > 0
    s = 12.0 * np.log2(f0[voiced] / F_REF)
    s -= np.median(s)
    passes = 0
    for _ in range(4):
        m = np.median(s)
        if m == 0.0:
            break
        s -= m
        passes += 1
    p_norm = np.zeros_like(f0)
    p_norm[voiced] = s
    return p_norm, passes


class TestNormalizePitchReference:
    """``normalize_pitch`` reads its medians off one sorted copy; it
    matches the np.median form bit for bit."""

    def assert_matches(self, f0):
        ref, passes = normalize_pitch_by_median(f0)
        assert normalize_pitch(f0).tobytes() == ref.tobytes()
        return passes

    @pytest.mark.parametrize("f0", [
        [440.0],                                  # a single voiced frame
        [0.0, 0.0, 317.3, 0.0],
        [250.0] * 5, [250.0] * 6,                 # constant contours
        [220.0, 220.0, 440.0, 440.0],             # ties at the center
        [220.0, 220.0, 220.0, 440.0, 440.0, 440.0, 0.0],
        [100.0, 100.0, 100.0, 300.0, 300.0],
        [131.0, 262.0, 0.0, 524.0, 97.5],         # odd voiced count
        [131.0, 262.0, 0.0, 524.0, 97.5, 301.2],  # even voiced count
    ])
    def test_fixed_contours(self, f0):
        self.assert_matches(f0)

    def test_random_contours_and_recentering(self):
        rng = np.random.default_rng(3)
        passes = []
        for _ in range(4000):
            n = int(rng.integers(1, 60))
            f0 = rng.uniform(80.0, 500.0, n)
            f0[rng.random(n) < 0.2] = 0.0
            if rng.random() < 0.3:      # ties: values drawn from a few
                f0 = rng.choice([0.0, 110.0, 220.0, 233.08, 440.0], n)
            f0[0] = f0[0] or 200.0
            passes.append(self.assert_matches(f0))
        # the sample reaches the re-centering passes
        assert max(passes) >= 1
        assert sum(p >= 1 for p in passes) >= 10


class TestQuantize:
    def _book(self):
        return Codebook(entries=np.array([[0.0, 0.0], [1.0, 1.0]]), beta=0.25)

    def test_exact_codeword_hit(self):
        entries = np.random.default_rng(0).standard_normal((8, 3))
        book = Codebook(entries=entries)
        res = quantize(entries[5][None, :], book)
        assert res.indices[0] == 5
        assert np.array_equal(res.c_vq[0], entries[5])
        assert res.commit_loss == 0.0

    def test_nearest_neighbor(self):
        book = self._book()
        res = quantize(np.array([[0.4, 0.4], [0.6, 0.6]]), book)
        assert list(res.indices) == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        entries = np.zeros((8, 2))
        entries[2] = [1.0, 0.0]
        entries[7] = [-1.0, 0.0]
        # shift others away so only 2 and 7 are candidates
        for i in (0, 1, 3, 4, 5, 6):
            entries[i] = [0.0, 10.0 + i]
        book = Codebook(entries=entries)
        res = quantize(np.array([[0.0, 0.0]]), book)
        assert res.indices[0] == 2

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            quantize(np.empty((0, 2)), self._book())

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputError):
            quantize(np.zeros((1, 3)), self._book())

    def test_commit_loss_two_term_value(self):
        book = self._book()
        f = np.array([[0.4, 0.4]])
        res = quantize(f, book)
        mse = np.mean((f - res.c_vq) ** 2)
        assert res.commit_loss == pytest.approx((1 + 0.25) * mse)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        book = Codebook(entries=rng.standard_normal((6, 4)))
        f = rng.standard_normal((10, 4))
        perm = rng.permutation(10)
        r1 = quantize(f, book)
        r2 = quantize(f[perm], book)
        assert np.array_equal(r1.indices[perm], r2.indices)

    def test_codebook_grad_pulls_toward_features(self):
        book = self._book()
        f = np.array([[0.4, 0.4]])
        res = quantize(f, book)
        g = codebook_grad(f, res, book)
        # assigned codeword 0 moves toward f: gradient points from f to c
        assert np.all(g[0] < 0)
        assert np.array_equal(g[1], [0, 0])

    def test_codebook_grad_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        entries = rng.standard_normal((5, 3))
        f = rng.standard_normal((12, 3))
        book = Codebook(entries=entries.copy(), beta=0.25)
        res = quantize(f, book)
        g = codebook_grad(f, res, book)
        h = 1e-6
        for k in range(5):
            for e in range(3):
                book.entries[k, e] += h
                # keep assignments frozen, as stopgrad dictates
                cv = book.entries[res.indices]
                lp = 0.25 * np.mean((f - cv) ** 2)
                book.entries[k, e] -= 2 * h
                cv = book.entries[res.indices]
                lm = 0.25 * np.mean((f - cv) ** 2)
                book.entries[k, e] += h
                fd = (lp - lm) / (2 * h)
                assert g[k, e] == pytest.approx(fd, abs=1e-6)


def nearest_by_difference(rows, centers):
    """The direct (N, K, E) form nearest() replaces: exact difference-based
    distances, argmin ties to the lowest index."""
    diff = rows[:, None, :] - centers[None, :, :]
    return np.argmin(np.einsum("nke,nke->nk", diff, diff), axis=1)


def assert_matches_reference(rows, centers):
    got = nearest(rows, centers)
    assert np.array_equal(got, nearest_by_difference(rows, centers))
    return got


class TestNearest:
    @pytest.mark.parametrize("scale", [0.0, 1.0, 5.0, 30.0])
    def test_random_batches_match_reference(self, scale):
        rng = np.random.default_rng(int(scale))
        for _ in range(25):
            k, e = int(rng.integers(2, 60)), int(rng.integers(1, 17))
            centers = rng.standard_normal((k, e))
            rows = (centers[rng.integers(k, size=300)]
                    + scale * rng.standard_normal((300, e)))
            assert_matches_reference(rows, centers)

    def test_training_shaped_batches_match_reference(self):
        # B=256 content features against a K=692 codebook (V=628 clean token
        # embeddings plus 64 noisy samples), E=16, as in backbone training
        rng = np.random.default_rng(11)
        embed = rng.standard_normal((628, 16))
        extra = embed[rng.integers(628, size=64)]
        centers = np.concatenate(
            [embed, extra + 0.05 * rng.standard_normal(extra.shape)])
        for noise in (0.0, 0.05, 0.05, 0.05, 0.5):
            rows = embed[rng.integers(628, size=256)]
            rows = rows + noise * rng.standard_normal(rows.shape)
            assert_matches_reference(rows, centers)

    def test_exact_ties_go_to_lowest_index(self):
        # centers at the corners of a square: each edge midpoint is exactly
        # equidistant from two centers, the centre from all four
        centers = 2.0 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                  [1.0, 1.0]]) + 3.0
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0], [1.0, 2.0],
                         [1.0, 1.0]]) + 3.0
        assert assert_matches_reference(rows, centers).tolist() == [
            0, 0, 1, 2, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_midpoints_of_nearest_centers_match_reference(self, seed):
        # ties in exact arithmetic that rounding may break either way
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((200, 16)) * rng.uniform(0.1, 10.0)
        d2 = np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        rows = 0.5 * (centers + centers[np.argmin(d2, axis=1)])
        assert_matches_reference(rows, centers)

    def test_duplicated_centers_go_to_first_copy(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((12, 4))
        centers = np.concatenate([base, base[::3], base[1::4]])
        rows = (centers[rng.integers(len(centers), size=400)]
                + 0.01 * rng.standard_normal((400, 4)))
        rows[:len(centers)] = centers
        got = assert_matches_reference(rows, centers)
        assert np.all(got < len(base))

    def test_duplicate_centers_tie_exactly(self):
        # every center twice: each row's best distance is an exact tie
        rng = np.random.default_rng(7)
        base = rng.standard_normal((20, 6))
        centers = np.concatenate([base, base])
        rows = base[rng.integers(20, size=300)] + rng.standard_normal((300, 6))
        got = assert_matches_reference(rows, centers)
        assert np.all(got < 20)

    def test_rows_equidistant_from_best_two(self):
        # centers on an even integer grid: the midpoint of two neighbours is
        # exactly 1 from both and at least sqrt(5) from every other center
        rng = np.random.default_rng(8)
        grid = [(x, y, z) for x in (-1, 1, 3) for y in (-1, 1, 3)
                for z in (-1, 1, 3)]
        centers = np.array(grid, dtype=float)[rng.permutation(len(grid))]
        index = {tuple(c): k for k, c in enumerate(centers.tolist())}
        pairs = np.array([(k, index[n]) for c, k in index.items()
                          for n in ((c[0] + 2, c[1], c[2]),
                                    (c[0], c[1] + 2, c[2]),
                                    (c[0], c[1], c[2] + 2)) if n in index])
        rows = 0.5 * (centers[pairs[:, 0]] + centers[pairs[:, 1]])
        got = assert_matches_reference(rows, centers)
        assert len(pairs) == 54
        assert got.tolist() == pairs.min(axis=1).tolist()

    def test_two_centers(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            e = int(rng.integers(1, 9))
            centers = rng.standard_normal((2, e))
            rows = np.concatenate([
                centers[rng.integers(2, size=100)]
                + rng.standard_normal((100, e)),
                0.5 * (centers[0] + centers[1])[None].repeat(3, 0)])
            assert_matches_reference(rows, centers)
        centers = np.array([[0.0, 0.0], [2.0, 0.0]])
        rows = np.array([[1.0, 5.0], [1.0, -3.0], [0.5, 0.0], [1.5, 0.0]])
        assert assert_matches_reference(rows, centers).tolist() == [0, 0, 0, 1]

    def test_rows_equal_to_a_center(self):
        rng = np.random.default_rng(10)
        centers = (rng.standard_normal((692, 16))
                   * rng.uniform(0.1, 10.0, (692, 1)))
        pick = rng.integers(692, size=256)
        got = assert_matches_reference(centers[pick], centers)
        assert got.tolist() == pick.tolist()

    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-9])
    def test_planted_near_duplicates_match_reference(self, gap):
        """Entries planted ``gap`` from a point along unit axes, two
        around one point and three around another, in scattered slots:
        the points themselves are equidistant from their two or three
        entries, and rows at, between and near the entries, and at the
        midpoint of each entry and its nearest other entry, are ranked as
        the direct form ranks them, for the centers and for a transposed
        view of them, as the token oracle passes its A.T."""
        rng = np.random.default_rng(14)
        base = rng.standard_normal((40, 16)) * rng.uniform(0.5, 3.0, (40, 1))
        pair, triple = base[5], base[9]
        planted = np.array([pair + gap * np.eye(16)[0],
                            pair + gap * np.eye(16)[1],
                            triple + gap * np.eye(16)[2],
                            triple + gap * np.eye(16)[3],
                            triple + gap * np.eye(16)[4]])
        centers = np.delete(base, [5, 9], axis=0)
        for slot, entry in zip((31, 2, 17, 0, 24), planted):
            centers = np.insert(centers, slot, entry, axis=0)
        rows = np.concatenate([
            np.stack([pair, triple]),
            planted,
            0.5 * (planted[:-1] + planted[1:]),
            planted[rng.integers(5, size=200)]
            + rng.choice([1e-13, 1e-10, 1e-6], (200, 1))
            * rng.standard_normal((200, 16)),
            base[rng.integers(40, size=50)]])
        d2 = np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        rows = np.concatenate(
            [rows, 0.5 * (centers + centers[np.argmin(d2, axis=1)])])
        assert_matches_reference(rows, centers)
        assert_matches_reference(rows, np.ascontiguousarray(centers.T).T)

    def test_200_noisy_training_batches_match_reference(self):
        rng = np.random.default_rng(12)
        embed = rng.standard_normal((628, 16))
        extra = embed[rng.integers(628, size=64)]
        centers = np.concatenate(
            [embed, extra + 0.05 * rng.standard_normal(extra.shape)])
        for _ in range(200):
            rows = embed[rng.integers(628, size=256)]
            noise = rng.choice([0.0, 0.02, 0.05, 0.3])
            rows = rows + noise * rng.standard_normal(rows.shape)
            assert_matches_reference(rows, centers)
