import numpy as np
import pytest

from dp2guard.attacks import FangSpec, fang_attack
from dp2guard.defense import cluster_and_select, detect, median_cosines, top_direction
from dp2guard.errors import DegenerateError
from dp2guard.numeric import substream


def svd_top_right_singular_vector(matrix: np.ndarray) -> np.ndarray:
    """Dense SVD oracle for the leading right singular vector."""
    _, _, vt = np.linalg.svd(matrix, full_matrices=False)
    return vt[0]


def power_iteration_direction(matrix: np.ndarray, iters: int = 2000) -> np.ndarray:
    """Independent oracle: power iteration on the d x d covariance."""
    cov = matrix.T @ matrix
    v = np.ones(matrix.shape[1]) / np.sqrt(matrix.shape[1])
    for _ in range(iters):
        nxt = cov @ v
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return v
        nxt /= norm
        if np.linalg.norm(nxt - v) < 1e-14 and _ > 2:
            return nxt
        v = nxt
    return v


def spectral_scores(matrix: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Squared projection of every row onto the unit direction: the
    spectral feature as defined, which detect reads off the Gram matrix's
    top eigenpair instead."""
    return (np.asarray(matrix) @ direction) ** 2


def brute_force_median_cosines(matrix: np.ndarray) -> np.ndarray:
    out = np.zeros(matrix.shape[0])
    for i, gi in enumerate(matrix):
        ni = np.linalg.norm(gi)
        if ni == 0:
            continue
        sims = []
        for j, gj in enumerate(matrix):
            if j == i:
                continue
            nj = np.linalg.norm(gj)
            sims.append(0.0 if nj == 0 else float(gi @ gj / (ni * nj)))
        out[i] = float(np.median(sims))
    return out


class TestTopDirection:
    def test_rank_one_recovers_direction(self):
        u = np.array([3.0, -4.0, 12.0])
        rows = np.stack([2 * u, -0.5 * u, 7 * u, u])
        v1 = top_direction(rows)
        assert abs(abs(v1 @ (u / np.linalg.norm(u))) - 1.0) < 1e-12

    def test_orthogonal_rows_pick_larger(self):
        rows = np.array([[5.0, 0.0], [0.0, 2.0]])
        v1 = top_direction(rows)
        assert np.allclose(np.abs(v1), [1.0, 0.0], atol=1e-12)

    def test_matches_dense_svd_oracle(self):
        rng = substream(20, "svd")
        for _ in range(100):
            rows = rng.standard_normal((5, 8))
            v1 = top_direction(rows)
            oracle = svd_top_right_singular_vector(rows)
            assert abs(float(v1 @ oracle)) >= 1.0 - 1e-8

    def test_unit_norm_and_sign_convention(self):
        rng = substream(21, "sign")
        rows = rng.standard_normal((4, 6))
        v1 = top_direction(rows)
        assert np.isclose(np.linalg.norm(v1), 1.0)
        assert v1[np.argmax(np.abs(v1))] > 0

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateError):
            top_direction(np.zeros((3, 4)))

    def test_single_row_rejected(self):
        with pytest.raises(DegenerateError):
            top_direction(np.ones((1, 4)))


class TestSpectralScores:
    def test_orthogonal_row_scores_zero(self):
        rows = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = spectral_scores(rows, np.array([1.0, 0.0]))
        assert s[0] == 0.0 and s[1] == 1.0

    def test_aligned_row_squares_magnitude(self):
        v1 = np.array([0.6, 0.8])
        s = spectral_scores(np.array([3.0 * v1]), v1)
        assert np.isclose(s[0], 9.0)

    def test_sign_flip_invariant(self):
        rng = substream(22, "flip")
        rows = rng.standard_normal((5, 4))
        v1 = top_direction(rows)
        assert np.allclose(spectral_scores(rows, v1), spectral_scores(rows, -v1))

    def test_matches_power_iteration_oracle(self):
        rng = substream(23, "power")
        for _ in range(100):
            rows = rng.standard_normal((5, 8))
            rows -= rows.mean(axis=0)
            v1 = top_direction(rows)
            v_oracle = power_iteration_direction(rows)
            s = spectral_scores(rows, v1)
            s_oracle = spectral_scores(rows, v_oracle)
            assert np.max(np.abs(s - s_oracle)) <= 1e-6


class TestMedianCosines:
    def test_identical_rows_all_one(self):
        rows = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        assert np.allclose(median_cosines(rows), 1.0)

    def test_two_against_one(self):
        u = np.array([1.0, 1.0])
        rows = np.stack([u, u, -u])
        c = median_cosines(rows)
        # the -u row sees {-1, -1}; each u row sees {1, -1} -> median 0
        assert np.allclose(c, [0.0, 0.0, -1.0])

    def test_matches_brute_force_exactly(self):
        rng = substream(24, "cos")
        for _ in range(100):
            rows = rng.standard_normal((6, 4))
            assert np.array_equal(median_cosines(rows),
                                  brute_force_median_cosines(rows))

    @pytest.mark.parametrize("n", [5, 6, 50, 51])  # n - 1 even, odd, odd, even
    def test_partition_median_is_np_median_bit_for_bit(self, n):
        # Repeated rows give exact ties and zero rows give 0 cosines; the
        # medians must match np.median over the same cosine matrix.
        rng = substream(25, "median", n)
        rows = rng.standard_normal((n, 9))
        rows[1::4] = rows[0]
        rows[3::7] = 0.0
        gram = rows @ rows.T
        norms = np.sqrt(np.diagonal(gram))
        zero = norms <= 1e-12
        safe = np.where(zero, 1.0, norms)
        cos = gram / (safe[:, None] * safe[None, :])
        cos[zero, :] = 0.0
        cos[:, zero] = 0.0
        others = cos[~np.eye(n, dtype=bool)].reshape(n, n - 1)
        assert median_cosines(rows).tobytes() == np.median(others, axis=1).tobytes()

    @pytest.mark.parametrize("shape", [(50, 7850), (20, 210)])
    def test_within_rounding_bound_at_workload_shapes(self, shape):
        # The Gram matrix sums each dot product in another order than the
        # scalar brute force.  Each of the two evaluations of a cosine is
        # within (d + 2) eps of the exact value (d for the dot product, 2 for
        # the norms and the division), and the median moves no more than its
        # inputs, so the two differ by at most 2 (d + 2) eps.  Ten identical
        # attacker rows and a zero row exercise ties and the zero-row rule.
        bound = 2 * (shape[1] + 2) * np.finfo(np.float64).eps
        rng = substream(34, "cos", *shape)
        for _ in range(3):
            rows = rng.standard_normal(shape)
            if shape[0] == 50:
                rows[:10] = rows[0]
                rows[10] = 0.0
            c = median_cosines(rows)
            assert np.max(np.abs(c - brute_force_median_cosines(rows))) <= bound
            if shape[0] == 50:
                assert c[10] == 0.0

    def test_zero_row_scores_zero(self):
        rows = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
        c = median_cosines(rows)
        # zero row scores 0 and enters other rows' medians as 0
        assert c[0] == 0.0 and np.allclose(c[1:], 0.5)


def _spectral_bound(rows: np.ndarray) -> float:
    """Bound on |lam * e_i**2 - (row_i . v)**2| for the top right singular
    vector v = M^T e / |M^T e|: the two sides evaluate M M^T e in different
    orders, each within (N + d) eps |M|_F^2 of exact."""
    n, d = rows.shape
    return 2 * (n + d) * np.finfo(np.float64).eps * float(np.sum(rows * rows))


class TestDetectFeatures:
    @pytest.mark.parametrize("shape", [(50, 7850), (20, 210), (6, 4)])
    def test_spectral_feature_is_projection_on_top_direction(self, shape):
        rng = substream(36, "spectral", *shape)
        for _ in range(3):
            rows = rng.standard_normal(shape)
            rows[0] *= 4.0  # one dominant client
            result = detect(rows, substream(37, "km"))
            s = np.array([result.features[i][0] for i in range(shape[0])])
            projected = (rows @ top_direction(rows)) ** 2
            assert np.max(np.abs(s - projected)) <= _spectral_bound(rows)

    @pytest.mark.parametrize("projection_dim", [None, 16])
    def test_features_match_public_functions(self, projection_dim):
        # detect's cosine feature is median_cosines bit for bit, and its
        # spectral feature is spectral_scores on top_direction within the
        # rounding bound, on the sketch when projection_dim is set.
        rows = substream(38, "features").standard_normal((30, 400))
        rows[5] = 0.0
        matrix = rows
        if projection_dim is not None:
            proj = substream(39, "km").standard_normal((400, projection_dim))
            matrix = rows @ (proj / np.sqrt(projection_dim))
        result = detect(rows, substream(39, "km"), projection_dim=projection_dim)
        s, c = np.array([result.features[i] for i in range(30)]).T
        assert np.array_equal(c, median_cosines(matrix))
        want = spectral_scores(matrix, top_direction(matrix))
        assert np.max(np.abs(s - want)) <= _spectral_bound(matrix)
        assert c[5] == 0.0  # the zero row's s is 0 only up to the bound

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateError):
            detect(np.zeros((4, 3)), substream(40, "km"))


class TestClusterAndSelect:
    def test_well_separated_majority_wins(self):
        features = np.array([[0.0, 1.0]] * 9 + [[100.0, -1.0]])
        result = cluster_and_select(features, substream(25, "km"))
        assert result.benign == frozenset(range(9))
        assert np.allclose(result.centroid, [0.0, 1.0])

    def test_identical_features_all_benign(self):
        features = np.array([[2.0, 0.5]] * 6)
        result = cluster_and_select(features, substream(26, "km"))
        assert result.benign == frozenset(range(6))

    def test_centroid_in_raw_space(self):
        features = np.array([[10.0, 0.9], [12.0, 0.8], [11.0, 1.0], [500.0, -0.9]])
        result = cluster_and_select(features, substream(27, "km"))
        assert result.benign == frozenset({0, 1, 2})
        assert np.allclose(result.centroid, [11.0, 0.9])


class TestDetectPipeline:
    def _population(self, seed: int, n=50, d=100, frac_mal=0.4):
        # Full-strength crafted instance (an accept-all target rule); the
        # adaptive evading variant is exercised end to end in the harness
        # robustness tests.
        rng = substream(seed, "pop")
        center = rng.standard_normal(d)
        n_mal = int(frac_mal * n)
        benign = center + np.sqrt(0.1) * rng.standard_normal((n - n_mal, d))
        crafted = fang_attack(list(benign), FangSpec(), lambda g: True)
        grads = {i: benign[i] for i in range(n - n_mal)}
        for k in range(n_mal):
            grads[n - n_mal + k] = crafted
        truth = frozenset(range(n - n_mal, n))
        return grads, truth

    def test_fang_crafted_detection_quality(self):
        # 40 % crafted gradients among Gaussian benign: precision and recall
        # at least 0.9 averaged over 20 seeds.
        precisions, recalls = [], []
        for seed in range(20):
            grads, truth = self._population(seed)
            rows = np.stack([grads[i] for i in range(len(grads))])
            result = detect(rows - rows.mean(axis=0), substream(seed, "km"))
            flagged = set(grads) - set(result.benign)
            tp = len(flagged & truth)
            precisions.append(tp / len(flagged) if flagged else 0.0)
            recalls.append(tp / len(truth))
        assert np.mean(precisions) >= 0.9
        assert np.mean(recalls) >= 0.9

    def test_permutation_equivariance(self):
        rng = substream(28, "perm")
        grads = rng.standard_normal((8, 12))
        result = detect(grads, substream(29, "km"))
        relabel = {i: (i + 3) % 8 for i in range(8)}
        permuted = np.empty_like(grads)
        for i in range(8):
            permuted[relabel[i]] = grads[i]
        result_p = detect(permuted, substream(29, "km"))
        assert {relabel[i] for i in result.benign} == set(result_p.benign)
        for i in range(8):
            assert np.allclose(result.features[i], result_p.features[relabel[i]])

    def test_common_scale_invariance(self):
        rng = substream(30, "scale")
        grads = rng.standard_normal((7, 10))
        scaled = 3.5 * grads
        base = detect(grads, substream(31, "km"))
        big = detect(scaled, substream(31, "km"))
        assert base.benign == big.benign
        for i in range(7):
            s0, c0 = base.features[i]
            s1, c1 = big.features[i]
            assert np.isclose(c1, c0, atol=1e-12)
            assert np.isclose(s1, 3.5**2 * s0, rtol=1e-9)

    def test_projection_flag_still_detects_gross_outliers(self):
        rng = substream(32, "proj")
        grads = rng.standard_normal((10, 200))
        grads[0] += 500.0
        result = detect(grads, substream(33, "km"), projection_dim=32)
        assert 0 not in result.benign
