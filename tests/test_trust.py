import numpy as np
import pytest

from dp2guard.errors import AllZeroTrust
from dp2guard.trust import direct_trust, update_trust, weights


def _trust(values):
    return np.array(values, dtype=np.float64)


class TestDirectTrust:
    def test_at_centroid_full_trust(self):
        f = np.array([1.5, -0.25])
        assert direct_trust(f[None], f).tolist() == [1.0]

    def test_unit_distance_half(self):
        assert direct_trust(np.array([[1.0, 0.0]]), np.zeros(2)).tolist() == [0.5]

    def test_distance_three_quarter(self):
        assert direct_trust(np.array([[3.0, 0.0]]), np.zeros(2)).tolist() == [0.25]

    def test_one_entry_per_row(self):
        features = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 4.0]])
        assert direct_trust(features, np.zeros(2)).tolist() == [1.0, 0.5, 1.0 / 6.0]


class TestUpdateTrust:
    def test_beta_zero_copies_direct(self):
        new = update_trust(_trust([1.0, 0.2]), np.array([0.7, 0.9]), 0.0)
        assert new.tolist() == [0.7, 0.9]

    def test_half_beta_halves_on_exclusion(self):
        old = _trust([1.0])
        new = update_trust(old, np.zeros(1), 0.5)
        assert new.tolist() == [0.5] and old.tolist() == [1.0]

    def test_converges_to_constant_direct(self):
        trust = np.ones(1)
        g0 = 0.35
        for _ in range(50):
            trust = update_trust(trust, np.array([g0]), 0.5)
        assert abs(trust[0] - g0) <= 2.0**-50

    def test_rejects_out_of_range_direct(self):
        for bad in (1.5, -0.25, float("nan")):
            with pytest.raises(ValueError, match="row 1"):
                update_trust(np.ones(3), np.array([0.5, bad, 0.5]), 0.5)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            update_trust(np.ones(3), np.ones(2), 0.5)


class TestWeights:
    def test_equal_trust_uniform(self):
        tau = weights(_trust([0.4] * 4))
        assert np.allclose(tau, 0.25)

    def test_already_normalized_passthrough(self):
        tau = weights(_trust([0.9, 0.1]))
        assert np.isclose(tau[0], 0.9) and np.isclose(tau[1], 0.1)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        assert abs(sum(weights(rng.uniform(0.01, 1, 30)).tolist()) - 1.0) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        base = rng.uniform(0.01, 1, 10)
        tau_a = weights(base)
        tau_b = weights(7.25 * base)
        assert np.max(np.abs(tau_a - tau_b)) <= 1e-15

    def test_hard_exclusion_zeroes_and_renormalizes(self):
        trust = _trust([0.5, 0.5, 0.5])
        tau = weights(trust, zero_mask=np.array([False, False, True]))
        assert tau[2] == 0.0
        assert np.isclose(tau[0], 0.5) and np.isclose(tau[1], 0.5)
        assert trust.tolist() == [0.5] * 3  # the trust is not touched

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroTrust):
            weights(_trust([0.0, 0.0]))
        with pytest.raises(AllZeroTrust):
            weights(_trust([0.5, 0.5]), zero_mask=np.array([True, True]))


class TestDynamics:
    def test_monotone_in_direct_trust(self):
        trust = np.ones(2)
        for _ in range(25):
            trust = update_trust(trust, np.array([0.8, 0.3]), 0.5)
            assert trust[0] > trust[1]

    def test_excluded_decay_geometric(self):
        trust = np.ones(1)
        previous = trust[0]
        for k in range(1, 12):
            trust = update_trust(trust, np.zeros(1), 0.5)
            assert trust[0] <= 0.5**k * 1.0 + 1e-15
            assert trust[0] <= 0.5 * previous + 1e-15
            previous = trust[0]

    def test_trust_stays_in_unit_interval(self):
        rng = np.random.default_rng(7)
        trust = np.ones(5)
        for _ in range(40):
            trust = update_trust(trust, rng.uniform(0, 1, 5), 0.5)
            assert np.all((trust > 0.0) & (trust <= 1.0))


# --- the dict-keyed form trust had before it moved to row vectors ----------

def _ref_direct(feature, centroid):
    return 1.0 / (1.0 + float(np.linalg.norm(feature - centroid)))


def _ref_update(trust, beta, direct):
    return {cid: beta * old + (1.0 - beta) * direct.get(cid, 0.0)
            for cid, old in trust.items()}


def _ref_weights(trust, force_zero):
    live = {cid: (0.0 if cid in force_zero else t) for cid, t in trust.items()}
    total = sum(live.values())
    return {cid: t / total for cid, t in live.items()}


@pytest.mark.parametrize("exclusion", ["soft", "hard"])
@pytest.mark.parametrize("n", [2, 9, 50, 129])
def test_vectors_match_dict_reference_bit_for_bit(n, exclusion):
    # Twelve rounds of detection outcomes: features spread from 1e-3 to
    # 1e3 around the centroid and a random benign set.  A norm along an
    # axis (instead of each row's dot product) or np.sum (instead of the
    # left-to-right total) moves the last bits and fails this test.
    rng = np.random.default_rng(1000 + n)
    beta = 0.5
    trust = np.ones(n)
    ref = {cid: 1.0 for cid in range(n)}
    for _ in range(12):
        centroid = rng.standard_normal(2)
        scale = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(n, 1)))
        features = centroid + scale * rng.standard_normal((n, 2))
        benign = rng.random(n) < 0.7
        benign[rng.integers(n)] = True

        direct = np.where(benign, direct_trust(features, centroid), 0.0)
        ref_direct = {k: _ref_direct(features[k], centroid) for k in range(n) if benign[k]}
        assert direct.tolist() == [ref_direct.get(k, 0.0) for k in range(n)]

        trust = update_trust(trust, direct, beta)
        ref = _ref_update(ref, beta, ref_direct)
        assert trust.tolist() == list(ref.values())

        hard = exclusion == "hard"
        tau = weights(trust, ~benign if hard else None)
        excluded = {k for k in range(n) if not benign[k]} if hard else set()
        assert tau.tolist() == list(_ref_weights(ref, excluded).values())
