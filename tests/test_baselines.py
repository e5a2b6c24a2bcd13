import numpy as np
import pytest

from dp2guard.attacks import row_distances
from dp2guard.baselines import (
    Population,
    dnc_survivors,
    fedavg,
    fltrust,
    kept_mean,
    krum_scores,
)
from dp2guard.config import ExperimentConfig
from dp2guard.defense import top_direction
from dp2guard.errors import TooFewClients
from dp2guard.numeric import substream

from test_defense import spectral_scores


def plain_krum_scores(gradients, f):
    """Reference Krum scores on a plain stack: per row, the sum of the
    n - f - 2 smallest squared distances to the others, one row at a time."""
    stack = np.asarray(gradients, dtype=np.float64)
    return per_row_krum_scores(row_distances(stack).sq_dists, f)


def per_row_krum_scores(sq, f):
    """Krum scores of a full distance matrix, each row's others sorted and
    summed on their own."""
    n = len(sq)
    keep = n - f - 2
    return np.array([np.sort(np.delete(sq[i], i))[:keep].sum() for i in range(n)])


def multi_krum_select(stack, f, m):
    """Reference Multi-Krum selection on a plain stack: the m rows with the
    lowest scores, ties to the lower index."""
    n = len(stack)
    if n < 2 * f + 3:
        raise TooFewClients(f"multi-krum needs n >= 2f+3, got n={n}, f={f}")
    if not 1 <= m <= n - f:
        raise ValueError(f"m={m} outside [1, n-f]")
    return np.argsort(plain_krum_scores(stack, f), kind="stable")[:m]


def population(honest, crafted, n_copies):
    """n_copies copies of `crafted`, then the honest rows."""
    return np.asarray([crafted] * n_copies + list(honest))


def shared_krum_scores(honest, crafted, n_copies, f):
    """`krum_scores` of the population's distance table (copies first),
    laid out from the honest rows' distances and the copies' distances."""
    sq = (honest**2).sum(axis=1)
    sq_dists = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (honest @ honest.T), 0.0)
    copy_dists = np.maximum(sq + (crafted**2).sum() - 2.0 * (honest @ crafted), 0.0)
    table = Population(honest, crafted, n_copies).pairwise(sq_dists, copy_dists, 0.0)
    return krum_scores(table, f)


def multi_krum(gradients, f, m):
    """Reference Multi-Krum: the mean of the m rows with the lowest Krum
    scores, from the round loop's parts."""
    stack = np.asarray(gradients, dtype=np.float64)
    return kept_mean(stack, multi_krum_select(stack, f, m))


# DnC's parameters where no client attacks.
DNC_DEFAULTS = ExperimentConfig(aggregator="dnc").dnc_params


def dnc(gradients, rng, **params):
    """Reference DnC: the mean of the spectral filter's survivors, from the
    round loop's parts, with `params` over DNC_DEFAULTS."""
    stack = np.asarray(gradients, dtype=np.float64)
    return kept_mean(stack, sorted(dnc_survivors(stack, rng, **{**DNC_DEFAULTS, **params})))


def brute_force_krum_scores(grads, f):
    n = len(grads)
    scores = []
    for i in range(n):
        dists = sorted(
            float(np.linalg.norm(grads[i] - grads[j]) ** 2)
            for j in range(n) if j != i
        )
        scores.append(sum(dists[: n - f - 2]))
    return np.array(scores)


class TestFedAvg:
    def test_single_gradient_identity(self):
        g = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(fedavg([g]), g)

    def test_opposite_pair_cancels(self):
        g = np.array([2.0, -5.0])
        assert np.array_equal(fedavg([g, -g]), np.zeros(2))

    def test_matches_direct_sum(self):
        rng = substream(100, "fa")
        grads = [rng.standard_normal(12) for _ in range(7)]
        want = sum(grads) / 7
        assert np.allclose(fedavg(grads), want, atol=1e-15)


class TestMultiKrum:
    def test_far_outlier_never_selected(self):
        rng = substream(101, "mk")
        for _ in range(20):
            grads = [rng.standard_normal(6) for _ in range(4)]
            grads.append(rng.standard_normal(6) + 100.0)
            scores = brute_force_krum_scores(grads, f=1)
            assert np.argmax(scores) == 4
            agg = multi_krum(grads, f=1, m=2)
            best_two = np.argsort(scores, kind="stable")[:2]
            want = np.mean([grads[i] for i in best_two], axis=0)
            assert np.allclose(agg, want)

    def test_scores_match_brute_force(self):
        rng = substream(102, "mk")
        grads = [rng.standard_normal(5) for _ in range(8)]
        assert np.allclose(plain_krum_scores(grads, 2), brute_force_krum_scores(grads, 2))
        sq = row_distances(np.asarray(grads)).sq_dists
        assert np.allclose(krum_scores(sq, 2), brute_force_krum_scores(grads, 2))

    @pytest.mark.parametrize("n_copies", [0, 1, 3])
    def test_shared_scores_match_brute_force_on_assembled_stack(self, n_copies):
        rng = substream(109, "mk-shared", n_copies, True)
        for n_honest, d in ((9, 4), (16, 30), (37, 200)):
            honest = rng.standard_normal((n_honest, d)) * rng.uniform(0.2, 5.0, (n_honest, 1))
            crafted = honest.mean(axis=0) + rng.uniform(0.0, 3.0) * rng.standard_normal(d)
            pop = population(honest, crafted, n_copies)
            for f in range(0, (len(pop) - 3) // 2 + 1, 2):
                got = shared_krum_scores(honest, crafted, n_copies, f)
                assert np.allclose(got, brute_force_krum_scores(pop, f), rtol=1e-12)

    @pytest.mark.parametrize("n_copies", [0, 1, 3])
    def test_table_sums_equal_per_row_sums_bit_for_bit(self, n_copies):
        # The population's distance table, scored as one table, gives the
        # same bits as scoring it one row at a time.
        rng = substream(110, "mk-bits", n_copies)
        for n_honest, f in ((12, 2), (40, 10), (150, 3)):
            honest = rng.standard_normal((n_honest, 25)) * rng.uniform(0.1, 50.0, (n_honest, 1))
            sq_dists = row_distances(honest).sq_dists
            copy_dists = rng.uniform(0.0, 2.0 * sq_dists.max(), n_honest)
            table = Population(honest, n_copies=n_copies).pairwise(sq_dists, copy_dists, 0.0)
            got = krum_scores(table, f)
            assert len(got) == n_honest + n_copies
            assert np.array_equal(got, per_row_krum_scores(table, f))

    def test_identical_gradients_return_common_vector(self):
        g = np.array([1.0, 2.0])
        assert np.allclose(multi_krum([g] * 5, f=1, m=2), g)

    def test_select_all_equals_fedavg(self):
        rng = substream(103, "mk")
        grads = [rng.standard_normal(4) for _ in range(5)]
        assert np.allclose(multi_krum(grads, f=0, m=5), fedavg(grads))

    def test_too_few_clients(self):
        with pytest.raises(TooFewClients):
            multi_krum([np.ones(2)] * 4, f=1, m=1)
        with pytest.raises(TooFewClients):
            multi_krum_select(np.ones((4, 2)), f=1, m=1)
        with pytest.raises(TooFewClients):
            krum_scores(np.zeros((4, 4)), f=1)

    def test_select_is_stable_lowest_score_ranking(self):
        rng = substream(106, "mk")
        grads = np.vstack([rng.standard_normal((6, 5)),
                           np.tile(rng.standard_normal(5), (3, 1))])
        chosen = multi_krum_select(grads, 2, 4)
        want = np.argsort(brute_force_krum_scores(grads, 2), kind="stable")[:4]
        assert chosen.tolist() == want.tolist()
        assert np.array_equal(multi_krum(grads, 2, 4), grads[chosen].mean(axis=0))


class TestDnC:
    def test_clean_cluster_mean_preserved(self):
        # No malicious clients: survivor mean stays within 3 sigma / sqrt(n)
        # of the true center.
        sigma, n, d = 0.5, 20, 30
        hits = 0
        for seed in range(20):
            rng = substream(seed, "dnc-clean")
            center = rng.standard_normal(d)
            grads = [center + sigma * rng.standard_normal(d) for _ in range(n)]
            agg = dnc(grads, rng, sub_dim=d, assumed_malicious=1)
            if np.linalg.norm(agg - center) <= 3 * sigma * np.sqrt(d) / np.sqrt(n):
                hits += 1
        assert hits >= 18

    def test_large_outlier_filtered(self):
        filtered = 0
        for seed in range(40):
            rng = substream(seed, "dnc-out")
            grads = [rng.standard_normal(10) for _ in range(9)]
            grads.append(rng.standard_normal(10) * 50.0)
            agg = dnc(grads, rng, sub_dim=10, assumed_malicious=1, filter_frac=1.0)
            clean_mean = np.mean(grads[:9], axis=0)
            if np.linalg.norm(agg - clean_mean) < np.linalg.norm(np.mean(grads, axis=0) - clean_mean):
                filtered += 1
        assert filtered >= 38  # >= 95 % of seeds

    def test_full_dimension_matches_defense_spectral_ranking(self):
        rng = substream(104, "dnc")
        grads = [rng.standard_normal(16) for _ in range(7)]
        stack = np.asarray(grads)
        centered = stack - stack.mean(axis=0)
        scores = spectral_scores(centered, top_direction(centered))
        top_client = int(np.argmax(scores))
        agg = dnc(grads, substream(105, "r"), n_iters=1, sub_dim=16, assumed_malicious=1,
                  filter_frac=1.0)
        survivors_mean_without_top = np.mean(
            [g for i, g in enumerate(grads) if i != top_client], axis=0)
        assert np.allclose(agg, survivors_mean_without_top)


class TestFLTrust:
    def test_all_match_root(self):
        root = np.array([1.0, 2.0, -1.0])
        assert np.allclose(fltrust([root.copy()] * 4, root), root)

    def test_all_opposed_falls_back_to_root(self):
        root = np.array([1.0, 0.0])
        assert np.allclose(fltrust([-root, -2 * root], root), root)

    def test_mixed_keeps_positive_side_at_root_norm(self):
        root = np.array([2.0, 0.0])
        out = fltrust([root * 3, -root], root)
        assert np.allclose(out, root)  # rescaled to ||root||, negative clipped

    def test_zero_norm_client_ignored(self):
        root = np.array([1.0, 1.0])
        out = fltrust([np.zeros(2), root], root)
        assert np.allclose(out, root)


class TestSharedProperties:
    def test_permutation_invariance(self):
        rng = substream(106, "perm")
        grads = [rng.standard_normal(8) for _ in range(7)]
        perm = [3, 0, 6, 1, 5, 2, 4]
        shuffled = [grads[i] for i in perm]
        assert np.allclose(fedavg(grads), fedavg(shuffled))
        assert np.allclose(multi_krum(grads, 1, 3), multi_krum(shuffled, 1, 3))
        root = rng.standard_normal(8)
        assert np.allclose(fltrust(grads, root), fltrust(shuffled, root))

    def test_output_norm_bounded_by_max_input(self):
        rng = substream(107, "norm")
        grads = [rng.standard_normal(10) * rng.uniform(0.5, 4) for _ in range(9)]
        cap = max(np.linalg.norm(g) for g in grads)
        assert np.linalg.norm(fedavg(grads)) <= cap + 1e-12
        assert np.linalg.norm(multi_krum(grads, 2, 4)) <= cap + 1e-12
        assert np.linalg.norm(dnc(grads, substream(108, "r"), sub_dim=10,
                                  assumed_malicious=2)) <= cap + 1e-12
        root = rng.standard_normal(10)
        assert np.linalg.norm(fltrust(grads, root)) <= np.linalg.norm(root) + 1e-12


class TestKeptMean:
    @pytest.mark.parametrize("n,d", [(2, 2), (5, 3), (40, 210), (81, 1001), (12, 8193)])
    def test_bit_identical_to_gathered_mean(self, n, d):
        # Adding rows into one d-vector in the given order is numpy's own
        # axis-0 reduction: Multi-Krum passes its ranking order, DnC and the
        # round loop sorted ids.
        rng = substream(80, "kept", n, d)
        stack = rng.standard_normal((n, d)) * rng.uniform(0.1, 50.0, size=(n, 1))
        ranking = rng.permutation(n)[: max(1, (2 * n) // 3)]
        for kept in (ranking, np.sort(ranking), sorted(ranking.tolist()), np.arange(n),
                     ranking[:1]):
            got = kept_mean(stack, kept)
            assert np.array_equal(got, stack[kept].mean(axis=0))
            assert not np.shares_memory(got, stack)

    def test_multi_krum_is_mean_of_selection(self):
        rng = substream(81, "kept-rules")
        grads = rng.standard_normal((9, 30))
        sel = multi_krum_select(grads, 2, 5)
        assert np.array_equal(multi_krum(list(grads), 2, 5), grads[sel].mean(axis=0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kept_mean(np.zeros((3, 4)), [])
