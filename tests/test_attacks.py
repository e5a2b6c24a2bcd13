import numpy as np
import pytest

from dp2guard import attacks
from dp2guard.attacks import (
    FangSpec,
    ScaleSpec,
    _largest_feasible_scale,
    fang_attack,
    fang_candidate,
    label_flip,
    minmax_attack,
    minsum_attack,
    perturbation_direction,
    row_distances,
)
from dp2guard.data import synth_dataset
from dp2guard.errors import DegenerateError
from dp2guard.harness import ExperimentConfig, run_experiment
from dp2guard.numeric import substream


def max_pairwise_distance(grads: np.ndarray) -> float:
    diffs = grads[:, None, :] - grads[None, :, :]
    return float(np.sqrt((diffs**2).sum(axis=2)).max())


def worst_case_distance(grads: np.ndarray, candidate: np.ndarray) -> float:
    return float(np.linalg.norm(grads - candidate, axis=1).max())


def sum_sq_budget(grads: np.ndarray) -> float:
    diffs = grads[:, None, :] - grads[None, :, :]
    return float((diffs**2).sum(axis=2).sum(axis=1).max())


def sum_sq_distance(grads: np.ndarray, candidate: np.ndarray) -> float:
    return float(((grads - candidate) ** 2).sum())


def _recover_gamma(crafted: np.ndarray, grads: np.ndarray, direction: str) -> float:
    mean = grads.mean(axis=0)
    unit = perturbation_direction(mean, direction)
    return float((crafted - mean) @ unit)


class TestLabelFlip:
    def test_offset_arithmetic(self):
        # label 2 with offset 5 in 10 classes becomes 7
        assert (2 + 5) % 10 == 7
        data = synth_dataset(50, 3, 10, 1.0, substream(0, "lf"))
        flipped = label_flip(data, 5, 1.0, substream(0, "r"))
        assert np.array_equal(flipped.labels, (data.labels + 5) % 10)

    def test_flipped_count_is_floor(self):
        data = synth_dataset(101, 3, 10, 1.0, substream(1, "lf"))
        flipped = label_flip(data, 3, 0.3, substream(1, "r"))
        assert int(np.sum(flipped.labels != data.labels)) == int(0.3 * 101)

    def test_features_untouched(self):
        data = synth_dataset(40, 3, 10, 1.0, substream(2, "lf"))
        flipped = label_flip(data, 1, 0.5, substream(2, "r"))
        assert np.array_equal(flipped.features, data.features)

    def test_offset_bounds(self):
        data = synth_dataset(10, 3, 10, 1.0, substream(3, "lf"))
        with pytest.raises(ValueError):
            label_flip(data, 10, 0.3, substream(3, "r"))
        with pytest.raises(ValueError):
            label_flip(data, 0, 0.3, substream(3, "r"))


class TestFang:
    def test_candidate_formula(self):
        got = fang_candidate(np.array([1.0, -2.0]), 1.0)
        assert np.array_equal(got, [0.0, -1.0])

    def test_accept_all_returns_initial_lambda(self):
        benign = [np.array([1.0, -2.0]), np.array([3.0, -4.0])]
        crafted = fang_attack(benign, FangSpec(), lambda g: True)
        mean = np.mean(benign, axis=0)
        assert np.allclose(crafted, mean - 10.0 * np.sign(mean))

    def test_reject_all_bottoms_out_near_mean(self):
        benign = [np.array([1.0, -2.0]), np.array([3.0, -4.0])]
        crafted = fang_attack(benign, FangSpec(), lambda g: False)
        mean = np.mean(benign, axis=0)
        assert np.allclose(crafted, mean - 1e-5 * np.sign(mean))
        assert np.max(np.abs(crafted - mean)) <= 1e-5 * (1 + 1e-6)

    def test_halving_stops_at_first_accept(self):
        benign = [np.array([4.0, 4.0])]
        seen = []

        def accept(candidate):
            lam = float(np.abs(candidate - 4.0).max())
            seen.append(lam)
            return lam <= 2.6

        crafted = fang_attack(benign, FangSpec(), accept)
        assert seen == [10.0, 5.0, 2.5]
        assert np.allclose(crafted, [1.5, 1.5])


class TestDirections:
    def test_mean_directions(self):
        mean = np.array([3.0, 4.0])
        plus = perturbation_direction(mean, "+mean")
        assert np.allclose(plus, [0.6, 0.8])
        assert np.allclose(perturbation_direction(mean, "-mean"), [-0.6, -0.8])

    def test_sign_direction_unit(self):
        got = perturbation_direction(np.array([3.0, -0.1, 0.0]), "sign")
        assert np.isclose(np.linalg.norm(got), 1.0)
        assert got[0] > 0 > got[1] and got[2] == 0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            perturbation_direction(np.ones(2), "up")


@pytest.mark.parametrize("direction", ["+mean", "-mean", "sign"])
class TestMinMax:
    def test_constraint_and_optimality(self, direction):
        spec = ScaleSpec("minmax", direction=direction)
        rng = substream(11, "mm", direction)
        for _ in range(25):
            grads = rng.standard_normal((6, 5)) + rng.standard_normal(5)
            crafted = minmax_attack(list(grads), spec)
            bound = max_pairwise_distance(grads)
            assert worst_case_distance(grads, crafted) <= bound + 1e-9
            gamma = _recover_gamma(crafted, grads, direction)
            unit = perturbation_direction(grads.mean(axis=0), direction)
            pushed = grads.mean(axis=0) + (gamma + 2 * spec.gamma_min) * unit
            assert worst_case_distance(grads, pushed) > bound

    def test_identical_benign_returns_mean(self, direction):
        grads = [np.array([1.0, 2.0])] * 4
        crafted = minmax_attack(grads, ScaleSpec("minmax", direction=direction))
        assert np.allclose(crafted, [1.0, 2.0])

    def test_symmetric_pair_feasible(self, direction):
        u = np.array([2.0, -1.0, 0.5])
        grads = np.stack([-u, u])
        crafted = minmax_attack(list(grads), ScaleSpec("minmax", direction=direction))
        assert worst_case_distance(grads, crafted) <= 2 * np.linalg.norm(u) + 1e-9


@pytest.mark.parametrize("direction", ["+mean", "-mean", "sign"])
class TestMinSum:
    def test_constraint_and_optimality(self, direction):
        spec = ScaleSpec("minsum", direction=direction)
        rng = substream(12, "ms", direction)
        for _ in range(25):
            grads = rng.standard_normal((6, 5)) + rng.standard_normal(5)
            crafted = minsum_attack(list(grads), spec)
            budget = sum_sq_budget(grads)
            assert sum_sq_distance(grads, crafted) <= budget + 1e-9
            gamma = _recover_gamma(crafted, grads, direction)
            unit = perturbation_direction(grads.mean(axis=0), direction)
            pushed = grads.mean(axis=0) + (gamma + 2 * spec.gamma_min) * unit
            assert sum_sq_distance(grads, pushed) > budget

    def test_identical_benign_returns_mean(self, direction):
        grads = [np.array([1.0, 2.0])] * 4
        crafted = minsum_attack(grads, ScaleSpec("minsum", direction=direction))
        assert np.allclose(crafted, [1.0, 2.0])

    def test_symmetric_pair_mean_within_budget(self, direction):
        # At the mean, total squared distance is 2||u||^2 against a budget
        # of 4||u||^2, so a strictly positive scale must exist.
        u = np.array([1.0, 3.0])
        grads = np.stack([-u, u])
        assert sum_sq_distance(grads, grads.mean(axis=0)) == pytest.approx(
            2 * np.linalg.norm(u) ** 2)
        assert sum_sq_budget(grads) == pytest.approx(4 * np.linalg.norm(u) ** 2)
        crafted = minsum_attack(list(grads), ScaleSpec("minsum", direction=direction))
        gamma = _recover_gamma(crafted, grads, direction)
        assert gamma > 0 or not np.any(perturbation_direction(grads.mean(axis=0),
                                                              direction))


class TestScaleSearchShared:
    def test_iteration_bound(self):
        # The scale search converges in about log2(gamma0/gamma_min) probes
        # plus the bracket expansions.
        from dp2guard.attacks import _largest_feasible_scale

        for target in (0.003, 0.8, 7.3, 42.0, 3000.0):
            calls = {"n": 0}

            def feasible(gamma, _t=target):
                calls["n"] += 1
                return gamma <= _t

            got = _largest_feasible_scale(feasible, 10.0, 5.0, 1e-5)
            assert target - 1e-5 <= got <= target
            expansions = max(0, int(np.ceil(np.log2(max(target / 10.0, 1)))) + 2)
            budget = int(np.ceil(np.log2((10.0 + target) / 1e-5))) + expansions + 3
            assert calls["n"] <= budget, (target, calls["n"], budget)

    def test_ends_when_bracket_is_one_float_step(self):
        # With gamma_min = 0, or past ~6.9e10 where one float step exceeds
        # the default 1e-5, the bisection would never shrink the bracket
        # below gamma_min; it stops at adjacent floats instead.
        for target, gamma_min in ((7.3, 0.0), (3.0e11 + 0.1, 1e-5)):
            got = _largest_feasible_scale(lambda g, _t=target: g <= _t, 10.0, 5.0,
                                          gamma_min)
            assert got <= target < np.nextafter(got, np.inf)

    def test_needs_two_gradients(self):
        with pytest.raises(DegenerateError):
            minmax_attack([np.ones(3)], ScaleSpec("minmax"))
        with pytest.raises(DegenerateError):
            minsum_attack([np.ones(3)], ScaleSpec("minsum"))

    def test_deterministic(self):
        rng = substream(13, "det")
        grads = list(rng.standard_normal((5, 8)))
        a = minmax_attack(grads, ScaleSpec("minmax"))
        b = minmax_attack(grads, ScaleSpec("minmax"))
        assert np.array_equal(a, b)

    def test_expansion_beyond_initial_gamma(self):
        # A huge benign diameter forces the bracket to expand above 10.
        grads = [np.array([100.0, 0.0]), np.array([-100.0, 0.0]),
                 np.array([0.0, 150.0])]
        crafted = minmax_attack(grads, ScaleSpec("minmax"))
        gamma = _recover_gamma(crafted, np.asarray(grads), "+mean")
        assert gamma > 10.0


def reference_minmax(benign, spec, dists=None):
    """Min-max deciding every bisection step with the direct O(N*d) float
    expression.  minmax_attack must return the same bits.
    `dists`, the round's shared distances, are ignored: it builds its own."""
    grads = np.asarray(benign, dtype=np.float64)
    mean = grads.mean(axis=0)
    bound = float(np.sqrt(row_distances(grads).sq_dists.max()))
    direction = perturbation_direction(mean, spec.direction)
    if bound == 0.0 or not np.any(direction):
        return mean

    def feasible(gamma):
        candidate = mean + gamma * direction
        dists = np.linalg.norm(grads - candidate, axis=1)
        return float(dists.max()) <= bound

    gamma = _largest_feasible_scale(feasible, spec.gamma0, spec.step, spec.gamma_min)
    return mean + gamma * direction


def reference_minsum(benign, spec, dists=None):
    """Min-sum deciding every bisection step with the direct float sum.
    `dists`, the round's shared distances, are ignored: it builds its own."""
    grads = np.asarray(benign, dtype=np.float64)
    mean = grads.mean(axis=0)
    budget = float(row_distances(grads).sq_dists.sum(axis=1).max())
    direction = perturbation_direction(mean, spec.direction)
    if budget == 0.0 or not np.any(direction):
        return mean

    def feasible(gamma):
        candidate = mean + gamma * direction
        total = float(((grads - candidate) ** 2).sum())
        return total <= budget

    gamma = _largest_feasible_scale(feasible, spec.gamma0, spec.step, spec.gamma_min)
    return mean + gamma * direction


def _count_exact_calls(monkeypatch, name):
    calls = {"n": 0}
    exact = getattr(attacks, name)

    def counted(*args):
        calls["n"] += 1
        return exact(*args)

    monkeypatch.setattr(attacks, name, counted)
    return calls


# `key` names each search in its tests' substream keys; the names predate
# ScaleSpec and stay, so that no test array changes.
SCALE_SEARCHES = [
    pytest.param(minmax_attack, reference_minmax, "minmax", "MinMaxSpec", "_feasible_exact",
                 id="minmax"),
    pytest.param(minsum_attack, reference_minsum, "minsum", "MinSumSpec", "_feasible_exact",
                 id="minsum"),
]


@pytest.mark.parametrize("direction", ["+mean", "-mean", "sign"])
@pytest.mark.parametrize("attack, reference, kind, key, exact", SCALE_SEARCHES)
class TestCertifiedScaleSearch:
    def test_matches_direct_reference_across_scales(self, attack, reference, kind, key,
                                                    exact, direction):
        spec = ScaleSpec(kind, direction=direction)
        rng = substream(21, "certified", spec.kind, direction)
        for scale in 10.0 ** np.arange(-6, 7):
            for n, d in ((2, 1), (3, 7), (12, 64), (30, 400)):
                grads = (rng.standard_normal((n, d)) + rng.standard_normal(d)) * scale
                assert np.array_equal(attack(grads, spec), reference(grads, spec))

    def test_identical_rows_match_reference(self, attack, reference, kind, key, exact,
                                            direction):
        spec = ScaleSpec(kind, direction=direction)
        rng = substream(22, "identical", spec.kind, direction)
        row = rng.standard_normal(40)
        grads = np.tile(row, (6, 1))
        assert np.array_equal(attack(grads, spec), reference(grads, spec))
        grads[3] += 1e-9 * rng.standard_normal(40)
        assert np.array_equal(attack(grads, spec), reference(grads, spec))

    def test_tie_on_a_bisection_point_runs_exact_path(self, monkeypatch, attack, reference,
                                                      kind, key, exact, direction):
        # Rows c and c + 2s (s a power of two) put the largest feasible scale
        # at exactly 1 for both constraints, and bisection from gamma0 = 8
        # probes 4, 2, 1: at 1 the estimate cannot clear its error bound.
        calls = _count_exact_calls(monkeypatch, exact)
        for s in (2.0**-10, 1.0, 2.0**10):
            grads = np.array([[3.0 * s], [5.0 * s]])
            spec = ScaleSpec(kind, gamma0=8.0 * s, direction=direction)
            assert np.array_equal(attack(grads, spec), reference(grads, spec))
        assert calls["n"] >= 3

    def test_large_common_offset_runs_exact_path(self, monkeypatch, attack, reference,
                                                 kind, key, exact, direction):
        # Rows 1e7 spreads away from the origin, at scale 1e5: rounding of
        # the candidate m + gamma*u moves the direct distances by more than
        # the last bisection steps do, so an estimate trusted without its
        # error bound would take different decisions.
        calls = _count_exact_calls(monkeypatch, exact)
        rng = substream(23, "offset", key, direction)
        spec = ScaleSpec(kind, direction=direction)
        for n in range(3, 9):
            grads = 1e5 * (1e7 * rng.standard_normal(30) + rng.standard_normal((n, 30)))
            assert np.array_equal(attack(grads, spec), reference(grads, spec))
        assert calls["n"] > 0

    def test_well_conditioned_search_skips_exact_path(self, monkeypatch, attack, reference,
                                                      kind, key, exact, direction):
        calls = _count_exact_calls(monkeypatch, exact)
        rng = substream(24, "plain", key, direction)
        grads = rng.standard_normal((10, 200)) + rng.standard_normal(200)
        spec = ScaleSpec(kind, direction=direction)
        assert np.array_equal(attack(grads, spec), reference(grads, spec))
        assert calls["n"] == 0


@pytest.mark.parametrize("attack, reference, kind, key, exact", SCALE_SEARCHES)
def test_certified_search_matches_reference_at_benchmark_shape(attack, reference,
                                                               kind, key, exact):
    rng = substream(25, "wide", key)
    grads = 0.05 * rng.standard_normal((80, 7850)) + 0.01 * rng.standard_normal(7850)
    spec = ScaleSpec(kind, direction="-mean")
    assert np.array_equal(attack(grads, spec), reference(grads, spec))


@pytest.mark.parametrize("kind, name, reference", [
    ("minmax", "minmax_attack", reference_minmax),
    ("minsum", "minsum_attack", reference_minsum),
])
def test_run_artifacts_match_direct_reference(tmp_path, monkeypatch, kind, name, reference):
    cfg = ExperimentConfig(dataset="synthetic", aggregator="multikrum", n_clients=10,
                           rounds=3, seed=3, adv_ratio=0.2, synth_train=600,
                           synth_test=300, synth_features=12, synth_classes=3,
                           attack={"kind": kind, "direction": "-mean"})
    run_experiment(cfg, out_dir=tmp_path / "certified")
    monkeypatch.setattr(attacks, name, reference)
    run_experiment(cfg, out_dir=tmp_path / "reference")
    names = sorted(p.name for p in (tmp_path / "certified").iterdir())
    assert "attack.csv" in names
    assert names == sorted(p.name for p in (tmp_path / "reference").iterdir())
    for artifact in names:
        assert (tmp_path / "certified" / artifact).read_bytes() == \
               (tmp_path / "reference" / artifact).read_bytes()


@pytest.mark.parametrize("attack, reference, kind, key, exact", SCALE_SEARCHES)
def test_search_at_1e11_scale_ends_feasible(monkeypatch, attack, reference, kind, key,
                                            exact):
    # The largest feasible scale lands near 4e11, where one float step
    # (6.1e-5) exceeds gamma_min = 1e-5.
    found = []
    search = attacks._largest_feasible_scale

    def recording(*args):
        found.append(search(*args))
        return found[-1]

    monkeypatch.setattr(attacks, "_largest_feasible_scale", recording)
    rng = substream(26, "huge", key)
    grads = 1e11 * (rng.standard_normal((12, 8)) + rng.standard_normal(8))
    spec = ScaleSpec(kind)
    crafted = attack(grads, spec)
    mean = grads.mean(axis=0)
    direction = perturbation_direction(mean, spec.direction)
    gamma = found[-1]
    assert gamma > 1e11 and np.spacing(gamma) > spec.gamma_min
    assert np.array_equal(crafted, mean + gamma * direction)
    sq = row_distances(grads).sq_dists
    total = spec.kind == "minsum"
    limit = float(sq.sum(axis=1).max()) if total else float(np.sqrt(sq.max()))
    assert getattr(attacks, exact)(grads, mean, direction, gamma, limit, total)
    assert np.array_equal(crafted, reference(grads, spec))


@pytest.mark.parametrize("n,d", [(2, 1), (2, 13), (7, 9), (40, 1001), (12, 8193)])
def test_row_distances_bit_identical_to_whole_matrix_norms(n, d):
    # Row norms through one reused d-vector must equal the (N, d)-temporary
    # expression bit for bit, also for d above numpy's 8,192-element block.
    rng = substream(27, "pair", n, d)
    stack = rng.standard_normal((n, d)) * rng.uniform(0.1, 50.0, size=(n, 1))
    sq = (stack**2).sum(axis=1)
    want = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (stack @ stack.T), 0.0)
    assert np.array_equal(row_distances(stack).sq_dists, want)
    assert np.array_equal(row_distances(stack[1:]).sq_dists, np.maximum(
        sq[1:, None] + sq[None, 1:] - 2.0 * (stack[1:] @ stack[1:].T), 0.0))


def test_shifted_distances_bit_identical_to_fresh_differences():
    rng = substream(28, "shift")
    grads = rng.standard_normal((9, 1037)) * 3.0
    mean = grads.mean(axis=0)
    direction = perturbation_direction(mean, "sign")
    shifted = attacks._ShiftedDistances(grads, mean, direction,
                                        row_distances(grads).sq_norms)
    for i, row in enumerate(grads):
        diff = row - mean
        assert shifted.a[i] == diff @ diff and shifted.b[i] == diff @ direction
