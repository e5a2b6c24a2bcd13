"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with -s or -rA to see them
live) and appends the measured values to acceptance-report.txt in the
working directory, so thresholds and actuals stay auditable.

Criteria 4 and 5 train on the real MNIST IDX files.  They look in
$DP2GUARD_DATA_DIR and ./data/mnist and fail with instructions when the
files are absent; everything else is self-contained.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from dp2guard import models
from dp2guard.attacks import (
    FangSpec,
    ScaleSpec,
    fang_attack,
    minmax_attack,
    minsum_attack,
    perturbation_direction,
)
from dp2guard.client import local_gradient, split_and_mask
from dp2guard.config import ExperimentConfig
from dp2guard.data import partition, resolve_data_dir
from dp2guard.defense import detect, median_cosines, top_direction
from dp2guard.harness import load_datasets, run_experiment
from dp2guard.ledger import read_chain, verify_file
from dp2guard.models import Model
from dp2guard.numeric import encode_fixed, substream

REPORT = Path("acceptance-report.txt")


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    REPORT.write_text("")
    yield


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    with REPORT.open("a") as fh:
        fh.write(line + "\n")
    assert ok, line


def test_criterion_1_mask_cancellation_exactness():
    # 1000 seeded gradients (d=1000): decode(share1+share2) equals the
    # encode-quantized gradient bit-exactly.  Budget: 5 s.
    started = time.perf_counter()
    rng = substream(1000, "grads")
    for trial in range(1000):
        g = rng.uniform(-50, 50, size=1000)
        s1, s2 = split_and_mask(g, 16, substream(1001, "mask", trial))
        combined = np.add(s1, s2)  # wraps mod 2**64
        quantized = encode_fixed(g, 16)
        assert np.array_equal(combined, quantized)
    elapsed = time.perf_counter() - started
    report(1, elapsed < 5.0,
           f"1000/1000 reconstructions bit-exact in {elapsed:.2f}s (< 5s)")


def test_criterion_2_pipeline_oracle_equivalence():
    # Full dual-server rounds at N=20, d=7850 track a plaintext pipeline
    # with identical weights within 1e-3 per entry.  Budget: 60 s.
    started = time.perf_counter()
    cfg = ExperimentConfig(dataset="synthetic", aggregator="dp2guard",
                           n_clients=20, rounds=10, seed=5, synth_train=2000,
                           synth_test=500, synth_features=784, synth_classes=10)
    res = run_experiment(cfg, record_history=True)
    assert res.model.dim == 7850

    train, _ = load_datasets(cfg)
    assignments = partition(train, cfg.n_clients, cfg.partition, cfg.alpha,
                            rng=substream(cfg.seed, "partition"))
    datasets = [train.subset(idx) for idx in assignments]
    params = res.model.init_params(substream(cfg.seed, "model-init"))
    worst = 0.0
    for t in range(cfg.rounds):
        tau = res.weight_history[t]
        grads = {cid: local_gradient(local, res.model, params, cfg.local_mode,
                                     cfg.batch_size, cfg.eta,
                                     substream(cfg.seed, "client", cid, t))
                 for cid, local in enumerate(datasets)}
        agg = sum(tau[cid] * grads[cid] for cid in sorted(grads))
        params = models.sgd_step(params, agg, cfg.eta)
        worst = max(worst, float(np.max(np.abs(params - res.params_history[t]))))
    elapsed = time.perf_counter() - started
    report(2, worst <= 1e-3 and elapsed < 60.0,
           f"max per-entry deviation {worst:.2e} (<= 1e-3) over 10 rounds, "
           f"{elapsed:.1f}s (< 60s)")


def _detection_trial(seed: int, kind: str) -> tuple[float, float]:
    rng = substream(seed, "accept3", kind)
    n, d, n_mal = 50, 100, 20
    center = rng.standard_normal(d)
    benign = center + np.sqrt(0.1) * rng.standard_normal((n - n_mal, d))
    if kind == "fang":
        crafted = fang_attack(list(benign), FangSpec(), lambda g: True)
    elif kind == "minmax":
        crafted = minmax_attack(list(benign), ScaleSpec("minmax", direction="-mean"))
    else:
        crafted = minsum_attack(list(benign), ScaleSpec("minsum", direction="-mean"))
    grads = np.concatenate([benign, np.broadcast_to(crafted, (n_mal, d))])
    result = detect(grads - np.mean(grads, axis=0), substream(seed, "accept3-km", kind))
    flagged = set(range(n)) - set(result.benign)
    truth = set(range(n - n_mal, n))
    tp = len(flagged & truth)
    precision = tp / len(flagged) if flagged else 0.0
    recall = tp / len(truth)
    return precision, recall


def test_criterion_3_detection_quality():
    # N=50, d=100, benign ~ N(mu, 0.1 I), 40% malicious per attack kind:
    # mean precision and recall >= 0.9 over 20 seeds.  Budget: 2 min.
    started = time.perf_counter()
    details = []
    ok = True
    for kind in ("fang", "minmax", "minsum"):
        stats = [_detection_trial(seed, kind) for seed in range(20)]
        precision = float(np.mean([s[0] for s in stats]))
        recall = float(np.mean([s[1] for s in stats]))
        ok = ok and precision >= 0.9 and recall >= 0.9
        details.append(f"{kind} p={precision:.3f} r={recall:.3f}")
    elapsed = time.perf_counter() - started
    report(3, ok and elapsed < 120.0,
           "; ".join(details) + f" (all >= 0.9), {elapsed:.1f}s (< 2min)")


def _mnist_config(criterion: int, **overrides):
    try:
        data_dir = resolve_data_dir(None, "mnist")
    except FileNotFoundError as exc:
        detail = (
            f"MNIST IDX files unavailable: {exc}. Place train-images-idx3-ubyte, "
            "train-labels-idx1-ubyte, t10k-images-idx3-ubyte, "
            "t10k-labels-idx1-ubyte (optionally .gz) under ./data/mnist or set "
            "DP2GUARD_DATA_DIR. This environment cannot download them."
        )
        line = f"[FAIL] criterion {criterion}: {detail}"
        print(line)
        with REPORT.open("a") as fh:
            fh.write(line + "\n")
        pytest.fail(detail)
    base = dict(dataset="mnist", data_dir=str(data_dir), model="logreg",
                n_clients=20, rounds=50, seed=0, train_subset=2000,
                test_subset=2000)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_4_directional_robustness_mnist():
    # MNIST 2000-sample subset, 40% Fang: the masked pipeline stays within
    # 3 points of its own no-attack run while FedAvg loses >= 10 points.
    started = time.perf_counter()
    dp_clean = run_experiment(_mnist_config(4, aggregator="dp2guard")).final_accuracy
    fed_clean = run_experiment(_mnist_config(4, aggregator="fedavg")).final_accuracy
    attack = {"kind": "fang"}
    dp_atk = run_experiment(_mnist_config(4, aggregator="dp2guard", adv_ratio=0.4,
                                          attack=attack)).final_accuracy
    fed_atk = run_experiment(_mnist_config(4, aggregator="fedavg", adv_ratio=0.4,
                                           attack=attack)).final_accuracy
    elapsed = time.perf_counter() - started
    dp_drop = 100 * (dp_clean - dp_atk)
    fed_drop = 100 * (fed_clean - fed_atk)
    report(4, dp_drop <= 3.0 and fed_drop >= 10.0 and elapsed < 600.0,
           f"dp2guard {dp_clean:.3f}->{dp_atk:.3f} (drop {dp_drop:.1f} <= 3), "
           f"fedavg {fed_clean:.3f}->{fed_atk:.3f} (drop {fed_drop:.1f} >= 10), "
           f"{elapsed:.0f}s (< 10min)")


def test_criterion_5_label_flip_robustness_mnist():
    # Same desk setup with 30% label flips: dp2guard >= fedavg and within
    # 3 points of its own no-attack run.
    started = time.perf_counter()
    dp_clean = run_experiment(_mnist_config(5, aggregator="dp2guard")).final_accuracy
    attack = {"kind": "label_flip", "offset": 5, "fraction": 0.3}
    dp_atk = run_experiment(_mnist_config(5, aggregator="dp2guard", adv_ratio=0.4,
                                          attack=attack)).final_accuracy
    fed_atk = run_experiment(_mnist_config(5, aggregator="fedavg", adv_ratio=0.4,
                                           attack=attack)).final_accuracy
    elapsed = time.perf_counter() - started
    dp_drop = 100 * (dp_clean - dp_atk)
    report(5, dp_atk >= fed_atk and dp_drop <= 3.0 and elapsed < 600.0,
           f"dp2guard {dp_atk:.3f} >= fedavg {fed_atk:.3f}; "
           f"dp2guard drop {dp_drop:.1f} <= 3, {elapsed:.0f}s")


def test_criterion_6_poisoning_ratio_sweep():
    # Min-Max sweep over adv_ratio 0..0.4 on separable synthetic data:
    # dp2guard loses <= 5 points end to end while FedAvg loses >= 15.
    base = dict(dataset="synthetic", n_clients=20, rounds=50, seed=0,
                model="mlp", hidden=32, eta=0.1, local_mode="batch",
                batch_size=8)
    finals = {}
    for aggregator in ("dp2guard", "fedavg"):
        accs = []
        for ratio in (0.0, 0.1, 0.2, 0.3, 0.4):
            kw = dict(base, aggregator=aggregator, adv_ratio=ratio)
            if ratio > 0:
                kw["attack"] = {"kind": "minmax", "direction": "-mean"}
            accs.append(run_experiment(ExperimentConfig(**kw)).final_accuracy)
        finals[aggregator] = accs
    dp_drop = 100 * (finals["dp2guard"][0] - finals["dp2guard"][-1])
    fed_drop = 100 * (finals["fedavg"][0] - finals["fedavg"][-1])
    dp_curve = " ".join(f"{a:.3f}" for a in finals["dp2guard"])
    fed_curve = " ".join(f"{a:.3f}" for a in finals["fedavg"])
    report(6, dp_drop <= 5.0 and fed_drop >= 15.0,
           f"dp2guard [{dp_curve}] drop {dp_drop:.1f} <= 5; "
           f"fedavg [{fed_curve}] drop {fed_drop:.1f} >= 15")


def test_criterion_7_trust_dynamics():
    # Every attack at 40% adversaries: by round 20 mean malicious trust is
    # at most half the mean benign trust.
    cases = [
        ("label_flip", dict(model="mlp", hidden=32, eta=0.1, synth_classes=10,
                            attack={"kind": "label_flip", "offset": 5,
                                    "fraction": 0.3})),
        ("fang", dict(attack={"kind": "fang", "oracle": "accept_all"})),
        ("minmax", dict(attack={"kind": "minmax", "direction": "-mean"})),
        ("minsum", dict(attack={"kind": "minsum", "direction": "-mean"})),
    ]
    details = []
    ok = True
    for kind, extra in cases:
        kw = dict(dataset="synthetic", aggregator="dp2guard", n_clients=20,
                  rounds=20, seed=0, adv_ratio=0.4)
        kw.update(extra)
        res = run_experiment(ExperimentConfig(**kw))
        last = res.metrics[-1]
        ratio = last.mean_trust_malicious / last.mean_trust_benign
        ok = ok and ratio <= 0.5
        details.append(f"{kind} ratio={ratio:.3f}")
    report(7, ok, "; ".join(details) + " (all <= 0.5 at round 20)")


def test_criterion_8_ledger_integrity(tmp_path):
    # 100 random single-bit corruptions of a 50-block ledger are each
    # detected at the correct first-bad index; replay reproduces hashes.
    cfg = ExperimentConfig(dataset="synthetic", aggregator="dp2guard",
                           n_clients=8, rounds=50, seed=2, synth_train=400,
                           synth_test=200, synth_features=10, synth_classes=3)
    a = run_experiment(cfg, out_dir=tmp_path / "a")
    b = run_experiment(cfg, out_dir=tmp_path / "b")
    hashes_a, hashes_b = ([blk.hash for blk in read_chain(tmp_path / run / "ledger.jsonl")]
                          for run in ("a", "b"))
    replay_ok = hashes_a == hashes_b and a.ledger.head.hash == hashes_a[-1]

    path = tmp_path / "a" / "ledger.jsonl"
    assert verify_file(path) is None and len(hashes_a) == 50
    raw = bytearray(path.read_bytes())
    line_starts = [0] + [i + 1 for i, byte in enumerate(raw) if byte == 0x0A]
    rng = substream(8, "flips")
    detected = 0
    for trial in range(100):
        pos = int(rng.integers(0, len(raw)))
        bit = int(rng.integers(0, 8))
        mutated = bytearray(raw)
        mutated[pos] ^= 1 << bit
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_bytes(bytes(mutated))
        want = sum(1 for s in line_starts[1:] if pos >= s)
        if verify_file(corrupt) == want:
            detected += 1
    report(8, detected == 100 and replay_ok,
           f"{detected}/100 corruptions detected at the flipped block's index; "
           f"replay hashes identical: {replay_ok}")


def test_criterion_9_attack_constraint_feasibility():
    # 200 seeded instances per attack: the returned scale satisfies its
    # constraint and scale + 2*gamma_min violates it.
    def minmax_stats(grads, crafted, spec):
        diffs = grads[:, None, :] - grads[None, :, :]
        bound = float(np.sqrt((diffs**2).sum(axis=2)).max())
        dist = float(np.linalg.norm(grads - crafted, axis=1).max())
        return dist, bound

    def minsum_stats(grads, crafted, spec):
        diffs = grads[:, None, :] - grads[None, :, :]
        budget = float((diffs**2).sum(axis=2).sum(axis=1).max())
        total = float(((grads - crafted) ** 2).sum())
        return total, budget

    checked = 0
    for kind, attack_fn, stats_fn, spec in (
        ("minmax", minmax_attack, minmax_stats, ScaleSpec("minmax", direction="-mean")),
        ("minsum", minsum_attack, minsum_stats, ScaleSpec("minsum", direction="-mean")),
    ):
        rng = substream(9, kind)
        for _ in range(200):
            n = int(rng.integers(4, 9))
            d = int(rng.integers(3, 12))
            grads = rng.standard_normal((n, d)) * rng.uniform(0.5, 3) \
                + rng.standard_normal(d)
            crafted = attack_fn(list(grads), spec)
            value, bound = stats_fn(grads, crafted, spec)
            assert value <= bound + 1e-9, f"{kind}: infeasible result"
            unit = perturbation_direction(grads.mean(axis=0), spec.direction)
            gamma = float((crafted - grads.mean(axis=0)) @ unit)
            pushed = grads.mean(axis=0) + (gamma + 2 * spec.gamma_min) * unit
            value2, bound2 = stats_fn(grads, pushed, spec)
            assert value2 > bound2, f"{kind}: returned scale not maximal"
            checked += 1
    report(9, checked == 400,
           f"{checked}/400 instances feasible and maximal (step 2*gamma_min "
           "violates the constraint)")


def test_criterion_10_numerical_oracles():
    # Gradients vs central finite differences; top_direction vs dense SVD;
    # median cosines vs the O(N^2 d) brute force.
    from test_defense import brute_force_median_cosines, svd_top_right_singular_vector
    from test_models import finite_difference_grad

    worst_rel = 0.0
    for arch, hidden in (("logreg", 1), ("mlp", 6)):
        model = Model(arch, n_features=5, n_classes=3, hidden=hidden)
        rng = substream(10, "fd", arch)
        for _ in range(20):
            params = rng.standard_normal(model.dim) * 0.5
            X = rng.standard_normal((10, 5))
            y = rng.integers(0, 3, size=10)
            got = model.grad(params, X, y)
            want = finite_difference_grad(model, params, X, y)
            rel = float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-8))
            worst_rel = max(worst_rel, rel)
    grad_ok = worst_rel <= 1e-3

    worst_align = 1.0
    rng = substream(10, "svd")
    for _ in range(100):
        rows = rng.standard_normal((5, 8))
        align = abs(float(top_direction(rows) @ svd_top_right_singular_vector(rows)))
        worst_align = min(worst_align, align)
    svd_ok = worst_align >= 1.0 - 1e-8

    rng = substream(10, "cos")
    cos_ok = all(
        np.array_equal(median_cosines(rows), brute_force_median_cosines(rows))
        for rows in (rng.standard_normal((6, 4)) for _ in range(100))
    )
    report(10, grad_ok and svd_ok and cos_ok,
           f"finite-diff rel err {worst_rel:.2e} <= 1e-3; SVD alignment "
           f"{worst_align:.10f} >= 1-1e-8; 100/100 median cosines exact: {cos_ok}")
