import csv
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import dp2guard.client as client_mod
from dp2guard import attacks, baselines, harness, models, servers, trust
from dp2guard.attacks import fang_attack, fang_candidate
from dp2guard.baselines import dnc_survivors, fedavg
from dp2guard.client import local_gradient, split_and_mask
from dp2guard.data import Dataset, partition
from dp2guard.defense import detect
from dp2guard.errors import ConfigError, NonFiniteGradient, OutputExists
from dp2guard.harness import (
    CSV_HEADER,
    ExperimentConfig,
    emit_metrics,
    load_datasets,
    plot_metrics,
    run_experiment,
)
from dp2guard.ledger import Ledger, payload_trust_weights, read_chain, verify_file
from dp2guard.numeric import partial_aggregate, reassemble_global, substream
from dp2guard.servers import (
    Channel,
    ServerS1,
    ServerS2,
    encode_message,
)

from test_baselines import dnc, multi_krum, multi_krum_select, shared_krum_scores
from test_servers import RecordingChannel


def _desk_config(**overrides):
    base = dict(dataset="synthetic", aggregator="dp2guard", n_clients=10, rounds=5,
                seed=3, synth_train=600, synth_test=300, synth_features=12,
                synth_classes=3)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_round_trip(self):
        cfg = _desk_config(adv_ratio=0.2, attack={"kind": "minmax", "direction": "-mean"})
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"dataset": "synthetic", "bogus": 1})

    def test_removed_projection_dim_is_an_unknown_key(self):
        # Detection has one exact path; an old resolved-config.json that
        # still carries the sketch width is rejected, not silently ignored.
        with pytest.raises(ConfigError, match="projection_dim"):
            ExperimentConfig.from_dict({"projection_dim": 8})

    def test_unknown_attack_param_rejected(self):
        with pytest.raises(ConfigError):
            _desk_config(adv_ratio=0.1, attack={"kind": "fang", "bogus": 2})

    def test_attack_required_for_positive_ratio(self):
        with pytest.raises(ConfigError):
            _desk_config(adv_ratio=0.1)

    def test_bad_enum_values_rejected(self):
        for field, value in [("dataset", "cifar"), ("model", "resnet"),
                             ("aggregator", "median"), ("partition", "sorted"),
                             ("exclusion", "never"), ("local_mode", "full")]:
            with pytest.raises(ConfigError):
                _desk_config(**{field: value})

    def test_malicious_ids_are_first_k(self):
        cfg = _desk_config(adv_ratio=0.3, attack={"kind": "fang"})
        assert cfg.malicious_ids == (0, 1, 2)

    def test_numeric_fields_validated(self):
        for bad in (dict(eta=0.0), dict(eta=-0.1), dict(batch_size=0),
                    dict(scale_bits=0), dict(scale_bits=49), dict(scale_bits=60)):
            with pytest.raises(ConfigError):
                _desk_config(**bad)
        assert _desk_config(scale_bits=48).scale_bits == 48

    def test_label_flip_bounds_use_run_class_count(self):
        # offset must lie in [1, n_classes) and fraction in (0, 1], with
        # n_classes what the run will see: synth_classes, or 10 for IDX data.
        for attack in ({"kind": "label_flip"},  # default offset 5 >= 3 classes
                       {"kind": "label_flip", "offset": 0},
                       {"kind": "label_flip", "offset": 1.5},
                       {"kind": "label_flip", "offset": 1, "fraction": 0.0},
                       {"kind": "label_flip", "offset": 1, "fraction": 1.5}):
            with pytest.raises(ConfigError):
                _desk_config(adv_ratio=0.2, attack=attack)
        with pytest.raises(ConfigError):
            ExperimentConfig(synth_classes=4, adv_ratio=0.2,
                             attack={"kind": "label_flip"})
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="mnist", adv_ratio=0.2,
                             attack={"kind": "label_flip", "offset": 10})
        ExperimentConfig(dataset="mnist", adv_ratio=0.2, attack={"kind": "label_flip"})
        _desk_config(adv_ratio=0.2, attack={"kind": "label_flip", "offset": 2,
                                            "fraction": 1.0})

    def test_multikrum_needs_2f_plus_3_clients(self):
        # n=10, adv_ratio=0.4 gives f=4, and 10 < 2*4+3
        with pytest.raises(ConfigError):
            _desk_config(aggregator="multikrum", adv_ratio=0.4,
                         attack={"kind": "fang"})
        with pytest.raises(ConfigError):
            _desk_config(aggregator="multikrum", aggregator_params={"f": 4})
        _desk_config(aggregator="multikrum", aggregator_params={"f": 3})

    def test_multikrum_m_within_1_and_n_minus_f(self):
        for m in (0, 9):
            with pytest.raises(ConfigError):
                _desk_config(aggregator="multikrum", aggregator_params={"f": 2, "m": m})
        for m in (1, 8):
            _desk_config(aggregator="multikrum", aggregator_params={"f": 2, "m": m})


@pytest.mark.parametrize("overrides", [
    dict(attack={"kind": "minmax", "gamma0": 0.0}),
    dict(attack={"kind": "minmax", "step": -1.0}),
    dict(attack={"kind": "minsum", "gamma_min": 0}),
    dict(attack={"kind": "minsum", "gamma_min": float("nan")}),
    dict(attack={"kind": "fang", "lambda0": float("inf")}),
    dict(attack={"kind": "fang", "oracle": "defence"}),
    dict(attack={"kind": "minmax", "direction": "mean"}),
    dict(aggregator="dnc", aggregator_params={"n_iter": 3}),
    dict(aggregator="dp2guard", aggregator_params={"f": 1}),
    dict(aggregator="multikrum", aggregator_params={"n_iters": 2}),
    dict(aggregator="dnc", aggregator_params={"sub_dim": "x"}),
    dict(aggregator="dnc", aggregator_params={"n_iters": 0}),
    dict(aggregator="dnc", aggregator_params={"assumed_malicious": 1.5}),
    dict(aggregator="dnc", aggregator_params={"filter_frac": 0.0}),
    dict(aggregator="multikrum", aggregator_params={"f": -1}),
    dict(aggregator="fltrust", fltrust_root_size=0),
    dict(hidden=0),
    dict(model="mlp", hidden=0),
    dict(partition="dirichlet", alpha=0),
    dict(partition="dirichlet", alpha=-0.5),
    dict(partition="dirichlet", alpha=float("nan")),
    dict(partition="dirichlet", alpha=float("inf")),
    dict(partition="dirichlet", alpha="1"),
    dict(synth_classes=1),  # one class trains nothing; detection sees zero rows
    dict(beta=1.0),
    dict(beta=-0.25),
], ids=repr)
def test_config_rejects_bad_parameters(overrides):
    with pytest.raises(ConfigError):
        _desk_config(adv_ratio=0.2 if "attack" in overrides else 0.0, **overrides)


@pytest.mark.parametrize("overrides", [
    dict(rounds=2.5),
    dict(n_clients=6.5),
    dict(batch_size=1.5),
    dict(synth_train=100.5),
    dict(scale_bits=16.5),
    dict(seed="x"),
    dict(seed=1.5),
    dict(seed=2**63),
    dict(hidden=True),
    dict(scale_bits=True),
    dict(rounds=True),
    dict(aggregator="multikrum", aggregator_params={"f": True}),
    dict(alpha=True),
    dict(eta="0.1"),
    dict(beta="0.5"),
    dict(adv_ratio=None),
    dict(adv_ratio=0.2, attack="fang"),
    dict(adv_ratio=0.2, attack={"kind": "label_flip", "offset": True}),
    dict(aggregator="multikrum", aggregator_params=[]),
    dict(eta=float("nan")),
    dict(eta=float("inf")),
    dict(eta=10**400),
    dict(train_subset=2.5),
    dict(data_dir=5),
], ids=repr)
def test_config_rejects_ill_typed_values(overrides):
    # Each of these used to fail mid-run with a bare TypeError, a
    # struct.error or an OverflowError, or to run as if it were an int.
    raw = dict(n_clients=10, rounds=5, seed=3, synth_train=600, synth_test=300,
               synth_features=12, synth_classes=3)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**raw, **overrides})


def test_config_accepts_each_rule_parameter():
    _desk_config(adv_ratio=0.2, attack={"kind": "minsum", "gamma0": 2, "step": 0.5,
                                        "gamma_min": 1e-3, "direction": "sign"})
    _desk_config(adv_ratio=0.2, attack={"kind": "fang", "lambda0": 1.0,
                                        "oracle": "accept_all"})
    _desk_config(aggregator="dnc", aggregator_params={
        "n_iters": 2, "sub_dim": 5, "filter_frac": 1, "assumed_malicious": 2})
    _desk_config(aggregator="multikrum", aggregator_params={"f": 0, "m": 1})
    _desk_config(hidden=1, fltrust_root_size=1)
    _desk_config(partition="dirichlet", alpha=0.01)
    _desk_config(partition="iid", alpha=0)  # alpha only shapes dirichlet draws
    _desk_config(seed=-2**63, eta=1, beta=0, train_subset=0, test_subset=None)
    _desk_config(seed=2**63 - 1, data_dir="data", synth_separation=-1)


class TestRunDeterminism:
    def test_bit_identical_artifacts(self, tmp_path):
        cfg = _desk_config(adv_ratio=0.2, attack={"kind": "minmax", "direction": "-mean"})
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/metrics.csv").read_bytes() == \
               (tmp_path / "b/metrics.csv").read_bytes()
        assert (tmp_path / "a/ledger.jsonl").read_bytes() == \
               (tmp_path / "b/ledger.jsonl").read_bytes()

    def test_seed_changes_trajectory(self):
        a = run_experiment(_desk_config())
        b = run_experiment(_desk_config(seed=4))
        assert a.metrics[-1].accuracy != b.metrics[-1].accuracy


    def test_a_run_leaves_nothing_behind_for_the_next(self, tmp_path):
        # Runs keep their buffers for their own length only: A, then B with
        # another seed, client count and model, then A again in the same
        # process writes A's artifacts byte for byte.
        a = _desk_config(rounds=3, adv_ratio=0.2, attack={"kind": "fang"})
        b = _desk_config(rounds=2, seed=9, n_clients=7, model="mlp", hidden=8)
        run_experiment(a, out_dir=tmp_path / "a1")
        run_experiment(b, out_dir=tmp_path / "b")
        run_experiment(a, out_dir=tmp_path / "a2")
        for name in harness.ARTIFACTS:  # a fang dp2guard run writes all six
            assert (tmp_path / "a1" / name).read_bytes() == \
                   (tmp_path / "a2" / name).read_bytes()

    @pytest.mark.parametrize("overrides", [
        dict(model="mlp", hidden=8), dict(adv_ratio=0.2, attack={"kind": "fang"})],
        ids=["mlp-no-attack", "fang"])
    def test_recording_history_moves_no_artifact(self, tmp_path, overrides):
        # record_history trains every client into its own row, even where
        # the run would otherwise stream them through one reused row, stacks
        # the rows and changes nothing the run writes.  Each round's
        # recorded gradients are the population `_round_gradients` trains
        # from its parameters (the honest rows under fang, after the crafted
        # copies), bit for bit.
        cfg = _desk_config(rounds=3, **overrides)
        run_experiment(cfg, out_dir=tmp_path / "off")
        res = run_experiment(cfg, out_dir=tmp_path / "on", record_history=True)
        for name in harness.ARTIFACTS:
            off = tmp_path / "off" / name
            assert off.exists() == (tmp_path / "on" / name).exists()
            if off.exists():
                assert off.read_bytes() == (tmp_path / "on" / name).read_bytes()
        train, _ = load_datasets(cfg)
        datasets = [train.subset(idx) for idx in partition(
            train, cfg.n_clients, cfg.partition, cfg.alpha, rng=substream(cfg.seed, "partition"))]
        params = res.model.init_params(substream(cfg.seed, "model-init"))
        spec = cfg.parse_attack()
        n_rows = cfg.n_clients - (cfg.n_malicious if isinstance(spec, harness.FULL_KNOWLEDGE)
                                  else 0)
        rows = np.empty((n_rows, res.model.dim))
        for t in range(cfg.rounds):
            gradients, _, _ = harness._round_gradients(cfg, datasets, res.model, params, t,
                                                       spec, rows)
            assert res.gradient_history[t].shape == (cfg.n_clients, res.model.dim)
            assert res.gradient_history[t].tobytes() == np.asarray(gradients).tobytes()
            params = res.params_history[t]


class TestSetupMemory:
    @pytest.mark.parametrize("overrides", [
        {}, {"train_subset": 500},
        {"adv_ratio": 0.2, "attack": {"kind": "label_flip", "offset": 1}}])
    def test_unpartitioned_features_are_freed_before_round_0(self, monkeypatch, overrides):
        # Each training row lives once, in its client's Dataset: nothing
        # holds the loaded matrix once the rounds start.  The probe sits at
        # round 0's first local training, which the stacked and the
        # streamed round paths both make.
        refs, alive = [], []

        def tracked_load(cfg):
            train, test = load_datasets(cfg)
            refs.append(weakref.ref(train.features))
            return train, test

        def probed_gradient(*args, **kwargs):
            if not alive:
                alive.append(refs[0]() is not None)
            return local_gradient(*args, **kwargs)

        monkeypatch.setattr(harness, "load_datasets", tracked_load)
        monkeypatch.setattr(client_mod, "local_gradient", probed_gradient)
        run_experiment(_desk_config(rounds=1, **overrides))
        assert alive == [False]

    def test_a_dp2guard_run_does_not_import_numpy_ma(self):
        # np.median imports numpy.ma on first use; median cosines use
        # np.partition, so a dp2guard round must not pull it in.
        src = str(Path(harness.__file__).resolve().parent.parent)
        code = ("import sys\n"
                "from dp2guard.harness import ExperimentConfig, run_experiment\n"
                "run_experiment(ExperimentConfig(dataset='synthetic', n_clients=10, rounds=1,"
                " synth_train=600, synth_test=300, synth_features=12, synth_classes=3))\n"
                "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert out == "False\n"


class TestLedgerHandle:
    def test_failed_round_closes_ledger(self, tmp_path, monkeypatch):
        # The ledger keeps its file open between appends; a round that
        # raises must still release it.
        opened = []

        class TrackedLedger(Ledger):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        real_round = harness._dp2guard_round

        def fail_in_round_1(cfg, stack, round_no, *rest):
            if round_no == 1:
                raise RuntimeError("round 1 failed")
            return real_round(cfg, stack, round_no, *rest)

        monkeypatch.setattr(harness, "Ledger", TrackedLedger)
        monkeypatch.setattr(harness, "_dp2guard_round", fail_in_round_1)
        with pytest.raises(RuntimeError, match="round 1 failed"):
            run_experiment(_desk_config(rounds=3), out_dir=tmp_path)
        [ledger] = opened
        assert ledger.head.index == 0 and ledger._fh is None


class TestNoAttackFloor:
    def test_dp2guard_reaches_reference_accuracy(self):
        # Reference floor: separable synthetic, 30 rounds, no adversaries.
        cfg = ExperimentConfig(dataset="synthetic", aggregator="dp2guard",
                               n_clients=20, rounds=30, seed=0)
        res = run_experiment(cfg)
        assert res.final_accuracy >= 0.95

    def test_detection_metrics_absent_without_adversaries(self):
        res = run_experiment(_desk_config())
        assert all(m.precision is None and m.recall is None for m in res.metrics)


class TestPipelineOracle:
    def test_global_updates_match_plaintext_weighted_pipeline(self):
        cfg = _desk_config(rounds=6, adv_ratio=0.2,
                           attack={"kind": "minsum", "direction": "-mean"})
        res = run_experiment(cfg, record_history=True)
        params = res.model.init_params(substream(cfg.seed, "model-init"))
        for t in range(cfg.rounds):
            grads = res.gradient_history[t]
            assert grads.shape == (cfg.n_clients, res.model.dim)
            tau = res.weight_history[t]
            agg = sum(tau[cid] * grads[cid] for cid in range(cfg.n_clients))
            params = models.sgd_step(params, agg, cfg.eta)
            assert np.max(np.abs(params - res.params_history[t])) <= 1e-3

    def test_masked_transport_matches_plaintext_fedavg(self):
        # Uniform weights through the dual-server transport track plain
        # FedAvg within 1e-3 per parameter per round.
        cfg = _desk_config(rounds=5)
        train, _ = load_datasets(cfg)
        assignments = partition(train, cfg.n_clients, "iid", cfg.alpha,
                                rng=substream(cfg.seed, "partition"))
        datasets = [train.subset(idx) for idx in assignments]
        model = models.Model(cfg.model, train.n_features, train.n_classes)
        masked = model.init_params(substream(cfg.seed, "model-init"))
        plain = masked.copy()
        tau = {cid: 1.0 / cfg.n_clients for cid in range(cfg.n_clients)}
        for t in range(cfg.rounds):
            grads_m, grads_p = {}, {}
            for cid, local in enumerate(datasets):
                grads_m[cid] = local_gradient(
                    local, model, masked, "epoch", cfg.batch_size, cfg.eta,
                    substream(cfg.seed, "client", cid, t))
                grads_p[cid] = local_gradient(
                    local, model, plain, "epoch", cfg.batch_size, cfg.eta,
                    substream(cfg.seed, "client", cid, t))
            shares1, shares2 = [], []
            for cid in sorted(grads_m):
                s1, s2 = split_and_mask(grads_m[cid], cfg.scale_bits,
                                        substream(cfg.seed, "mask", cid, t))
                shares1.append(s1)
                shares2.append(s2)
            w = [tau[cid] for cid in sorted(tau)]
            (a1, scale_bits), (a2, _) = (partial_aggregate(np.stack(shares), w, cfg.scale_bits)
                                         for shares in (shares1, shares2))
            assert scale_bits == cfg.scale_bits + 32
            g_masked = reassemble_global(a1, a2, scale_bits)
            masked = models.sgd_step(masked, g_masked, cfg.eta)
            plain = models.sgd_step(plain, fedavg(list(grads_p.values())), cfg.eta)
            assert np.max(np.abs(masked - plain)) <= 1e-3


class TestDetectionGroundTruth:
    def test_metrics_derive_from_config_ids_only(self):
        cfg = _desk_config(n_clients=10, rounds=3, adv_ratio=0.3,
                           attack={"kind": "minmax", "direction": "-mean"})
        res = run_experiment(cfg, record_history=True)
        for t, m in enumerate(res.metrics):
            flagged = set(range(cfg.n_clients)) - res.benign_history[t]
            truth = set(cfg.malicious_ids)
            want_prec = len(flagged & truth) / len(flagged) if flagged else 0.0
            want_rec = len(flagged & truth) / len(truth)
            assert m.precision == want_prec and m.recall == want_rec

    def test_attackers_submit_identical_copies(self):
        cfg = _desk_config(rounds=2, adv_ratio=0.3,
                           attack={"kind": "fang", "oracle": "accept_all"})
        res = run_experiment(cfg, record_history=True)
        for grads in res.gradient_history:
            crafted = [grads[cid] for cid in cfg.malicious_ids]
            assert all(np.array_equal(crafted[0], g) for g in crafted[1:])

    def test_baseline_selection_rules_report_metrics(self):
        cfg = _desk_config(aggregator="multikrum", rounds=3, adv_ratio=0.2,
                           attack={"kind": "fang", "oracle": "accept_all"})
        res = run_experiment(cfg)
        assert all(m.precision is not None for m in res.metrics)
        cfg = _desk_config(aggregator="fltrust", rounds=3, adv_ratio=0.2,
                           attack={"kind": "fang", "oracle": "accept_all"})
        res = run_experiment(cfg)
        assert all(m.precision is None for m in res.metrics)


def reference_dp2guard_oracle(cfg, honest, round_no):
    """The dp2guard fang oracle with the population mean recomputed for
    every client (O(N^2 d) a candidate).  The harness oracle must make the
    same decisions."""
    n_mal = cfg.n_malicious

    def oracle(candidate):
        pop = list(honest) + [candidate] * n_mal
        centered = np.stack([g - np.mean(pop, axis=0) for g in pop])
        rng = substream(cfg.seed, "attack-oracle", round_no)
        result = detect(centered, rng)
        return any(i in result.benign for i in range(len(honest), len(pop)))
    return oracle


def _logged(oracle, log):
    def wrapped(candidate):
        accepted = oracle(candidate)
        log.append(accepted)
        return accepted
    return wrapped


def reference_dnc_oracle(cfg, honest, round_no):
    """The DnC fang oracle as a single inline filter pass.  For n_iters=1
    the harness oracle, which calls baselines.dnc_survivors, must make the
    same decisions."""
    dcfg = harness._dnc_params(cfg)
    n_mal = cfg.n_malicious

    def oracle(candidate):
        stack = np.asarray(list(honest) + [candidate] * n_mal)
        rng = substream(cfg.seed, "attack-oracle", round_no)
        centered = stack - stack.mean(axis=0)
        take = min(dcfg.sub_dim, stack.shape[1])
        coords = rng.choice(stack.shape[1], size=take, replace=False)
        _, _, vt = np.linalg.svd(centered[:, coords], full_matrices=False)
        scores = (centered[:, coords] @ vt[0]) ** 2
        remove = min(int(np.ceil(dcfg.filter_frac * dcfg.assumed_malicious)),
                     len(stack) - 1)
        kept = np.argsort(scores, kind="stable")[: len(stack) - remove]
        return any(i >= len(honest) for i in kept)
    return oracle


class TestFangOracle:
    def test_matches_per_client_mean_reference(self):
        rejections = 0
        for seed in range(6):
            cfg = _desk_config(n_clients=20, adv_ratio=0.2, seed=seed,
                               attack={"kind": "fang"})
            spec = cfg.parse_attack()
            rng = substream(seed, "fang-oracle-test")
            center = rng.standard_normal(60)
            honest = list(center + rng.standard_normal((16, 60)))
            want_log, got_log = [], []
            want = fang_attack(honest, spec, _logged(
                reference_dp2guard_oracle(cfg, honest, 1), want_log))
            got = fang_attack(honest, spec, _logged(
                harness._fang_oracle(cfg, spec, honest, 1), got_log))
            assert np.array_equal(got, want)
            assert got_log == want_log
            rejections += want_log.count(False)
        assert rejections > 0  # the search did more than accept lambda0

    def test_run_matches_reference_oracle(self, tmp_path, monkeypatch):
        cfg = _desk_config(rounds=2, adv_ratio=0.2, attack={"kind": "fang"})
        run_experiment(cfg, out_dir=tmp_path / "fast")
        monkeypatch.setattr(
            harness, "_fang_oracle",
            lambda cfg, spec, honest, round_no, honest_dists=None:
                reference_dp2guard_oracle(cfg, honest, round_no))
        run_experiment(cfg, out_dir=tmp_path / "reference")
        for name in ("metrics.csv", "detection.csv", "attack.csv", "ledger.jsonl"):
            assert (tmp_path / "fast" / name).read_bytes() == \
                   (tmp_path / "reference" / name).read_bytes()

    def test_dnc_oracle_matches_single_pass_reference(self):
        rejections = 0
        for seed in range(6):
            cfg = _desk_config(n_clients=20, adv_ratio=0.2, seed=seed, aggregator="dnc",
                               aggregator_params={"sub_dim": 30},
                               attack={"kind": "fang"})
            spec = cfg.parse_attack()
            rng = substream(seed, "dnc-oracle-test")
            honest = list(rng.standard_normal(60) + rng.standard_normal((16, 60)))
            want_log, got_log = [], []
            want = fang_attack(honest, spec,
                               _logged(reference_dnc_oracle(cfg, honest, 1), want_log))
            got = fang_attack(honest, spec,
                              _logged(harness._fang_oracle(cfg, spec, honest, 1), got_log))
            assert np.array_equal(got, want)
            assert got_log == want_log
            rejections += want_log.count(False)
        assert rejections > 0

    def test_dnc_oracle_uses_configured_iterations(self, monkeypatch):
        seen = []
        real = baselines.dnc_survivors

        def recording(stack, dcfg, rng):
            seen.append(dcfg.n_iters)
            return real(stack, dcfg, rng)

        monkeypatch.setattr(baselines, "dnc_survivors", recording)
        cfg = _desk_config(n_clients=20, adv_ratio=0.2, aggregator="dnc",
                           aggregator_params={"n_iters": 3}, attack={"kind": "fang"})
        honest = list(substream(7, "dnc-iters").standard_normal((16, 12)))
        harness._fang_oracle(cfg, cfg.parse_attack(), honest, 1)(np.zeros(12))
        assert seen == [3]

    def test_multikrum_oracle_matches_selection(self):
        # Fang's halving sweep lam = 2^-k crosses the accept/reject
        # boundary.  The oracle (copies last) and the round (copies first)
        # both score from the honest rows' distances and one gemv; each must
        # keep what the plain-stack selection keeps on the same population.
        cfg = _desk_config(n_clients=20, adv_ratio=0.2, aggregator="multikrum",
                           attack={"kind": "fang"})
        spec = cfg.parse_attack()
        n_mal = cfg.n_malicious
        rng = substream(8, "mk-oracle")
        # Honest spread 0.05 a coordinate: the copies sit lam a coordinate
        # off the honest mean, so the sweep's large lam are rejected.
        honest = list(0.05 * rng.standard_normal((16, 30)) + rng.standard_normal(30))
        f, m = harness._multikrum_params(cfg)
        dists = attacks.row_distances(np.asarray(honest))
        oracle = harness._fang_oracle(cfg, spec, honest, 1, dists)
        decisions = set()
        for k in range(21):
            candidate = fang_candidate(np.mean(honest, axis=0), 2.0**-k)
            pop = np.asarray(honest + [candidate] * n_mal)
            kept = multi_krum_select(pop, f, m)
            decisions.add(oracle(candidate))
            assert oracle(candidate) == any(i >= len(honest) for i in kept)
            stack = np.asarray([candidate] * n_mal + honest)
            g_agg, benign = harness._baseline_round(
                cfg, baselines.Population(np.asarray(honest), candidate, n_mal), 1, None, None,
                None, dists)
            want = multi_krum_select(stack, f, m)
            assert benign == frozenset(want.tolist())
            assert np.array_equal(g_agg, baselines.kept_mean(stack, want))
        assert decisions == {True, False}

    @pytest.mark.parametrize("aggregator", ["dp2guard", "multikrum", "dnc"])
    def test_defense_oracle_runs_are_bit_identical(self, tmp_path, aggregator):
        cfg = _desk_config(aggregator=aggregator, rounds=2, adv_ratio=0.2,
                           attack={"kind": "fang"})
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "attack.csv" in names
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()


def parent_fltrust(stack, root):
    """FLTrust as one expression over a plain (N, d) stack, each (N, d)
    temporary its own array: the reference the rule's bits must keep."""
    root_norm = float(np.linalg.norm(root))
    norms = np.linalg.norm(stack, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    scores = np.where(norms > 0, np.maximum((stack @ root) / (safe * root_norm), 0.0), 0.0)
    rescaled = stack * (root_norm / safe)[:, None]
    return (rescaled * scores[:, None]).sum(axis=0) / float(scores.sum())


class TestPopulation:
    @pytest.mark.parametrize("copies_first", [True, False], ids=["copies-first", "copies-last"])
    @pytest.mark.parametrize("n_copies", [0, 1, 5])
    def test_every_rule_reads_it_as_the_concatenated_stack(self, n_copies, copies_first):
        # The round (copies first) and the fang oracle (copies last) hand
        # each rule the honest rows and one crafted row; every reader must
        # give the bits it gives on the stack np.concatenate builds.
        n_honest, d = 11, 37
        rng = substream(83, "population", n_copies, copies_first)
        honest = rng.standard_normal((n_honest, d)) * rng.uniform(0.1, 5.0, size=(n_honest, 1))
        crafted = 3.0 * rng.standard_normal(d) if n_copies else None
        pop = baselines.Population(honest, crafted, n_copies, copies_first)
        copies = np.broadcast_to(crafted, (n_copies, d)) if n_copies else honest[:0]
        ref = np.concatenate([copies, honest] if copies_first else [honest, copies])
        n = len(ref)

        assert len(pop) == n and pop.shape == ref.shape
        assert np.asarray(pop).tobytes() == ref.tobytes()
        assert all(pop[i].tobytes() == ref[i].tobytes() for i in range(n))
        coords = rng.choice(d, size=9, replace=False)
        assert pop[:, coords].tobytes() == ref[:, coords].tobytes()
        blocks = list(pop.blocks(4))
        assert np.concatenate(blocks).tobytes() == ref.tobytes()
        # Each block is a view of the honest rows or a broadcast of the
        # crafted row: no copy is written, and no block holds both kinds.
        assert all(len(b) <= 4 and (np.shares_memory(b, honest) or b.strides[0] == 0)
                   for b in blocks)

        assert baselines.fedavg(pop).tobytes() == ref.mean(axis=0).tobytes()
        root = honest.mean(axis=0)
        assert baselines.fltrust(pop, root).tobytes() == parent_fltrust(ref, root).tobytes()
        order = rng.permutation(n)[:7]
        assert baselines.kept_mean(pop, order).tobytes() == ref[order].mean(axis=0).tobytes()

        cfg = _desk_config(aggregator="multikrum", n_clients=n,
                           aggregator_params={"f": 2, "m": 7})
        dists = attacks.row_distances(honest)
        kept = harness._multikrum_kept(cfg, pop, dists)
        want = np.argsort(shared_krum_scores(honest, crafted if n_copies else np.zeros(d),
                                             n_copies, 2, copies_first), kind="stable")[:7]
        assert np.array_equal(kept, want)
        assert np.array_equal(kept, multi_krum_select(ref, 2, 7))

        cfg = _desk_config(aggregator="dnc", n_clients=n,
                           aggregator_params={"sub_dim": 20, "n_iters": 2})
        got = harness._dnc_kept(cfg, pop, substream(83, "dnc"))
        assert np.array_equal(got, harness._dnc_kept(cfg, ref, substream(83, "dnc")))

    def test_rows_and_columns_outside_it_are_refused(self):
        pop = baselines.Population(np.zeros((3, 4)), np.ones(4), 2)
        for i in (-1, 5):
            with pytest.raises(IndexError):
                pop[i]
        with pytest.raises(IndexError):
            pop[1:, [0]]
        with pytest.raises(ValueError):
            np.array(pop, copy=False)


class TestPopulationGram:
    def test_matches_float_centred_population(self):
        # The closed form against the Gram matrix of the float-centred
        # population at the adaptive-fang shape: N = 50 with 10 copies,
        # d = 7,850, over Fang's lambda range and delta = 0 (lam = 0).  Each
        # entry on either side is a few length-d dot products (H, v and dd;
        # rows_i . rows_j), each within d eps |x| |y| of exact, plus the
        # rounding of the float means (about N eps an entry) and of a few
        # scalar operations.  Every factor is bounded entrywise by
        # |pop_i| + |mu_h| + |c|, of norm w_i, so the two differ by at
        # most 6 (N + d) eps w_i w_j.
        n_honest, n_mal, d = 40, 10, 7850
        n = n_honest + n_mal
        rng = substream(41, "population-gram")
        honest = rng.standard_normal(d) + rng.standard_normal((n_honest, d))
        mean = honest.mean(axis=0)
        gram_of = harness._population_gram(honest, n_mal)
        for lam in (0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0):
            candidate = fang_candidate(mean, lam)
            pop = np.concatenate([honest, np.broadcast_to(candidate, (n_mal, d))])
            rows = pop - pop.mean(axis=0)
            got = gram_of(candidate)
            assert np.array_equal(got, got.T)
            w = np.linalg.norm(np.abs(pop) + np.abs(mean) + np.abs(candidate), axis=1)
            bound = 6 * (n + d) * np.finfo(np.float64).eps * np.outer(w, w)
            assert np.all(np.abs(got - rows @ rows.T) <= bound)


class TestBaselineAggregators:
    @pytest.mark.parametrize("aggregator", ["fedavg", "multikrum", "dnc", "fltrust"])
    def test_baselines_learn_cleanly(self, aggregator):
        cfg = _desk_config(aggregator=aggregator, rounds=15)
        res = run_experiment(cfg)
        assert res.final_accuracy >= 0.9
        assert res.ledger.head is None  # ledger is the masked pipeline's

    @pytest.mark.parametrize("n_clients, adv_ratio, params, removed", [
        (10, 0.2, {}, 3),
        (50, 0.2, {}, 15),
        (4, 0.0, {"assumed_malicious": 3}, 3),  # ceil(4.5) capped at n - 1
    ])
    def test_dnc_default_removes_one_and_a_half_per_assumed_attacker(
            self, n_clients, adv_ratio, params, removed):
        attack = {"kind": "minmax"} if adv_ratio else None
        cfg = _desk_config(aggregator="dnc", n_clients=n_clients, adv_ratio=adv_ratio,
                           attack=attack, aggregator_params=params)
        stack = substream(9, "dnc-count", n_clients).standard_normal((n_clients, 40))
        survivors = dnc_survivors(stack, harness._dnc_params(cfg), substream(9, "dnc"))
        assert len(survivors) == n_clients - removed


@pytest.mark.parametrize("aggregator", ["fedavg", "multikrum", "dnc"])
def test_loop_aggregate_equals_baseline_function(aggregator):
    # The update the loop applies is the plaintext rule on the round's rows,
    # bit for bit: Multi-Krum sums its picks in ranking order, DnC in id order.
    cfg = _desk_config(aggregator=aggregator, rounds=2, adv_ratio=0.2,
                       attack={"kind": "minmax", "direction": "-mean"})
    res = run_experiment(cfg, record_history=True)
    params = res.model.init_params(substream(cfg.seed, "model-init"))
    for t in range(cfg.rounds):
        rows = res.gradient_history[t]
        if aggregator == "fedavg":
            want = baselines.fedavg(rows)
        elif aggregator == "multikrum":
            want = multi_krum(rows, *harness._multikrum_params(cfg))
        else:
            want = dnc(rows, harness._dnc_params(cfg), substream(cfg.seed, "dnc", t))
        params = models.sgd_step(params, want, cfg.eta)
        assert np.array_equal(params, res.params_history[t])


def test_dp2guard_round_channel_audit(monkeypatch):
    # Each round: 2N share uploads, one S1 -> S2 batch, one ledger -> S1
    # record, and nothing addressed to the clients.
    cfg = _desk_config(rounds=3, adv_ratio=0.2, attack={"kind": "fang"})
    channel = RecordingChannel()
    monkeypatch.setattr(harness, "Channel", lambda: channel)
    run_experiment(cfg)
    log = channel.log
    one_round = [(f"client{cid}", server, "ShareUpload")
                 for cid in range(cfg.n_clients) for server in ("S1", "S2")]
    one_round += [("S1", "S2", "CenteredBatch"), ("ledger", "S1", "AggDigestAndWeights")]
    assert log == one_round * cfg.rounds


@pytest.mark.parametrize("overrides", [
    dict(local_mode="batch", attack={"kind": "label_flip", "offset": 1}),
    dict(attack={"kind": "fang"}, exclusion="hard"),
], ids=["label-flip", "fang-hard"])
def test_s2_recovers_every_client_gradient(monkeypatch, overrides):
    # What S2 learns, pinned.  After centring S2 holds c_i = g_i - mean(g)
    # for every client (decoded from the ring), and it sets the weights
    # tau.  Every client receives the next model, so
    # G = (theta_t - theta_t+1) / eta = sum_j tau_j g_j, and S2 recovers
    # each raw gradient as g_i = c_i + G - sum_j tau_j c_j (the weights sum
    # to 1), to within half the 2**-scale_bits quantisation step of its
    # encoding.  The masks hide only the shares, not these gradients.
    centred = []

    def capture(*args):
        out = reconstruct(*args)
        centred.append(out.copy())
        return out
    reconstruct = servers.reconstruct_centered
    monkeypatch.setattr(servers, "reconstruct_centered", capture)
    cfg = _desk_config(rounds=3, adv_ratio=0.2, **overrides)
    res = run_experiment(cfg, record_history=True)
    theta = res.model.init_params(substream(cfg.seed, "model-init"))
    half_step = 2.0 ** -(cfg.scale_bits + 1)
    for t in range(cfg.rounds):
        global_grad = (theta - res.params_history[t]) / cfg.eta
        tau = np.array([res.weight_history[t][cid] for cid in range(cfg.n_clients)])
        recovered = centred[t] + global_grad - tau @ centred[t]
        error = np.abs(recovered - res.gradient_history[t]).max()
        assert error <= half_step + 1e-12
        assert np.abs(res.gradient_history[t]).max() > 1e4 * half_step
        theta = res.params_history[t]


class TestMetricsOutput:
    def test_single_round_csv_two_lines(self, tmp_path):
        res = run_experiment(_desk_config(rounds=1))
        path = tmp_path / "m.csv"
        emit_metrics(res.metrics, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_csv_reparse_identical_values(self, tmp_path):
        res = run_experiment(_desk_config(rounds=4, adv_ratio=0.2,
                                          attack={"kind": "minmax",
                                                  "direction": "-mean"}))
        path = tmp_path / "m.csv"
        emit_metrics(res.metrics, path)
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(res.metrics)
        for row, m in zip(rows, res.metrics):
            assert int(row["round"]) == m.round
            assert float(row["accuracy"]) == m.accuracy
            assert float(row["precision"]) == m.precision
            assert float(row["mean_trust_malicious"]) == m.mean_trust_malicious

    def test_svg_well_formed(self, tmp_path):
        res = run_experiment(_desk_config(rounds=3))
        path = tmp_path / "plot.svg"
        plot_metrics(res.metrics, path)
        text = path.read_text()
        assert text.startswith("<svg")
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")

    def test_run_writes_all_artifacts(self, tmp_path):
        cfg = _desk_config(rounds=2)
        run_experiment(cfg, out_dir=tmp_path / "out")
        for name in ("metrics.csv", "ledger.jsonl", "plot.svg",
                     "resolved-config.json"):
            assert (tmp_path / "out" / name).exists()
        resolved = json.loads((tmp_path / "out/resolved-config.json").read_text())
        assert ExperimentConfig.from_dict(resolved) == cfg

    def test_detection_dump_per_client_rows(self, tmp_path):
        cfg = _desk_config(rounds=3, adv_ratio=0.2,
                           attack={"kind": "minmax", "direction": "-mean"})
        res = run_experiment(cfg, out_dir=tmp_path / "out", record_history=True)
        lines = (tmp_path / "out/detection.csv").read_text().strip().splitlines()
        assert lines[0] == "round,client_id,s,c,cluster,benign"
        assert len(lines) == 1 + cfg.rounds * cfg.n_clients
        round0 = [ln.split(",") for ln in lines[1:1 + cfg.n_clients]]
        for cells in round0:
            cid, benign = int(cells[1]), int(cells[5])
            assert benign == (cid in res.benign_history[0])

    def test_detection_dump_cells_are_plain_numbers(self, tmp_path, monkeypatch):
        # s and c are written as float reprs ("0.25"), not numpy scalar
        # reprs ("np.float64(0.25)"), and read back to the detected features.
        import dp2guard.servers as servers_mod

        found = []

        def spy(*args, **kwargs):
            found.append(detect(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(servers_mod, "detect", spy)
        cfg = _desk_config(rounds=2, adv_ratio=0.2, attack={"kind": "fang"})
        run_experiment(cfg, out_dir=tmp_path / "out")
        lines = (tmp_path / "out/detection.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + cfg.rounds * cfg.n_clients
        for line in lines[1:]:
            round_no, cid, s, c = line.split(",")[:4]
            features = found[int(round_no)].features[int(cid)]
            assert (float(s), float(c)) == (features[0], features[1])

    def test_attack_log_records_crafted_norms(self, tmp_path):
        cfg = _desk_config(rounds=3, adv_ratio=0.2,
                           attack={"kind": "minmax", "direction": "-mean"})
        res = run_experiment(cfg, out_dir=tmp_path / "out")
        lines = (tmp_path / "out/attack.csv").read_text().strip().splitlines()
        assert lines[0] == "round,crafted_norm"
        assert len(lines) == 1 + cfg.rounds
        assert float(lines[1].split(",")[1]) == res.metrics[0].crafted_norm
        clean = run_experiment(_desk_config(rounds=2), out_dir=tmp_path / "clean")
        assert not (tmp_path / "clean/attack.csv").exists()
        assert all(m.crafted_norm is None for m in clean.metrics)


class TestIdxDatasetPath:
    def _write_idx_dir(self, root, n_train=400, n_test=120):
        import gzip
        import struct

        root.mkdir(parents=True)
        rng = np.random.default_rng(9)

        def write_pair(img_name, lab_name, n):
            pixels = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
            labels = rng.integers(0, 10, size=n, dtype=np.uint8)
            img = struct.pack(">IIII", 0x803, n, 28, 28) + pixels.tobytes()
            lab = struct.pack(">II", 0x801, n) + labels.tobytes()
            (root / img_name).write_bytes(gzip.compress(img))
            (root / lab_name).write_bytes(gzip.compress(lab))

        write_pair("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz", n_train)
        write_pair("t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz", n_test)

    def test_mnist_config_runs_end_to_end(self, tmp_path):
        # Random pixels learn nothing, but the whole IDX-backed path
        # (resolution, subsetting, partitioning, masked rounds) must work.
        self._write_idx_dir(tmp_path / "idx")
        cfg = ExperimentConfig(dataset="mnist", data_dir=str(tmp_path / "idx"),
                               aggregator="dp2guard", n_clients=8, rounds=2,
                               seed=1, train_subset=200, test_subset=100)
        res = run_experiment(cfg)
        assert res.model.dim == 7850
        assert len(res.metrics) == 2
        train, test = load_datasets(cfg)
        assert len(train) == 200 and len(test) == 100

    def test_missing_idx_files_reported(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DP2GUARD_DATA_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        cfg = ExperimentConfig(dataset="mnist", n_clients=4, rounds=1)
        with pytest.raises(FileNotFoundError, match="DP2GUARD_DATA_DIR"):
            run_experiment(cfg)


class TestConfigSurface:
    def test_mlp_pipeline_runs_and_learns(self):
        cfg = _desk_config(model="mlp", hidden=16, eta=0.1, rounds=20)
        res = run_experiment(cfg)
        assert res.final_accuracy >= 0.9

    def test_dirichlet_partition_through_harness(self):
        cfg = _desk_config(partition="dirichlet", alpha=0.5, rounds=5)
        res = run_experiment(cfg)
        assert len(res.metrics) == 5
        assert res.final_accuracy > 0.5

    def test_hard_exclusion_zeroes_round_weights(self):
        cfg = _desk_config(exclusion="hard", rounds=4, adv_ratio=0.2,
                           attack={"kind": "minmax", "direction": "-mean"})
        res = run_experiment(cfg, record_history=True)
        for t, tau in enumerate(res.weight_history):
            flagged = set(range(cfg.n_clients)) - res.benign_history[t]
            for cid in flagged:
                assert tau[cid] == 0.0
            assert abs(sum(tau.values()) - 1.0) <= 1e-9

    def test_soft_exclusion_keeps_decayed_weights(self):
        cfg = _desk_config(exclusion="soft", rounds=4, adv_ratio=0.2,
                           attack={"kind": "minmax", "direction": "-mean"})
        res = run_experiment(cfg, record_history=True)
        tau = res.weight_history[0]
        flagged = set(range(cfg.n_clients)) - res.benign_history[0]
        # first-round exclusion halves trust (beta=0.5) but the weight is
        # still positive under soft exclusion
        for cid in flagged:
            assert tau[cid] > 0.0

    def test_secure_round_tracks_weighted_plaintext_across_seeds(self):
        for seed in range(5):
            cfg = _desk_config(seed=seed, rounds=3, adv_ratio=0.2,
                               attack={"kind": "minsum", "direction": "-mean"})
            res = run_experiment(cfg, record_history=True)
            params = res.model.init_params(substream(cfg.seed, "model-init"))
            for t in range(cfg.rounds):
                agg = sum(res.weight_history[t][cid] * res.gradient_history[t][cid]
                          for cid in range(cfg.n_clients))
                params = models.sgd_step(params, agg, cfg.eta)
                assert np.max(np.abs(params - res.params_history[t])) <= 1e-3


class TestLedgerReplay:
    def test_round_payload_carries_publishable_record(self, tmp_path):
        import hashlib

        from dp2guard.ledger import payload_agg_blob, payload_trust_weights
        from dp2guard.numeric import ring_view

        cfg = _desk_config(rounds=3)
        res = run_experiment(cfg, out_dir=tmp_path / "out", record_history=True)
        blocks = list(read_chain(tmp_path / "out" / "ledger.jsonl"))
        assert [blk.round for blk in blocks] == list(range(cfg.rounds))
        assert res.ledger.read_round(cfg.rounds - 1) == blocks[-1].payload
        for t, block in enumerate(blocks):
            payload = block.payload
            blob = payload_agg_blob(payload)
            assert hashlib.sha256(blob).hexdigest() == payload["agg_share_digest"]
            words, scale_bits = ring_view(blob)
            assert scale_bits == cfg.scale_bits + 32
            assert len(words) == res.model.dim
            assert payload_trust_weights(payload) == res.weight_history[t]

    @pytest.mark.parametrize("attack,exclusion", [("fang", "hard"), ("minmax", "soft")])
    def test_weights_replay_from_the_run_outputs(self, tmp_path, attack, exclusion):
        # S2's trust recurrence, pinned from outside: every round's weights
        # in the ledger follow bit for bit from detection.csv and
        # resolved-config.json alone.  Trust starts at ones, each benign
        # row's direct trust is measured to the benign rows' mean feature,
        # and hard exclusion zeroes the rows detection rejects.
        out = tmp_path / "out"
        run_experiment(_desk_config(rounds=6, adv_ratio=0.2, exclusion=exclusion,
                                    attack={"kind": attack}), out_dir=out)
        cfg = ExperimentConfig.from_json((out / "resolved-config.json").read_text())
        with open(out / "detection.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        blocks = list(read_chain(out / "ledger.jsonl"))
        assert [blk.round for blk in blocks] == list(range(cfg.rounds))
        trust_vec = np.ones(cfg.n_clients)
        flagged = 0
        for block in blocks:
            mine = [r for r in rows if int(r["round"]) == block.round]
            assert [int(r["client_id"]) for r in mine] == list(range(cfg.n_clients))
            features = np.array([[float(r["s"]), float(r["c"])] for r in mine])
            benign = np.array([r["benign"] == "1" for r in mine])
            flagged += int((~benign).sum())
            direct = np.where(benign, trust.direct_trust(features, features[benign].mean(axis=0)),
                              0.0)
            trust_vec = trust.update_trust(trust_vec, direct, cfg.beta)
            tau = trust.weights(trust_vec, ~benign if cfg.exclusion == "hard" else None)
            ledger_tau = payload_trust_weights(block.payload)
            assert list(ledger_tau) == list(range(cfg.n_clients))
            assert [w.hex() for w in ledger_tau.values()] == [w.hex() for w in tau.tolist()]
        assert flagged  # detection rejected rows, so exclusion shaped the weights

    def test_refuses_output_dir_holding_a_ledger(self, tmp_path):
        # A second run into the same directory would start a second chain
        # behind the first run's blocks.  It must stop before round 0 and
        # leave the files be.
        run_experiment(_desk_config(rounds=2, seed=1), out_dir=tmp_path / "out")
        before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        with pytest.raises(OutputExists):
            run_experiment(_desk_config(rounds=2, seed=2), out_dir=tmp_path / "out")
        assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before

    def test_refuses_output_dir_holding_another_runs_artifacts(self, tmp_path):
        # A Multi-Krum run writes no ledger; a FedAvg run after it must
        # not leave its attack.csv beside the FedAvg metrics.
        out = tmp_path / "out"
        run_experiment(_desk_config(aggregator="multikrum", rounds=2, adv_ratio=0.2,
                                    attack={"kind": "minmax"}), out_dir=out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "attack.csv" in before and "ledger.jsonl" not in before
        with pytest.raises(OutputExists):
            run_experiment(_desk_config(aggregator="fedavg", rounds=2), out_dir=out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("name", harness.ARTIFACTS)
    def test_any_artifact_name_refuses_the_directory(self, tmp_path, name):
        (tmp_path / name).write_text("")
        with pytest.raises(OutputExists, match=name):
            run_experiment(_desk_config(rounds=1), out_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_same_seed_reproduces_chain_hashes(self, tmp_path):
        cfg = _desk_config(rounds=4)
        a = run_experiment(cfg, out_dir=tmp_path / "a")
        b = run_experiment(cfg, out_dir=tmp_path / "b")
        hashes = [[blk.hash for blk in read_chain(tmp_path / run / "ledger.jsonl")]
                  for run in ("a", "b")]
        assert hashes[0] == hashes[1] and len(hashes[0]) == cfg.rounds
        assert a.ledger.head.hash == b.ledger.head.hash == hashes[0][-1]
        assert verify_file(tmp_path / "a" / "ledger.jsonl") is None


def test_client_masking_cost_linear_in_dimension(monkeypatch):
    # Masking touches each of the d entries a constant number of times:
    # summed entry-touches at d=10^4 are exactly 10x those at d=10^3.
    counts = {"touched": 0}

    def counting(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            touched = out[0] if isinstance(out, tuple) else out
            counts["touched"] += len(touched)
            return out
        return wrapper

    for name in ("encode_fixed", "uniform_words", "clip_for_encoding"):
        monkeypatch.setattr(client_mod, name, counting(getattr(client_mod, name)))

    totals = {}
    for d in (1000, 10_000):
        counts["touched"] = 0
        g = substream(1, "cost", d).uniform(-1, 1, size=d)
        split_and_mask(g, 16, substream(2, "cost", d))
        totals[d] = counts["touched"]
    assert totals[10_000] == 10 * totals[1000]


def test_block_rows_follow_the_word_budget():
    # K = max(1, min(N, BLOCK_WORDS // d)): secure-long's d = 210 puts all
    # 20 clients in one block, while adaptive-fang's d = 7,850 and the
    # MLP workloads' d = 50,890 keep one client per call.
    assert harness.BLOCK_WORDS == 8192
    assert harness.block_rows(210, 20) == 20
    assert harness.block_rows(210, 50) == 39
    assert harness.block_rows(4096, 100) == 2
    assert harness.block_rows(4097, 100) == 1
    assert harness.block_rows(7850, 50) == 1
    assert harness.block_rows(50_890, 100) == 1


@pytest.mark.parametrize("aggregator", ["dp2guard", "fedavg"])
def test_diverging_client_in_mid_block_is_named(monkeypatch, aggregator):
    # Clients 3 and 5 each hold one row of features at 1e308, near the
    # float64 maximum, so their hidden pre-activations overflow and their
    # round-0 gradients are not finite (at 1e300 they stay finite).  All eight clients share one block
    # and one stacked model call (32 rows each, batch size 32), streamed
    # under dp2guard and into the (N, d) stack under FedAvg; the error
    # names the lowest diverging client, not the block's first.
    n = 8
    cfg = ExperimentConfig(aggregator=aggregator, model="mlp", hidden=16, n_clients=n,
                           rounds=2, seed=3, synth_train=32 * n, synth_test=50,
                           local_mode="batch", batch_size=32)

    def poisoned_load(cfg):
        train, test = load_datasets(cfg)
        owners = partition(train, n, cfg.partition, cfg.alpha,
                           rng=substream(cfg.seed, "partition"))
        features = train.features.copy()
        for cid in (3, 5):
            features[owners[cid][0]] = 1e308
        return Dataset(features, train.labels, train.n_classes), test

    monkeypatch.setattr(harness, "load_datasets", poisoned_load)
    d = models.Model("mlp", cfg.synth_features, cfg.synth_classes, hidden=16).dim
    assert harness.block_rows(d, n) == n
    with pytest.raises(NonFiniteGradient, match=r"^client 3's gradient in round 0 "):
        run_experiment(cfg)


def test_secure_round_wire_bytes_match_analytic_sizes():
    # One dp2guard round puts on each channel edge exactly: 2N uploads of
    # header + (id, share index) + ring header + 8d; one CenteredBatch of
    # header + count + N records of (id, blob length) + ring header + 8d;
    # one ledger record of header + count + N (id, weight) pairs + ring
    # header + 8d.
    n, d, header = 6, 45, 17
    cfg = _desk_config(n_clients=n, rounds=1)
    edges = {"client_to_s": 0, "s1_to_s2": 0, "ledger_to_s1": 0}

    class Recording(Channel):
        def send(self, src, dst, msg):
            edge = ("client_to_s" if src.startswith("client")
                    else "s1_to_s2" if src == "S1" else "ledger_to_s1")
            edges[edge] += len(encode_message(msg))
            return super().send(src, dst, msg)

    stack = substream(4, "wire").standard_normal((n, d))
    harness._dp2guard_round(cfg, baselines.Population(stack).blocks(harness.block_rows(d, n)), 0,
                            Ledger(), Recording(), np.zeros(d),
                            ServerS1(n, d, cfg.scale_bits),
                            ServerS2(n, d, cfg.scale_bits, cfg.beta, cfg.exclusion))
    assert edges == {
        "client_to_s": 2 * n * (header + 10 + 8 * d),
        "s1_to_s2": header + 4 + n * (17 + 8 * d),
        "ledger_to_s1": header + 4 + 12 * n + 5 + 8 * d,
    }


def test_secure_round_allocates_no_share_sized_temporaries():
    # On the run's servers, a warm round refills both share matrices in
    # place, so its one (N, d) allocation is S1's CenteredBatch payload, a
    # fresh message that the channel hands to S2 without a copy and into
    # which S2 decodes the centred gradients; uploads, centring,
    # reconstruction and aggregation take O(d + N^2) besides.  Each
    # whole-matrix temporary adds 1 to this ratio: servers built for each
    # round measured 4.10 x N*d*8 bytes, the run's servers with S2's own
    # float matrix 1.09, and decoding into the batch 1.13 (detection's
    # N x N temporaries now meet the live batch).
    n, d = 64, 4000
    cfg = _desk_config(n_clients=n, rounds=2)
    stack = substream(1, "alloc").standard_normal((n, d))
    params = np.zeros(d)
    ledger, channel = Ledger(), Channel()
    servers = (ServerS1(n, d, cfg.scale_bits),
               ServerS2(n, d, cfg.scale_bits, cfg.beta, cfg.exclusion))
    k = harness.block_rows(d, n)
    harness._dp2guard_round(cfg, baselines.Population(stack).blocks(k), 0, ledger, channel, params,
                            *servers)  # warm
    tracemalloc.start()
    try:
        harness._dp2guard_round(cfg, baselines.Population(stack).blocks(k), 1, ledger, channel,
                                params, *servers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * n * d * 8


def test_a_streamed_dp2guard_run_holds_three_share_sized_arrays():
    # Without a full-knowledge attacker or a plaintext rule, no (N, d)
    # gradient stack exists: each client trains into one reused d-vector
    # just before it uploads.  A run's peak is then the two share matrices
    # and the CenteredBatch payload, into which S2 decodes the centred
    # gradients, plus O(d) vectors, detection's N x N matrices and the tiny
    # training set.  Measured 3.28 x N*d*8 bytes (N = 100, MLP d = 3,914,
    # one training row per client); with S2's own float matrix it was
    # 4.18 x, and 5.16 x with the stack besides.
    n = 100
    cfg = ExperimentConfig(aggregator="dp2guard", model="mlp", hidden=64, synth_features=50,
                           synth_classes=10, n_clients=n, rounds=2, synth_train=n,
                           synth_test=20, seed=3)
    run_experiment(cfg)  # warm: first-use imports are not the run's arrays
    tracemalloc.start()
    try:
        result = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.4 * n * result.model.dim * 8


def test_a_dp2guard_run_retains_no_per_round_history():
    # A run keeps what it reads back: the ledger its head block (the file
    # is the chain) and the channel nothing, so with its RunResult alive a
    # run retains only its per-round metrics.  Keeping every block and a
    # channel log measured about 3,600 bytes a round (4 clients, d = 84);
    # the head alone, about 290.
    def retained(rounds: int) -> int:
        cfg = ExperimentConfig(aggregator="dp2guard", n_clients=4, rounds=rounds,
                               synth_train=200, synth_test=50, seed=3)
        gc.collect()
        tracemalloc.start()
        try:
            result = run_experiment(cfg)
            gc.collect()
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.metrics) == rounds
        return current

    retained(1)  # warm: first-use imports and caches are not the run's
    rounds = 8
    per_round = (retained(5 * rounds) - retained(rounds)) / (4 * rounds)
    assert per_round < 1024


def test_a_dp2guard_run_writes_detection_lines_as_rounds_end(tmp_path):
    # detection.csv takes each round's N lines when the round is published,
    # so a run's peak grows by its per-round metrics only.  Keeping the
    # lines until the run ended measured 4.9 kB a round (N = 20), writing
    # them 1.1 kB.
    def peak(rounds: int) -> int:
        cfg = ExperimentConfig(aggregator="dp2guard", n_clients=20, rounds=rounds,
                               synth_train=400, synth_test=50, local_mode="batch", seed=3)
        tracemalloc.start()
        try:
            run_experiment(cfg, out_dir=tmp_path / str(rounds))
            _, high = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return high

    peak(1)  # warm: first-use imports and caches are not the run's
    assert (peak(50) - peak(10)) / 40 < 2048


def test_multikrum_minmax_round_into_carried_stack_allocates_no_matrix():
    # The honest clients' rows are the only whole-matrix array of a
    # Multi-Krum round under min-max, and the run carries them from round
    # to round: squared row norms (min-max's diameter and Krum's scores)
    # and the kept-row mean go row by row, and no row holds a crafted copy.
    # With an (N, d) temporary for each and a fresh stack, the round
    # measured 2.00 x N*d*8 bytes; with a fresh stack only, 1.10; into the
    # carried stack, 0.10 (N = 40, MLP d = 6,762).
    n = 40
    cfg = ExperimentConfig(aggregator="multikrum", model="mlp", hidden=32,
                           synth_features=200, synth_classes=10, n_clients=n,
                           adv_ratio=0.2, attack={"kind": "minmax", "direction": "-mean"},
                           rounds=2, synth_train=50 * n, synth_test=100, seed=3)
    train, _ = load_datasets(cfg)
    model = models.Model(cfg.model, train.n_features, train.n_classes, hidden=cfg.hidden)
    assignments = partition(train, n, cfg.partition, cfg.alpha,
                            rng=substream(cfg.seed, "partition"))
    spec = cfg.parse_attack()
    datasets = [train.subset(idx) for idx in assignments]
    params = model.init_params(substream(cfg.seed, "model-init"))
    rows = np.empty((n - cfg.n_malicious, model.dim))

    def one_round(round_no):
        gradients, _, dists = harness._round_gradients(cfg, datasets, model, params,
                                                       round_no, spec, rows)
        return harness._baseline_round(cfg, gradients, round_no, model, params, None, dists)

    one_round(0)  # warm
    tracemalloc.start()
    try:
        one_round(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * model.dim * 8


@pytest.mark.parametrize("aggregator, stacks", [("multikrum", 0), ("fltrust", 2)])
def test_a_full_knowledge_run_holds_the_crafted_gradient_once(aggregator, stacks):
    # Every min-max attacker submits the one crafted gradient, and a run
    # holds it once: its gradient rows are the N - n_malicious honest
    # clients'.  Multi-Krum reads the population from them and the crafted
    # row; FLTrust stacks the N rows once and rescales them in one more
    # (N, d) array.  Measured at N = 40 with 8 attackers, d = 10,020, in
    # rows of d float64 words: Multi-Krum 43.1 and FLTrust 122.4, against
    # 50.1 and 128.4 while the rows held every copy (and FLTrust built a
    # second (N, d) temporary).  The slack is the data, model and attack
    # vectors, about 11 rows.
    n = 40
    cfg = ExperimentConfig(aggregator=aggregator, model="logreg", synth_features=500,
                           synth_classes=20, n_clients=n, adv_ratio=0.2,
                           attack={"kind": "minmax", "direction": "-mean"}, rounds=2,
                           synth_train=n, synth_test=10, fltrust_root_size=10, seed=3)
    run_experiment(cfg)  # warm: first-use imports are not the run's arrays
    tracemalloc.start()
    try:
        result = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (n - cfg.n_malicious + stacks * n + 14) * result.model.dim * 8


def test_dp2guard_oracle_call_builds_no_population():
    # A warm dp2guard oracle call at the adaptive-fang shape (N = 50,
    # d = 7,850) allocates a few d-vectors and N x N matrices: measured
    # 124 kB, where concatenating and centring the (N, d) population took
    # 6.4 MB (2 N d 8 bytes and more).
    n, d = 50, 7850
    cfg = ExperimentConfig(n_clients=n, adv_ratio=0.2, attack={"kind": "fang"})
    honest = substream(42, "oracle-alloc").standard_normal((n - cfg.n_malicious, d))
    oracle = harness._fang_oracle(cfg, cfg.parse_attack(), honest, 1)
    candidate = fang_candidate(honest.mean(axis=0), 1.0)
    oracle(candidate)  # warm
    tracemalloc.start()
    try:
        oracle(candidate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * d * 8 + 8 * n * n * 8
