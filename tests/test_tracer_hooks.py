"""The benchmark's tracer patches dp2guard names by string; a rename in the
package must fail here, not only in a traced benchmark run."""
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from dp2guard import attacks, baselines, client, defense, harness, ledger, models, numeric, servers
from dp2guard.harness import ExperimentConfig, run_experiment

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = (attacks, baselines, client, defense, harness, ledger, models, servers)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every dp2guard module and class the tracer could patch, with a copy
    of its own attributes."""
    owners = list(MODULES) + [value for module in MODULES for value in vars(module).values()
                              if isinstance(value, type) and value.__module__ == module.__name__]
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_tracer_spans_a_fang_run_and_restores_every_name():
    before = _namespaces()
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._patches]
        cfg = ExperimentConfig(n_clients=6, rounds=2, adv_ratio=0.2, seed=3,
                               attack={"kind": "fang"}, synth_train=300, synth_test=100)
        run_experiment(cfg)
    finally:
        tracer.uninstall()
    assert {(servers, "update_trust"), (servers.ServerS2, "publish"),
            (harness, "RoundMetrics")} <= set(patched)
    names = {span[1] for span in tracer.spans}
    assert {"servers.publish", "trust.update", "defense.detect.server"} <= names
    # The names patched in harness's namespace, which a binding elsewhere
    # would leave reading 0.
    assert {"data.load", "data.partition", "numeric.substream",
            "servers.encode_share_upload"} <= names
    assert sum(span[1] == "harness.round" for span in tracer.spans) == cfg.rounds
    for owner, attr in patched:
        assert owner.__dict__.get(attr) is before[id(owner)].get(attr), f"{owner}.{attr}"


@pytest.mark.parametrize("kind", ["minmax", "minsum"])
def test_tracer_spans_each_scale_search_once_a_round(kind):
    # The tracer wraps `minmax_attack` and `minsum_attack`, the names the
    # harness calls; a call past them to the shared search would leave
    # attacks.craft reading 0.
    cfg = ExperimentConfig(n_clients=10, rounds=3, adv_ratio=0.2, seed=3,
                           aggregator="multikrum", attack={"kind": kind},
                           synth_train=300, synth_test=100)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        run_experiment(cfg)
    finally:
        tracer.uninstall()
    crafted = Counter(r for _, name, _, _, _, r in tracer.spans if name == "attacks.craft")
    assert crafted == {r: 1 for r in range(cfg.rounds)}


@pytest.mark.parametrize("n_clients", [5, 10])
def test_tracer_spans_the_upload_path_of_a_batch_label_flip_run(n_clients):
    # Per round, every block of clients trains and masks in one call each
    # and every client sends two uploads, and the per-client "client" and
    # "mask" streams are re-keyed, not built by `substream`: its one call a
    # round (the "cluster" stream) does not grow with N.
    _check_upload_spans(ExperimentConfig(
        n_clients=n_clients, rounds=3, adv_ratio=0.2, seed=4, local_mode="batch",
        attack={"kind": "label_flip", "offset": 1}, synth_train=300, synth_test=100))


@pytest.mark.parametrize("n_clients", [5, 10])
def test_tracer_spans_the_upload_path_of_an_epoch_run_without_attack(n_clients):
    # The streamed path: each client trains just before it uploads, and
    # the tracer sees the same calls a round as on the label-flip run.
    _check_upload_spans(ExperimentConfig(n_clients=n_clients, rounds=3, seed=4,
                                         local_mode="epoch", synth_train=300, synth_test=100))


def _check_upload_spans(cfg):
    # Recording the history trains every client into its own row before
    # any upload, and the tracer still sees the same calls a round.  At
    # d = 84 one block holds every client, so training and masking are one
    # call each a round, and the uploads stay two per client.
    d = (cfg.synth_features + 1) * cfg.synth_classes
    assert d == 84 and numeric.block_rows(d, cfg.n_clients) == cfg.n_clients
    for record_history in (False, True):
        tracer = _load_spans().Tracer()
        tracer.install()
        try:
            run_experiment(cfg, record_history=record_history)
        finally:
            tracer.uninstall()
        for round_no in range(cfg.rounds):
            calls = Counter(name for _, name, _, _, _, r in tracer.spans if r == round_no)
            assert calls["client.local_gradient"] == 1
            assert calls["client.split_and_mask"] == 1
            assert calls["servers.encode_share_upload"] == 2 * cfg.n_clients
            assert calls["servers.receive_share"] == 2 * cfg.n_clients
            assert calls["numeric.substream"] == 1
