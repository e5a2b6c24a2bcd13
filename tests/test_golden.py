"""Pinned artifact digests of two dp2guard configs.

The reproducibility tests elsewhere only compare a run with its own rerun,
so a change to the ring path that shifts output bits the same way twice
would pass them.  These digests were recorded before the servers moved to
(N, d) share matrices and must not move with any refactor of the masked
pipeline.  They are specific to the floating-point stack they were recorded
on (numpy 2.4, OpenBLAS 0.3, x86-64): another BLAS may change the last bits
of training and detection, and then these digests need re-pinning from an
unchanged tree.
"""
import hashlib

import pytest

from dp2guard.harness import ExperimentConfig, run_experiment

GOLDEN = {
    "fang": (
        dict(aggregator="dp2guard", n_clients=12, rounds=3, seed=5, adv_ratio=0.25,
             attack={"kind": "fang"}),
        {
            "metrics.csv": "33f05ecfd17b337527cd3e78c93eb6a2c26659b684e8bbf91335e275edd750de",
            "detection.csv": "bfdabe54c9020133ef30ea57644e737b49351715884aeed90db4fd0ab406a704",
            "attack.csv": "87f67c0147e38d2b1f881f9ff400cf764c1ea40db96d03c4707d37066b3473de",
            "ledger.jsonl": "e3f372a8fb70d70829fa3800cbccdc6c79486e290a5712af9de13a4cf1c0afa5",
        },
    ),
    "mlp-label-flip-hard": (
        dict(aggregator="dp2guard", model="mlp", hidden=16, n_clients=10, rounds=3, seed=9,
             adv_ratio=0.2, attack={"kind": "label_flip", "offset": 1}, exclusion="hard"),
        {
            "metrics.csv": "8555fe611eacd7cd8ce3fe9d7c1ef08bcd61a6436818e8537312a66cc7d99260",
            "detection.csv": "01d9b4d08907c1d044e7058e9588bd54a9e3042722c25728df7011baa2c91bc4",
            "ledger.jsonl": "cb423ef6f34b62a1b142fc44b9f1b11d4f880c069654a083cab6f7dc39cf4c8f",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_pinned_digests(tmp_path, name):
    config, digests = GOLDEN[name]
    run_experiment(ExperimentConfig(**config), out_dir=tmp_path)
    got = {artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
           for artifact in digests}
    assert got == digests
