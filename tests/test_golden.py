"""Pinned artifact digests of four dp2guard configs.

The reproducibility tests elsewhere only compare a run with its own rerun,
so a change that shifts output bits the same way twice would pass them.
These digests were first recorded before the servers moved to (N, d) share
matrices.  They were re-pinned once, when detection moved to a single Gram
matrix: the spectral feature became lam * e_i**2 and the cosines
G_ij / sqrt(G_ii G_jj), which differ from the per-pair dot products in the
last bits.  That moved `detection.csv` (whose s and c columns also stopped
being written as numpy reprs), the trust means in `metrics.csv` and the
trust weights in `ledger.jsonl`; the cluster and benign columns, accuracy,
`attack.csv`, the final parameters and every block's `agg_share_digest`
stayed as they were.  `ledger.jsonl` alone was re-pinned a second time,
when clients began to draw one uniform word per entry instead of two: S2's
partial aggregate is a weighted sum of its share words, so every block's
`agg_share_blob` and `agg_share_digest`, and with them every block hash,
changed; the two-server sum of the shares, and so every other artifact,
did not.

The third config, "long-batch-label-flip", is shaped like the benchmark's
secure-long workload: minibatch local training (whose "client" stream draws
`rng.choice`), a Dirichlet partition and label flipping.  Its digests were
recorded before the round loop began to re-key one generator per loop
instead of building a fresh one per client, and before shares were written
straight into their upload payloads; neither change may move a bit.

The fourth config, "mlp-no-attack", is shaped like the benchmark's
secure-wide workload at small N and d: an MLP, IID partition, epoch-mode
local training and no attack.  Without a full-knowledge attacker or a
plaintext rule, no party reads more than one client's gradient, so the
round loop streams each client's gradient into its upload instead of
filling an (N, d) stack first.  The other configs all take a stack or
label-flip path, so this one pins the streamed path; its digests were
recorded before the round loop began to stream, which may not move a bit.

The digests are specific to the floating-point stack they were recorded on
(numpy 2.4, OpenBLAS 0.3, x86-64): another BLAS may change the last bits of
training and detection, and then they need re-pinning from an unchanged
tree.
"""
import hashlib

import pytest

from dp2guard.harness import ExperimentConfig, run_experiment

GOLDEN = {
    "fang": (
        dict(aggregator="dp2guard", n_clients=12, rounds=3, seed=5, adv_ratio=0.25,
             attack={"kind": "fang"}),
        {
            "metrics.csv": "ecf212616013326235550c5af44d870f87ac480bffbe325d0d5dff8dd50dbd4f",
            "detection.csv": "b6cf05aaddd68fdae0b612c994c9e3cc3580d6202ad3e6b87dc216cefcc01fde",
            "attack.csv": "87f67c0147e38d2b1f881f9ff400cf764c1ea40db96d03c4707d37066b3473de",
            "ledger.jsonl": "edf571bf2756e78fb012e91f5358f3af7236248329ea00542d8045f550ede51d",
        },
    ),
    "mlp-label-flip-hard": (
        dict(aggregator="dp2guard", model="mlp", hidden=16, n_clients=10, rounds=3, seed=9,
             adv_ratio=0.2, attack={"kind": "label_flip", "offset": 1}, exclusion="hard"),
        {
            "metrics.csv": "c600cba76507cc8c2b263fcf2231752b598d24424a6d343cb42d0f222de63762",
            "detection.csv": "5e4285e22e31ec1e1e8065ce9ed542e0496eff351bbde2a8534e6833980a96c6",
            "ledger.jsonl": "c8542a41e11ff9a0976a3544e52569e5d8c47c713dc3b1ed498f35b41beb9130",
        },
    ),
    "long-batch-label-flip": (
        dict(aggregator="dp2guard", model="logreg", synth_features=20, synth_classes=10,
             n_clients=10, rounds=3, seed=13, partition="dirichlet", alpha=1.0,
             local_mode="batch", adv_ratio=0.2, attack={"kind": "label_flip"}),
        {
            "metrics.csv": "9a244238fa70176a46a14b5f989425d94e50740f9c3ae3427efdbf822b76d27d",
            "detection.csv": "0c7e62599815c337667e6925b3ecbe11f71db4fadcd40f412f37415b3378ec82",
            "ledger.jsonl": "b534b8a48671f5756980faf22afd7e65cc031fff723c7f9f83c31b9c11bef6f8",
        },
    ),
    "mlp-no-attack": (
        dict(aggregator="dp2guard", model="mlp", hidden=8, synth_features=40, synth_classes=10,
             n_clients=12, rounds=3, seed=21, synth_train=600, synth_test=200),
        {
            "metrics.csv": "600310ebbf701a73b0a7cafa0beeb85e2025d7227b68d322f568d45d0516b407",
            "detection.csv": "f1105ed55a468f251a6452b3e2a0958112313df782bef5b01215a5c7e3551ac6",
            "ledger.jsonl": "24a7dc08e264a84530d222a1de98c4cb81412fcb8a30ee17eaf31b2cbe53e6b8",
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
