"""Pinned artifact digests of dp2guard configs.

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

`GRID` pins the 30-config byte-identity grid: each of the five rules under
no attack, fang with the defense oracle, fang with `accept_all`, min-max,
min-sum and label flipping with offset 1 (seed 5, N = 12, 3 rounds,
adv_ratio 0.25 when attacked).  One SHA-256 per config covers every
artifact the run wrote, by name and bytes, and the final parameters.  The
digests were recorded before S2 began to decode the centred batch in the
buffer it receives, which may not move a bit.

`WIDE` pins Multi-Krum under fang (defense oracle) and min-max at N = 40
(seed 5, 3 rounds, adv_ratio 0.25, so 10 copies among 30 honest rows):
there the copies compete with more honest rows than the N = 12 grid
allows, and in some rounds the cut through the m kept rows falls inside
the block of tied copies.  The digests were recorded before the round and
the oracle began to score Multi-Krum from the honest rows' distance block,
the copies' gemv and zero copy-to-copy distances.

`BLOCKS` pins two minibatch configs, whose clients train and mask in
blocks of rows (one stacked `Model.grad` call for the clients of a block
with equal batch sizes, one clip and encode a block).  "ragged-batch"
(dp2guard under label flipping, logreg with 20 features and 10 classes,
N = 30, Dirichlet alpha = 0.1, 900 training rows, seed 3) gives 18 of its
30 clients fewer than `batch_size` = 32 rows, so a block splits into
groups of unequal batch size and the short clients train in groups of
their own; the streamed path then holds one block instead of one row.
"full-rows-batch" (Multi-Krum under min-max, an MLP with 16 hidden units,
N = 12, adv_ratio 0.25, seed 5) trains into the (N, d) stack a
full-knowledge attack needs, starting at the first honest id, so its
blocks do not start at row 0.  Both were recorded before clients began to
train and mask in blocks, which may not move a bit.

The digests are specific to the floating-point stack they were recorded on
(numpy 2.4, OpenBLAS 0.3, x86-64): another BLAS may change the last bits of
training and detection, and then they need re-pinning from an unchanged
tree.
"""
import hashlib

import pytest

from dp2guard.config import AGGREGATORS, ExperimentConfig
from dp2guard.harness import run_experiment
from dp2guard.report import ARTIFACTS

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


GRID_ATTACKS = {
    "none": None,
    "fang": {"kind": "fang"},
    "fang-accept-all": {"kind": "fang", "oracle": "accept_all"},
    "minmax": {"kind": "minmax"},
    "minsum": {"kind": "minsum"},
    "label-flip": {"kind": "label_flip", "offset": 1},
}

GRID = {
    ("dp2guard", "none"): "fabbabfdf044ce20f581e0d05a3398c73a30d283ff9b9043dab31b641d2b610b",
    ("dp2guard", "fang"): "d90230cfe8f323cef484d7df65a1f8e9db9a60218c6a80b8c2d13d219354dde9",
    ("dp2guard", "fang-accept-all"): "cf8903e80b7dfebd51963a278246ce41ba9227ad8107317b7e67563751cef69c",
    ("dp2guard", "minmax"): "f740fa78be255529d7fbb25f113166d34b1929c5eb5b58caaf7e1167917333c8",
    ("dp2guard", "minsum"): "206a4a489b2627c008e3ea1d54b9f9666968ba6ac2b3e2386409498bda09f8e3",
    ("dp2guard", "label-flip"): "05778a9e235d537ddf0618e4ffd0aa8a35001b751085b6f4d0cb6f7b30e03d0a",
    ("fedavg", "none"): "e2536537837b2860b5601b813e2a07eb117b06dfd752a8f9b2526e40d0da1d8c",
    ("fedavg", "fang"): "cd2fbcf7fd9d289b0bd4c742ebc18b5c8e8061acbb31b9f390851411460e16b9",
    ("fedavg", "fang-accept-all"): "44e889234cc80694c1be05efd95f3020e8d9bb81fd40d7175f70fca89fe8e6d9",
    ("fedavg", "minmax"): "7a8ce784309bd614b206a394a75f784a666e1ca6ab8985091769a56281b253d8",
    ("fedavg", "minsum"): "00a911c0861df5ae7c8aaedf246776f352cb581cc906d5b56ab1d8d0e9087c77",
    ("fedavg", "label-flip"): "0b8aaa5ce313daca207aa496c69c342614b887440dca9ada24a2ac038ce7e294",
    ("multikrum", "none"): "528ebeead58f854b63103783dfc326ce84837c5dcceecf8531f52a157cefb714",
    ("multikrum", "fang"): "464328229d3dfe487263028e2dfbef0849ac431e10cae35b602c7a4e2f787d7d",
    ("multikrum", "fang-accept-all"): "c8a96a109e405ccb0cf9e1bf488223aac25809ccd71c1dcb5b5e191d21cc15da",
    ("multikrum", "minmax"): "8671c3d6c18f82ae1f5271a8400b21474645576327c5ddf60c4a8b2f2bb72d06",
    ("multikrum", "minsum"): "032615468a7c44abaa14866379a475decf440f1e80e13ab2c4bd938b6594638f",
    ("multikrum", "label-flip"): "f6c1457f60f155f9cb9b10b23f675df2e2e4dc4a0c3dd76c7abfdd7e1324030f",
    ("dnc", "none"): "0838e2e558eb917c0228278ad0a3f5a45d2ea7f92b09dec5b1f7bd09434c2f00",
    ("dnc", "fang"): "d2dbb0eb6aae8e4339c99347083ec121607f387aeda6108e8e4247580357caef",
    ("dnc", "fang-accept-all"): "fd3f77038a50bf439cf6b5de672f224fbf09159c91b914671fff491d0589fcee",
    ("dnc", "minmax"): "78cbed3c8a352cb2105e9e35d1241c96655a1fcabab966ee8eaea93663f7ef4d",
    ("dnc", "minsum"): "ee433545a85d1686aca7184859721fb15a40f59dc540c99fa283bd83186f5ea2",
    ("dnc", "label-flip"): "b5a2077fbd0fb21358ff06209fc9da26cdbcbf6390eb090fd49a41fbfc064332",
    ("fltrust", "none"): "f918570147e9a88729083b5e993898928a9d320a0f7799f4e4f8486bb458788f",
    ("fltrust", "fang"): "7324752a66dbd99161f5c111895b656c446dd257b38a00e092ccbeb6391578e8",
    ("fltrust", "fang-accept-all"): "db4f0a628659376916c1fcb1200f3c11f80873ff714a6e882ded8d50fbb2ccc7",
    ("fltrust", "minmax"): "f92ec81634fb5f61cba01439f85f47d214938bc85aa2b271374ab0fc2d6d5ce9",
    ("fltrust", "minsum"): "089ffa889053c3efc5508ee2bc5c56882f5d98afd7f2584c45b523f818b795f9",
    ("fltrust", "label-flip"): "6ba6b834a1d75398cb84431b1624efa294439fad7bdf948d8b4710d0e602ee58",
}


def test_grid_covers_every_rule_and_attack():
    assert set(GRID) == {(rule, attack) for rule in AGGREGATORS for attack in GRID_ATTACKS}


@pytest.mark.parametrize("rule, attack", sorted(GRID), ids="-".join)
def test_grid_run_matches_pinned_digest(tmp_path, rule, attack):
    spec = GRID_ATTACKS[attack]
    cfg = ExperimentConfig(aggregator=rule, n_clients=12, rounds=3, seed=5,
                           adv_ratio=0.25 if spec else 0.0, attack=spec)
    result = run_experiment(cfg, out_dir=tmp_path)
    assert run_digest(tmp_path, result) == GRID[rule, attack]


def run_digest(out_dir, result):
    """One SHA-256 over every artifact in `out_dir`, by name and bytes, and
    the run's final parameters."""
    digest = hashlib.sha256()
    for artifact in ARTIFACTS:
        path = out_dir / artifact
        if path.exists():
            digest.update(artifact.encode() + b"\0" + path.read_bytes())
    digest.update(b"final_params\0" + result.final_params.tobytes())
    return digest.hexdigest()


WIDE = {
    "fang": "9baf040aefc9d2431eb7e6a12b4953579313c84932b1b1a9629a789df82091c5",
    "minmax": "475c2140741b7d68b5afc88b0351421921b89758e3ced080de03580fb05fccf9",
}


@pytest.mark.parametrize("attack", sorted(WIDE))
def test_wide_multikrum_run_matches_pinned_digest(tmp_path, attack):
    cfg = ExperimentConfig(aggregator="multikrum", n_clients=40, rounds=3, seed=5,
                           adv_ratio=0.25, attack={"kind": attack})
    result = run_experiment(cfg, out_dir=tmp_path)
    assert run_digest(tmp_path, result) == WIDE[attack]


BLOCKS = {
    "ragged-batch": (
        dict(aggregator="dp2guard", model="logreg", synth_features=20, synth_classes=10,
             n_clients=30, partition="dirichlet", alpha=0.1, synth_train=900, seed=3,
             rounds=3, local_mode="batch", adv_ratio=0.2, attack={"kind": "label_flip"}),
        "3ac7ede83c14e7b8041e24c34a8ef4151e5282fe106d8c0dbe2a8caf2e84cf45",
    ),
    "full-rows-batch": (
        dict(aggregator="multikrum", model="mlp", hidden=16, n_clients=12, adv_ratio=0.25,
             seed=5, rounds=3, local_mode="batch", attack={"kind": "minmax"}),
        "497124dcc9238a0d60e3bd8b9693d6cfc072048cbbb9c132bcf91a05bec0cc6b",
    ),
}


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_block_run_matches_pinned_digest(tmp_path, name):
    config, pinned = BLOCKS[name]
    result = run_experiment(ExperimentConfig(**config), out_dir=tmp_path)
    assert run_digest(tmp_path, result) == pinned
