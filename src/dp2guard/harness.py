"""Experiment orchestration: the per-round protocol loop, the attacker's
crafting and oracle, and the plaintext rules' selection."""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import attacks, baselines, client, defense, models, report
from .config import ExperimentConfig
from .data import Dataset, load_idx_splits, partition, synth_dataset
from .errors import NonFiniteGradient, NonFiniteModel
from .ledger import (
    Ledger,
    make_round_payload,
    payload_agg_blob,
    payload_trust_weights,
)
from .numeric import block_rows, rekey, substream
from .servers import (
    Channel,
    ServerS1,
    ServerS2,
    encode_agg_and_weights,
    encode_share_upload,
)

LEDGER_SENDER = 0
# Attacks crafted from every honest client's gradient.
FULL_KNOWLEDGE = (attacks.FangSpec, attacks.MinMaxSpec, attacks.MinSumSpec)


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    accuracy: float
    precision: float | None
    recall: float | None
    mean_trust_benign: float | None
    mean_trust_malicious: float | None
    wall_time: float
    crafted_norm: float | None = None


@dataclass
class RunResult:
    config: ExperimentConfig
    metrics: list[RoundMetrics]
    ledger: Ledger
    final_params: np.ndarray
    model: models.Model
    weight_history: list[dict[int, float]] = field(default_factory=list)
    benign_history: list[frozenset[int]] = field(default_factory=list)
    params_history: list[np.ndarray] = field(default_factory=list)
    gradient_history: list[np.ndarray] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.metrics[-1].accuracy


def load_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Training and test splits for the configured dataset."""
    if cfg.dataset == "synthetic":
        train = synth_dataset(cfg.synth_train, cfg.synth_features, cfg.synth_classes,
                              cfg.synth_separation, substream(cfg.seed, "data", "train"))
        test = synth_dataset(cfg.synth_test, cfg.synth_features, cfg.synth_classes,
                             cfg.synth_separation, substream(cfg.seed, "data", "test"))
    else:
        train, test = load_idx_splits(cfg.data_dir, cfg.dataset)
    if cfg.train_subset:
        train = train.head(cfg.train_subset)
    if cfg.test_subset:
        test = test.head(cfg.test_subset)
    return train, test


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   record_history: bool = False) -> RunResult:
    """Run the configured number of rounds and return per-round metrics.

    Every random draw comes from a stream keyed by (seed, purpose, actor,
    round), so reruns of the same config are bit-identical.  Raises
    OutputExists if `out_dir` already holds any of `report.ARTIFACTS`.
    """
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        report.refuse_artifacts(out_path)
        out_path.mkdir(parents=True, exist_ok=True)

    train, test = load_datasets(cfg)
    model = models.Model(cfg.model, train.n_features, train.n_classes, hidden=cfg.hidden)
    assignments = partition(train, cfg.n_clients, cfg.partition, cfg.alpha,
                            rng=substream(cfg.seed, "partition"))
    spec = cfg.parse_attack()

    # Client k trains on datasets[k]; the first n_malicious ids attack
    # (ExperimentConfig.malicious_ids), and label flippers poison theirs here.
    datasets = []
    for cid, idx in enumerate(assignments):
        local = train.subset(idx)
        if isinstance(spec, attacks.LabelFlipSpec) and cid < cfg.n_malicious:
            local = attacks.label_flip(local, spec.offset, spec.fraction,
                                       substream(cfg.seed, "poison", cid))
        datasets.append(local)
    # Every training row now lives in its client's Dataset; dropping the
    # unpartitioned matrix keeps it from being held a second time all run.
    del train

    params = model.init_params(substream(cfg.seed, "model-init"))
    ledger = Ledger(out_path / "ledger.jsonl" if out_path else None)
    channel = Channel()
    root_data = _fltrust_root(cfg, test) if cfg.aggregator == "fltrust" else None
    # The round loop's (N, d) arrays live for the run (np.empty only maps
    # them; round 0 touches their pages): the dp2guard servers' matrices,
    # sized at construction, and the gradient rows.  Those hold one row per
    # honest client under a full-knowledge attack, whose attackers all
    # submit the one crafted gradient; one per client where a plaintext
    # rule reads them all or the history records them; else one block of
    # `block_rows` rows that each block of clients reuses.
    k = block_rows(model.dim, cfg.n_clients)
    if isinstance(spec, FULL_KNOWLEDGE):
        n_rows = cfg.n_clients - cfg.n_malicious
    elif cfg.aggregator != "dp2guard" or record_history:
        n_rows = cfg.n_clients
    else:
        n_rows = k
    rows = np.empty((n_rows, model.dim))
    if cfg.aggregator == "dp2guard":
        s1 = ServerS1(cfg.n_clients, model.dim, cfg.scale_bits)
        s2 = ServerS2(cfg.n_clients, model.dim, cfg.scale_bits, cfg.beta, cfg.exclusion)

    result = RunResult(cfg, [], ledger, params, model)
    metrics: list[RoundMetrics] = []

    # detection.csv takes each dp2guard round's lines once its detection is
    # known, as the ledger takes its block: a failed run keeps both files
    # up to the round it failed in.
    detection_csv = None
    try:
        for round_no in range(cfg.rounds):
            started = time.perf_counter()
            gradients, crafted_norm, honest_dists = _round_gradients(
                cfg, datasets, model, params, round_no, spec, rows)
            if record_history:
                result.gradient_history.append(np.array(gradients))

            if cfg.aggregator == "dp2guard":
                if isinstance(gradients, baselines.Population):
                    gradients = gradients.blocks(k)
                g_agg, detection, tau = _dp2guard_round(cfg, gradients, round_no, ledger,
                                                        channel, params, s1, s2)
                benign_pred = detection.benign
                mtb, mtm = _trust_means(s2.trust, cfg.n_malicious)
                if out_path is not None:
                    if detection_csv is None:
                        detection_csv = report.open_detection(out_path)
                    report.write_detection(detection_csv, round_no, detection)
                if record_history:
                    result.weight_history.append(tau)
                    result.benign_history.append(benign_pred)
            else:
                g_agg, benign_pred = _baseline_round(cfg, gradients, round_no, model,
                                                     params, root_data, honest_dists)
                mtb = mtm = None
            # The crafted row lives until here, not into the next round: kept
            # alive while the next round allocates, it cost adaptive-fang's
            # peak RSS 2.2 MB in about one run in three.
            del gradients

            with np.errstate(all="ignore"):  # a diverged model fails below, on its round
                params = models.sgd_step(params, g_agg, cfg.eta)
            accuracy = model.accuracy(params, test.features, test.labels)
            if math.isnan(accuracy) or not np.isfinite(params).all():
                raise NonFiniteModel(f"the model after round {round_no} has non-finite "
                                     "parameters or test logits: training diverged")
            if record_history:
                result.params_history.append(params.copy())

            precision, recall = _detection_metrics(benign_pred, cfg.n_malicious,
                                                   cfg.n_clients)
            metrics.append(RoundMetrics(round_no, accuracy, precision, recall, mtb, mtm,
                                        time.perf_counter() - started, crafted_norm))
    finally:
        ledger.close()
        if detection_csv is not None:
            detection_csv.close()
    result.metrics = metrics
    result.final_params = params
    if out_path is not None:
        report.write_run(cfg, metrics, out_path)
    return result


def _round_gradients(cfg: ExperimentConfig, datasets: Sequence[Dataset],
                     model: models.Model, params: np.ndarray, round_no: int,
                     spec: attacks.AttackSpec | None, rows: np.ndarray,
                     ) -> tuple[baselines.Population | Iterator[np.ndarray], float | None,
                                attacks.RowDistances | None]:
    """The round's plaintext gradients, the crafted gradient's norm (None
    without a full-knowledge attack) and the honest rows' `row_distances`
    where the attack or Multi-Krum reads them (else None).

    Honest and label-flip clients train a block at a time (K =
    `block_rows`, the last block possibly shorter), each from its
    ("client", id, round) stream.  Under a full-knowledge attack `rows`
    holds the N - n_malicious honest clients, row i for client
    n_malicious + i, and the attackers train nothing; otherwise a row per
    client.  Once every row is trained, the gradients are a `Population` of
    `rows` plus, under the attack, n_malicious copies first of the one
    gradient crafted from them (the harness side channel), which no row
    holds.  With fewer rows, `rows` is one block that every block of
    clients reuses, and the gradients are a generator of (K, d) blocks in
    client order: it trains each block when the consumer asks, so a block
    must be consumed before the next is drawn.

    Raises NonFiniteGradient, naming the lowest diverging client and the
    round, as soon as a block's training diverges."""
    full_knowledge = isinstance(spec, FULL_KNOWLEDGE)
    n, k = len(datasets), block_rows(model.dim, len(datasets))
    first = cfg.n_malicious if full_knowledge else 0  # client of row 0
    rng = np.random.Generator(np.random.Philox(key=0))  # re-keyed for each client

    def train(lo: int) -> np.ndarray:
        hi = min(lo + k, n)
        # A row per trained client: the block's own rows; one reused block:
        # its first rows.
        block = rows[(lo - first) % len(rows):][:hi - lo]
        # A diverging run overflows inside training; it fails here, on its
        # cause, instead of with numpy warnings and a later error.
        with np.errstate(all="ignore"):
            client.local_gradient(datasets[lo:hi], model, params, cfg.local_mode,
                                  cfg.batch_size, cfg.eta,
                                  (rekey(rng, cfg.seed, "client", cid, round_no)
                                   for cid in range(lo, hi)), out=block)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            cid = lo + int(np.argmin(finite))
            raise NonFiniteGradient(f"client {cid}'s gradient in round {round_no} has "
                                    "non-finite entries: local training diverged")
        return block

    trained = map(train, range(first, n, k))
    if len(rows) < n - first:
        return trained, None, None
    for _ in trained:
        pass
    if not (full_knowledge and cfg.n_malicious):
        return baselines.Population(rows), None, None
    honest_dists = None
    # The scale searches' budgets and Multi-Krum (oracle and round) read them.
    if cfg.aggregator == "multikrum" or not isinstance(spec, attacks.FangSpec):
        honest_dists = attacks.row_distances(rows)
    crafted = _craft(cfg, spec, rows, round_no, honest_dists)
    return (baselines.Population(rows, crafted, cfg.n_malicious),
            float(np.linalg.norm(crafted)), honest_dists)


def _craft(cfg: ExperimentConfig, spec: attacks.AttackSpec, honest: np.ndarray,
           round_no: int, honest_dists: attacks.RowDistances | None) -> np.ndarray:
    if isinstance(spec, attacks.MinMaxSpec):
        return attacks.minmax_attack(honest, spec, honest_dists)
    if isinstance(spec, attacks.MinSumSpec):
        return attacks.minsum_attack(honest, spec, honest_dists)
    assert isinstance(spec, attacks.FangSpec)
    return attacks.fang_attack(honest, spec,
                               _fang_oracle(cfg, spec, honest, round_no, honest_dists))


def _fang_oracle(cfg: ExperimentConfig, spec: attacks.FangSpec, honest: np.ndarray,
                 round_no: int, honest_dists: attacks.RowDistances | None = None,
                 ) -> Callable[[np.ndarray], bool]:
    """The attacker's plaintext simulation of the target aggregation rule.

    Accepts a candidate if the rule, run on the round's population (the
    n_malicious copies of it first, then the honest rows), keeps at least
    one copy.  Every call sees the ("attack-oracle", round) stream in the
    same state.  FedAvg and FLTrust never reject (FLTrust's root data is
    server-private, so the attacker cannot simulate it), and a spec with
    oracle="accept_all" models a non-adaptive attacker.  Multi-Krum and
    DnC run the round's own selection, `_kept`, on a `baselines.Population`;
    Multi-Krum scores each candidate from `honest_dists`, the honest rows'
    `row_distances`, and one gemv."""
    if spec.oracle == "accept_all" or cfg.aggregator in ("fedavg", "fltrust"):
        return lambda candidate: True
    honest = np.asarray(honest, dtype=np.float64)
    n_mal = cfg.n_malicious
    rng = substream(cfg.seed, "attack-oracle", round_no)
    if cfg.aggregator == "dp2guard":
        # The servers' detection on the float-centred population (they
        # centre in the ring), replayed from its Gram matrix.
        gram_of = _population_gram(honest, n_mal)

        def kept(candidate: np.ndarray) -> Iterable[int]:
            return defense.detect_gram(gram_of(candidate), rng).benign
    else:
        def kept(candidate: np.ndarray) -> Iterable[int]:
            return _kept(cfg, baselines.Population(honest, candidate, n_mal), rng,
                         honest_dists)
    start = rng.bit_generator.state

    def oracle(candidate: np.ndarray) -> bool:
        rng.bit_generator.state = start
        return any(i < n_mal for i in kept(candidate))
    return oracle


def _population_gram(honest: np.ndarray, n_mal: int) -> Callable[[np.ndarray], np.ndarray]:
    """Gram matrix of the population n_mal copies of a candidate c, then
    `honest`, centred on its mean, as a function of c.

    With A the honest rows centred on their mean mu_h, H = A A^T,
    delta = c - mu_h, v = A delta, dd = delta . delta and k = n_mal / N,
    the population mean is mu_h + k delta, so the centred rows are
    (1 - k) delta and a_i - k delta, and their Gram matrix is
      copy-copy      (1 - k)^2 dd,
      copy-honest    (1 - k) (v_i - k dd),
      honest-honest  H_ij - k (v_i + v_j) + k^2 dd.
    Only the O(N d) products v and dd depend on c."""
    mu = honest.mean(axis=0)
    a = honest - mu
    hh = a @ a.T
    n = len(honest) + n_mal
    k = n_mal / n

    def gram_of(candidate: np.ndarray) -> np.ndarray:
        delta = candidate - mu
        v = a @ delta
        dd = float(delta @ delta)
        kv = k * v
        gram = np.empty((n, n))
        gram[:n_mal, :n_mal] = (1.0 - k) ** 2 * dd
        cross = (1.0 - k) * (v - k * dd)
        gram[:n_mal, n_mal:] = cross[None, :]
        gram[n_mal:, :n_mal] = cross[:, None]
        # v_i + v_j before the subtraction keeps the block exactly symmetric.
        gram[n_mal:, n_mal:] = hh - np.add.outer(kv, kv) + k * k * dd
        return gram
    return gram_of


def _kept(cfg: ExperimentConfig, population: baselines.Population,
          rng: np.random.Generator | None,
          honest_dists: attacks.RowDistances | None = None) -> np.ndarray:
    """Population indices the round's Multi-Krum or DnC keeps.

    DnC filters with `rng` and keeps its survivors in ascending id order.
    Multi-Krum keeps its m best in ranking order, scored from
    `honest_dists`, the honest rows' `row_distances` (computed here when
    None).  The copies' distances to the honest rows are one gemv,
    max(||h_i||^2 + ||c||^2 - 2 h_i.c, 0), the expanded form of the
    population's own Gram matrix.  The lowest scores win, ties to the lower
    index (one stable argsort)."""
    if cfg.aggregator == "dnc":
        kept = baselines.dnc_survivors(population, _dnc_params(cfg), rng)
        return np.array(sorted(kept), dtype=np.intp)
    f, m = cfg.multikrum_params
    honest, crafted, n_copies = population.honest, population.crafted, population.n_copies
    if honest_dists is None:
        honest_dists = attacks.row_distances(honest)
    sq_norms, sq_dists = honest_dists
    copy_dists = None
    if n_copies:
        copy_dists = np.maximum(sq_norms + float(np.square(crafted).sum())
                                - 2.0 * (honest @ crafted), 0.0)
    scores = baselines.krum_scores(sq_dists, copy_dists, n_copies, f)
    if n_copies:
        scores = population.join(scores[:-1], scores[-1])
    return np.argsort(scores, kind="stable")[:m]


def _dp2guard_round(cfg: ExperimentConfig, blocks: Iterable[np.ndarray],
                    round_no: int, ledger: Ledger, channel: Channel, params: np.ndarray,
                    s1: ServerS1, s2: ServerS2):
    """One full dual-server round on the run's servers, which it opens for
    `round_no`: upload, center, detect, weigh (S2 updates its trust),
    publish, read back, reassemble.  Returns the global gradient, the
    detection and the weights keyed by client id.  `blocks` yields every
    client's gradient in id order as row blocks of at most K rows
    (`_round_gradients`' generator, or `Population.blocks`); each block is
    masked into its clients' uploads, and those are sent, before the next
    is drawn."""
    s1.start_round(round_no)
    s2.start_round(round_no)

    mask_rng = np.random.Generator(np.random.Philox(key=0))  # re-keyed for each client
    lo = 0
    for block in blocks:
        ids = range(lo, lo + len(block))
        _upload_block(cfg, block, ids, round_no, channel, s1, s2, mask_rng)
        lo = ids.stop

    s2.receive_centered_batch(channel.send("S1", "S2", s1.center_shares()))

    detection, row_weights = s2.detect_and_weigh(substream(cfg.seed, "cluster", round_no))
    tau = dict(enumerate(row_weights.tolist()))
    ledger.append(round_no, make_round_payload(s2.publish(), tau,
                                               hashlib.sha256(params).digest()))

    payload = ledger.read_round(round_no)
    ledger_msg = encode_agg_and_weights(round_no, LEDGER_SENDER, payload_agg_blob(payload),
                                        payload_trust_weights(payload))
    return s1.finalize(channel.send("ledger", "S1", ledger_msg)), detection, tau


def _upload_block(cfg: ExperimentConfig, block: np.ndarray, ids: range, round_no: int,
                  channel: Channel, s1: ServerS1, s2: ServerS2,
                  mask_rng: np.random.Generator) -> None:
    """Mask the clients `ids`' gradients `block` into their uploads and
    send each client's two uploads, in id order.  The uploads are freed on
    return, before the next block trains or S1 centres."""
    # Each share is written straight into its upload's payload; the
    # uploads alternate share 1 and share 2, client by client.
    msgs, words = zip(*(encode_share_upload(cid, round_no, share, block.shape[1],
                                            cfg.scale_bits)
                        for cid in ids for share in (1, 2)))
    client.split_and_mask(block, cfg.scale_bits,
                          (rekey(mask_rng, cfg.seed, "mask", cid, round_no) for cid in ids),
                          out=(words[0::2], words[1::2]))
    for cid, m1, m2 in zip(ids, msgs[0::2], msgs[1::2]):
        s1.receive_share(channel.send(f"client{cid}", "S1", m1))
        s2.receive_share(channel.send(f"client{cid}", "S2", m2))


def _baseline_round(cfg: ExperimentConfig, population: baselines.Population,
                    round_no: int, model: models.Model, params: np.ndarray,
                    root_data: Dataset | None,
                    honest_dists: attacks.RowDistances | None = None):
    """The plaintext rule's aggregate of `population` (the crafted copies,
    if any, first) and the rows it kept (None for FedAvg and FLTrust).
    Multi-Krum scores from `honest_dists`, the `row_distances` of the
    population's honest rows (`_kept` computes them when None); DnC
    filters with the ("dnc", round) stream."""
    if cfg.aggregator == "fedavg":
        return baselines.fedavg(population), None
    if cfg.aggregator == "fltrust":
        root_grad = model.grad(params, root_data.features, root_data.labels)
        return baselines.fltrust(population, root_grad), None
    rng = substream(cfg.seed, "dnc", round_no) if cfg.aggregator == "dnc" else None
    kept = _kept(cfg, population, rng, honest_dists)
    return baselines.kept_mean(population, kept), frozenset(kept.tolist())


def _dnc_params(cfg: ExperimentConfig) -> baselines.DnCConfig:
    return baselines.DnCConfig(**{"assumed_malicious": max(cfg.n_malicious, 1),
                                  **cfg.aggregator_params})


def _fltrust_root(cfg: ExperimentConfig, test: Dataset) -> Dataset:
    rng = substream(cfg.seed, "fltrust-root")
    take = min(cfg.fltrust_root_size, len(test))
    idx = rng.choice(len(test), size=take, replace=False)
    return test.subset(idx)


def _detection_metrics(benign_pred: frozenset[int] | None, n_malicious: int,
                       n_clients: int) -> tuple[float | None, float | None]:
    """Precision/recall of flagging the malicious clients, the first
    n_malicious ids; absent when the rule makes no selection or no adversary."""
    if benign_pred is None or not n_malicious:
        return None, None
    flagged = set(range(n_clients)) - benign_pred
    tp = sum(cid < n_malicious for cid in flagged)
    return (tp / len(flagged) if flagged else 0.0), tp / n_malicious


def _trust_means(trust_vec: np.ndarray, n_malicious: int) -> tuple[float, float | None]:
    """Mean trust of the benign and of the malicious rows (attackers hold
    the first ids; adv_ratio < 0.5 leaves at least one benign row)."""
    mal = float(np.mean(trust_vec[:n_malicious])) if n_malicious else None
    return float(np.mean(trust_vec[n_malicious:])), mal
