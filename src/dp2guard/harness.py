"""Experiment orchestration: configuration, the per-round protocol loop,
metrics, and plotting."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import attacks, baselines, client, defense, models
from .data import Dataset, load_idx, partition, synth_dataset
from .errors import ConfigError, NonFiniteGradient, NonFiniteModel, OutputExists
from .ledger import (
    Ledger,
    make_round_payload,
    payload_agg_blob,
    payload_trust_weights,
)
from .numeric import MAX_SCALE_BITS, rekey, ring_view, serialize_ring, substream
from .servers import (
    Channel,
    ServerS1,
    ServerS2,
    encode_agg_and_weights,
    encode_share_upload,
)

AGGREGATORS = ("dp2guard", "fedavg", "multikrum", "dnc", "fltrust")
ATTACK_SPECS = {"label_flip": attacks.LabelFlipSpec, "fang": attacks.FangSpec,
                "minmax": attacks.MinMaxSpec, "minsum": attacks.MinSumSpec}
# aggregator_params keys per rule, each with the least integer it admits
# (None: a finite float > 0).
AGGREGATOR_PARAMS = {
    "multikrum": {"f": 0, "m": 1},
    "dnc": {"n_iters": 1, "sub_dim": 1, "filter_frac": None, "assumed_malicious": 1},
}
CHOICES = {
    "dataset": ("synthetic", "mnist", "fashion"), "model": ("logreg", "mlp"),
    "aggregator": AGGREGATORS, "partition": ("iid", "dirichlet"),
    "exclusion": ("soft", "hard"), "local_mode": ("epoch", "batch"),
}
# Integer fields with the least value each admits (a subset of 0 is the whole
# split), and the greatest where there is one (the seed is packed as a signed
# 64-bit word).
INT_FIELDS = {
    "n_clients": 2, "rounds": 1, "seed": -2**63, "batch_size": 1, "scale_bits": 1,
    "synth_train": 1, "synth_test": 1, "synth_features": 1, "synth_classes": 2, "hidden": 1,
    "fltrust_root_size": 1, "train_subset": 0, "test_subset": 0,
}
INT_CEILINGS = {"seed": 2**63 - 1, "scale_bits": MAX_SCALE_BITS}
# Fields of other JSON types; those in NULLABLE may also be None.
TYPED_FIELDS = {"data_dir": str, "attack": dict, "aggregator_params": dict}
NULLABLE = ("train_subset", "test_subset", "data_dir", "attack")
# Files a run writes into its output directory.
ARTIFACTS = ("ledger.jsonl", "metrics.csv", "plot.svg", "resolved-config.json",
             "detection.csv", "attack.csv")
LEDGER_SENDER = 0
# Attacks crafted from every honest client's gradient.
FULL_KNOWLEDGE = (attacks.FangSpec, attacks.MinMaxSpec, attacks.MinSumSpec)
# Clients train and mask in blocks of about this many float64 gradient
# entries (64 KiB): at small d a block holds many clients, so a round makes
# few numpy calls; from d = 4,097 on, each client is a block of its own.
BLOCK_WORDS = 8192


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully determined by its JSON form plus nothing else."""

    dataset: str = "synthetic"
    model: str = "logreg"
    n_clients: int = 20
    rounds: int = 50
    adv_ratio: float = 0.0
    attack: dict[str, Any] | None = None
    aggregator: str = "dp2guard"
    partition: str = "iid"
    alpha: float = 0.5
    beta: float = 0.5
    exclusion: str = "soft"
    seed: int = 0
    eta: float = 0.01
    batch_size: int = 32
    scale_bits: int = 16
    local_mode: str = "epoch"
    train_subset: int | None = None
    test_subset: int | None = None
    data_dir: str | None = None
    synth_train: int = 2000
    synth_test: int = 1000
    synth_features: int = 20
    synth_classes: int = 4
    synth_separation: float = 4.0
    hidden: int = 128
    fltrust_root_size: int = 100
    aggregator_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        for name, low in INT_FIELDS.items():
            value, high = getattr(self, name), INT_CEILINGS.get(name, math.inf)
            if not (value is None and name in NULLABLE or _is_int(value, low) and value <= high):
                raise ConfigError(f"{name} must be an integer in [{low}, {high}]")
        for name, kind in TYPED_FIELDS.items():
            value = getattr(self, name)
            if not (value is None and name in NULLABLE or isinstance(value, kind)):
                raise ConfigError(f"{name} must be a JSON {kind.__name__}")
        for name in ("adv_ratio", "alpha", "beta", "eta", "synth_separation"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        if self.partition == "dirichlet" and not _is_positive(self.alpha):
            raise ConfigError("dirichlet alpha must be finite and > 0")
        if not 0.0 <= self.adv_ratio < 0.5:
            raise ConfigError("adv_ratio must be in [0, 0.5)")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError("beta must be in [0, 1)")
        if self.eta <= 0:
            raise ConfigError("eta must be positive")
        if self.attack is not None:
            _check_attack(self.parse_attack(),
                          self.synth_classes if self.dataset == "synthetic" else 10)
        elif self.adv_ratio > 0:
            raise ConfigError("adv_ratio > 0 requires an attack")
        _check_aggregator_params(self.aggregator, self.aggregator_params)
        if self.aggregator == "multikrum":
            f, m = _multikrum_params(self)
            if self.n_clients < 2 * f + 3:
                raise ConfigError(
                    f"multikrum needs n >= 2f+3, got n={self.n_clients}, f={f}")
            if not 1 <= m <= self.n_clients - f:
                raise ConfigError(f"multikrum m={m} outside [1, n-f]")

    @property
    def n_malicious(self) -> int:
        return int(np.ceil(self.adv_ratio * self.n_clients))

    @property
    def malicious_ids(self) -> tuple[int, ...]:
        # Deterministic first-k placement keeps detection ground truth stable.
        return tuple(range(self.n_malicious))

    def parse_attack(self) -> attacks.AttackSpec | None:
        if self.attack is None:
            return None
        spec = dict(self.attack)
        kind = spec.pop("kind", None)
        if not isinstance(kind, str) or kind not in ATTACK_SPECS:
            raise ConfigError(f"unknown attack kind {kind!r}")
        try:
            return ATTACK_SPECS[kind](kind=kind, **spec)
        except TypeError as exc:
            raise ConfigError(f"bad parameters for attack {kind!r}: {exc}") from exc

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(raw)


def _is_int(value: Any, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _is_real(value: Any) -> bool:
    """A finite JSON number (int or float, not a boolean); NaN fails `<=`."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_positive(value: Any) -> bool:
    return _is_real(value) and value > 0


def _check_attack(spec: attacks.AttackSpec, n_classes: int) -> None:
    if isinstance(spec, attacks.LabelFlipSpec):
        if not _is_int(spec.offset, 1) or spec.offset >= n_classes:
            raise ConfigError(f"label_flip offset must be an integer in [1, {n_classes})")
        if not (_is_positive(spec.fraction) and spec.fraction <= 1):
            raise ConfigError("label_flip fraction must be in (0, 1]")
        return
    for name in ("gamma0", "step", "gamma_min", "lambda0"):
        if hasattr(spec, name) and not _is_positive(getattr(spec, name)):
            raise ConfigError(f"{spec.kind} {name} must be finite and > 0")
    if isinstance(spec, attacks.FangSpec):
        if spec.oracle not in attacks.FANG_ORACLES:
            raise ConfigError(f"fang oracle must be one of {attacks.FANG_ORACLES}")
    elif spec.direction not in attacks.DIRECTIONS:
        raise ConfigError(f"{spec.kind} direction must be one of {attacks.DIRECTIONS}")


def _check_aggregator_params(aggregator: str, params: dict[str, Any]) -> None:
    allowed = AGGREGATOR_PARAMS.get(aggregator, {})
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"aggregator_params {sorted(unknown)} do not apply to {aggregator}")
    for key, value in params.items():
        low = allowed[key]
        if low is None and not _is_positive(value):
            raise ConfigError(f"{aggregator} {key} must be finite and > 0")
        if low is not None and not _is_int(value, low):
            raise ConfigError(f"{aggregator} {key} must be an integer >= {low}")


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
        base = resolve_data_dir(cfg.data_dir, cfg.dataset)
        train = load_idx(_idx_file(base, "train-images-idx3-ubyte"),
                         _idx_file(base, "train-labels-idx1-ubyte"))
        test = load_idx(_idx_file(base, "t10k-images-idx3-ubyte"),
                        _idx_file(base, "t10k-labels-idx1-ubyte"))
    if cfg.train_subset:
        train = train.head(cfg.train_subset)
    if cfg.test_subset:
        test = test.head(cfg.test_subset)
    return train, test


def resolve_data_dir(data_dir: str | None, dataset: str) -> Path:
    """Locate the IDX files: explicit config, then DP2GUARD_DATA_DIR, then
    ./data/<dataset>."""
    import os

    candidates = []
    if data_dir:
        candidates.append(Path(data_dir))
    env = os.environ.get("DP2GUARD_DATA_DIR")
    if env:
        candidates.append(Path(env) / dataset)
        candidates.append(Path(env))
    candidates.append(Path("data") / dataset)
    for cand in candidates:
        try:
            _idx_file(cand, "train-images-idx3-ubyte")
            return cand
        except FileNotFoundError:
            continue
    raise FileNotFoundError(
        f"no IDX files for {dataset!r}; searched {[str(c) for c in candidates]}; "
        "set data_dir or DP2GUARD_DATA_DIR"
    )


def _idx_file(base: Path, stem: str) -> Path:
    for name in (stem, stem + ".gz"):
        path = base / name
        if path.exists():
            return path
    raise FileNotFoundError(f"{base / stem}[.gz] not found")


def block_rows(d: int, n_clients: int) -> int:
    """Clients per training and masking block at gradient dimension d."""
    return max(1, min(n_clients, BLOCK_WORDS // d))


def refuse_artifacts(out_path: Path) -> None:
    """Raise OutputExists if `out_path` holds any of the ARTIFACTS, whose
    earlier copies would pass for this run's; a run checks before any work."""
    for name in ARTIFACTS:
        if (out_path / name).exists():
            raise OutputExists(f"{out_path / name} already exists; "
                               "write each run to a fresh directory")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   record_history: bool = False) -> RunResult:
    """Run the configured number of rounds and return per-round metrics.

    Every random draw comes from a stream keyed by (seed, purpose, actor,
    round), so reruns of the same config are bit-identical.  Raises
    OutputExists if `out_dir` already holds any of the ARTIFACTS.
    """
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        refuse_artifacts(out_path)
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
                        detection_csv = (out_path / "detection.csv").open("x", encoding="utf-8")
                        detection_csv.write("round,client_id,s,c,cluster,benign\n")
                    _write_detection(detection_csv, round_no, detection)
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
        emit_metrics(metrics, out_path / "metrics.csv")
        plot_metrics(metrics, out_path / "plot.svg",
                     title=f"{cfg.aggregator} on {cfg.dataset}")
        (out_path / "resolved-config.json").write_text(cfg.to_json() + "\n",
                                                       encoding="utf-8")
        if any(m.crafted_norm is not None for m in metrics):
            attack_lines = ["round,crafted_norm"]
            attack_lines += [f"{m.round},{m.crafted_norm!r}" for m in metrics
                             if m.crafted_norm is not None]
            (out_path / "attack.csv").write_text("\n".join(attack_lines) + "\n",
                                                 encoding="utf-8")
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
    rng = np.random.Generator(np.random.Philox(0))  # re-keyed for each client

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

    Accepts a candidate if the rule, run on the honest rows plus
    n_malicious copies of it, keeps at least one copy.  Every call sees
    the ("attack-oracle", round) stream in the same state.  FedAvg and
    FLTrust never reject (FLTrust's root data is server-private, so the
    attacker cannot simulate it), and a spec with oracle="accept_all"
    models a non-adaptive attacker.  Multi-Krum and DnC read the
    population as a `baselines.Population` with the copies last, as the
    round reads its own with them first; Multi-Krum scores each candidate
    from `honest_dists`, the honest rows' `row_distances`, and one gemv."""
    if spec.oracle == "accept_all" or cfg.aggregator in ("fedavg", "fltrust"):
        return lambda candidate: True
    honest = np.asarray(honest, dtype=np.float64)
    n_honest, n_mal = len(honest), cfg.n_malicious
    rng = substream(cfg.seed, "attack-oracle", round_no)
    if cfg.aggregator == "dp2guard":
        # The servers' detection on the float-centred population (they
        # centre in the ring), replayed from its Gram matrix.
        gram_of = _population_gram(honest, n_mal)

        def kept(candidate: np.ndarray) -> Iterable[int]:
            return defense.detect_gram(gram_of(candidate), rng).benign
    elif cfg.aggregator == "multikrum":
        def kept(candidate: np.ndarray) -> Iterable[int]:
            return _multikrum_kept(cfg, baselines.Population(honest, candidate, n_mal, False),
                                   honest_dists)
    else:
        def kept(candidate: np.ndarray) -> Iterable[int]:
            return _dnc_kept(cfg, baselines.Population(honest, candidate, n_mal, False), rng)
    start = rng.bit_generator.state

    def oracle(candidate: np.ndarray) -> bool:
        rng.bit_generator.state = start
        return any(i >= n_honest for i in kept(candidate))
    return oracle


def _population_gram(honest: np.ndarray, n_mal: int) -> Callable[[np.ndarray], np.ndarray]:
    """Gram matrix of the population `honest` + n_mal copies of a
    candidate c, centred on its mean, as a function of c.

    With A the honest rows centred on their mean mu_h, H = A A^T,
    delta = c - mu_h, v = A delta, dd = delta . delta and k = n_mal / N,
    the population mean is mu_h + k delta, so the centred rows are
    a_i - k delta and (1 - k) delta, and their Gram matrix is
      honest-honest  H_ij - k (v_i + v_j) + k^2 dd,
      honest-copy    (1 - k) (v_i - k dd),
      copy-copy      (1 - k)^2 dd.
    Only the O(N d) products v and dd depend on c."""
    mu = honest.mean(axis=0)
    a = honest - mu
    hh = a @ a.T
    n_honest = len(honest)
    n = n_honest + n_mal
    k = n_mal / n

    def gram_of(candidate: np.ndarray) -> np.ndarray:
        delta = candidate - mu
        v = a @ delta
        dd = float(delta @ delta)
        kv = k * v
        gram = np.empty((n, n))
        # v_i + v_j before the subtraction keeps the block exactly symmetric.
        gram[:n_honest, :n_honest] = hh - np.add.outer(kv, kv) + k * k * dd
        cross = (1.0 - k) * (v - k * dd)
        gram[:n_honest, n_honest:] = cross[:, None]
        gram[n_honest:, :n_honest] = cross[None, :]
        gram[n_honest:, n_honest:] = (1.0 - k) ** 2 * dd
        return gram
    return gram_of


def _multikrum_kept(cfg: ExperimentConfig, population: baselines.Population,
                    honest_dists: attacks.RowDistances) -> np.ndarray:
    """Population indices Multi-Krum keeps, in its ranking order, from
    `honest_dists`, the honest rows' `row_distances`.  The copies'
    distances to the honest rows are one gemv,
    max(||h_i||^2 + ||c||^2 - 2 h_i.c, 0), the expanded form of the
    population's own Gram matrix.  The lowest scores win, ties to the lower
    index (one stable argsort)."""
    f, m = _multikrum_params(cfg)
    honest, crafted, n_copies = population.honest, population.crafted, population.n_copies
    sq_norms, sq_dists = honest_dists
    copy_dists = None
    if n_copies:
        copy_dists = np.maximum(sq_norms + float(np.square(crafted).sum())
                                - 2.0 * (honest @ crafted), 0.0)
    scores = baselines.krum_scores(sq_dists, copy_dists, n_copies, f)
    if n_copies:
        scores = population.join(scores[:-1], scores[-1])
    return np.argsort(scores, kind="stable")[:m]


def _dnc_kept(cfg: ExperimentConfig, population: baselines.Population,
              rng: np.random.Generator) -> np.ndarray:
    """Rows of `population` DnC keeps, in ascending id order."""
    kept = baselines.dnc_survivors(population, _dnc_params(cfg), rng)
    return np.array(sorted(kept), dtype=np.intp)


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

    mask_rng = np.random.Generator(np.random.Philox(0))  # re-keyed for each client
    lo = 0
    for block in blocks:
        ids = range(lo, lo + len(block))
        _upload_block(cfg, block, ids, round_no, channel, s1, s2, mask_rng)
        lo = ids.stop

    s2.receive_centered_batch(channel.send("S1", "S2", s1.center_shares()))

    detection, row_weights = s2.detect_and_weigh(substream(cfg.seed, "cluster", round_no))
    agg2, agg_scale = s2.publish()
    tau = dict(enumerate(row_weights.tolist()))

    model_digest = hashlib.sha256(params.tobytes()).digest()
    ledger.append(round_no, make_round_payload(serialize_ring(agg2, agg_scale), tau,
                                               model_digest))

    payload = ledger.read_round(round_no)
    agg2_read, agg_scale_read = ring_view(payload_agg_blob(payload))
    ledger_msg = encode_agg_and_weights(round_no, LEDGER_SENDER, agg2_read, agg_scale_read,
                                        payload_trust_weights(payload))
    s1.receive_agg_and_weights(channel.send("ledger", "S1", ledger_msg))

    return s1.finalize(), detection, tau


def _write_detection(fh: TextIO, round_no: int, detection: defense.DetectionResult) -> None:
    """The round's detection.csv lines; row k of the round is client k."""
    for k, (s, c) in enumerate(detection.features):
        flag = int(k in detection.benign)
        fh.write(f"{round_no},{k},{float(s)!r},{float(c)!r},{1 - flag},{flag}\n")


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
    population's honest rows, computed here when None."""
    if cfg.aggregator == "fedavg":
        return baselines.fedavg(population), None
    if cfg.aggregator == "fltrust":
        root_grad = model.grad(params, root_data.features, root_data.labels)
        return baselines.fltrust(population, root_grad), None
    if cfg.aggregator == "multikrum":
        if honest_dists is None:
            honest_dists = attacks.row_distances(population.honest)
        kept = _multikrum_kept(cfg, population, honest_dists)
    else:
        kept = _dnc_kept(cfg, population, substream(cfg.seed, "dnc", round_no))
    return baselines.kept_mean(population, kept), frozenset(kept.tolist())


def _multikrum_params(cfg: ExperimentConfig) -> tuple[int, int]:
    f = cfg.aggregator_params.get("f", cfg.n_malicious)
    return f, cfg.aggregator_params.get("m", cfg.n_clients - f)


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


# --- metrics output --------------------------------------------------------

CSV_HEADER = "round,accuracy,precision,recall,mean_trust_benign,mean_trust_malicious"


def emit_metrics(metrics: Sequence[RoundMetrics], path: str | Path) -> None:
    """CSV with one row per round; absent metrics serialize as empty fields."""
    if not metrics:
        raise ValueError("no metrics to emit")
    lines = [CSV_HEADER]
    for m in metrics:
        cells = [str(m.round), repr(m.accuracy)]
        for value in (m.precision, m.recall, m.mean_trust_benign, m.mean_trust_malicious):
            cells.append("" if value is None else repr(value))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def plot_metrics(metrics: Sequence[RoundMetrics], path: str | Path,
                 title: str = "accuracy") -> None:
    """Accuracy-versus-round line chart as a standalone SVG."""
    points = [(float(m.round), m.accuracy) for m in metrics]
    _svg_chart({title: points}, path, "round", "accuracy")


def plot_ratio_sweep(series: dict[str, list[tuple[float, float]]],
                     path: str | Path) -> None:
    """Final accuracy versus adversary ratio, one line per labelled sweep."""
    _svg_chart(series, path, "adv_ratio", "final accuracy")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_chart(series: dict[str, list[tuple[float, float]]], path: str | Path,
               xlabel: str, ylabel: str) -> None:
    width, height, margin = 640, 420, 56
    xs = [x for pts in series.values() for x, _ in pts]
    if not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, 1.0  # both charts plot accuracies
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height / 2:.1f})">{ylabel}</text>',
    ]
    for k in range(5):
        xv = x_lo + k * (x_hi - x_lo) / 4
        yv = y_lo + k * (y_hi - y_lo) / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - margin + 16}" '
                     f'text-anchor="middle" font-size="10">{xv:.3g}</text>')
        parts.append(f'<text x="{margin - 6}" y="{sy(yv) + 4:.1f}" '
                     f'text-anchor="end" font-size="10">{yv:.3g}</text>')
    for idx, (label, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin}" y="{margin + 14 * idx}" '
                     f'text-anchor="end" font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
