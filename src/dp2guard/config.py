"""Experiment configuration: the fields a run is built from and what each
admits, checked once, when the config is built."""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import attacks
from .errors import ConfigError
from .numeric import MAX_SCALE_BITS

AGGREGATORS = ("dp2guard", "fedavg", "multikrum", "dnc", "fltrust")
ATTACK_SPECS = {"label_flip": attacks.LabelFlipSpec, "fang": attacks.FangSpec,
                "minmax": attacks.ScaleSpec, "minsum": attacks.ScaleSpec}
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
            if not is_real(getattr(self, name)):
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
        # The training rows, where the config fixes their count; a client
        # with none has nothing to train on.
        rows = [self.train_subset] if self.train_subset else []
        if self.dataset == "synthetic":
            rows.append(self.synth_train)
        if rows and min(rows) < self.n_clients:
            raise ConfigError(f"{min(rows)} training rows cannot cover "
                              f"{self.n_clients} clients")
        if self.attack is not None:
            spec = self.parse_attack()
            _check_attack(spec, self.synth_classes if self.dataset == "synthetic" else 10)
            # Their scale searches bound the crafted gradient by the honest
            # gradients' distances to one another, which takes two of them.
            honest = self.n_clients - self.n_malicious
            if isinstance(spec, attacks.ScaleSpec) and honest < 2:
                raise ConfigError(f"{spec.kind} needs at least two honest clients, "
                                  f"got {honest}")
        elif self.adv_ratio > 0:
            raise ConfigError("adv_ratio > 0 requires an attack")
        _check_aggregator_params(self.aggregator, self.aggregator_params)
        if self.aggregator == "multikrum":
            f, m = self.multikrum_params
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

    @property
    def multikrum_params(self) -> tuple[int, int]:
        """Multi-Krum's (f, m): by default f = n_malicious and m = N - f."""
        f = self.aggregator_params.get("f", self.n_malicious)
        return f, self.aggregator_params.get("m", self.n_clients - f)

    @property
    def dnc_params(self) -> dict[str, Any]:
        """`baselines.dnc_survivors`' keyword parameters: by default one
        iteration on 1000 coordinates, removing ceil(1.5 * max(n_malicious,
        1)) clients; each key of aggregator_params overrides its default."""
        return {"n_iters": 1, "sub_dim": 1000, "filter_frac": 1.5,
                "assumed_malicious": max(self.n_malicious, 1), **self.aggregator_params}

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


def is_real(value: Any) -> bool:
    """A finite JSON number (int or float, not a boolean); NaN fails `<=`."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_positive(value: Any) -> bool:
    return is_real(value) and value > 0


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
        # Above lambda0 the halving never runs and the unchecked floor is
        # stronger than the attack's own starting factor.
        if spec.gamma_min > spec.lambda0:
            raise ConfigError("fang gamma_min must not exceed lambda0")
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
