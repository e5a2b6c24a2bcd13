"""Dual-server masked federated learning with hybrid poisoning defense,
trust-weighted aggregation, and a hash-chained audit ledger."""

from .client import split_and_mask
from .harness import ExperimentConfig, run_experiment

__all__ = ["ExperimentConfig", "run_experiment", "split_and_mask"]
