"""Dual-server masked federated learning with hybrid poisoning defense,
trust-weighted aggregation, and a hash-chained audit ledger."""

from .attacks import (
    FangSpec,
    LabelFlipSpec,
    MinMaxSpec,
    MinSumSpec,
    fang_attack,
    label_flip,
    minmax_attack,
    minsum_attack,
)
from .baselines import dnc, fedavg, fltrust, multi_krum
from .client import split_and_mask
from .data import Dataset, load_idx, partition, synth_dataset
from .defense import DetectionResult, cluster_and_select, detect
from .harness import ExperimentConfig, RoundMetrics, RunResult, run_experiment
from .ledger import Block, Ledger, verify_file
from .models import Model, sgd_step
from .numeric import decode_fixed, encode_fixed, substream
from .servers import (
    mean_center,
    partial_aggregate,
    reassemble_global,
    reconstruct_centered,
)
from .trust import TrustState, direct_trust, initial_trust, update_trust, weights

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Dataset",
    "DetectionResult",
    "ExperimentConfig",
    "FangSpec",
    "LabelFlipSpec",
    "Ledger",
    "MinMaxSpec",
    "MinSumSpec",
    "Model",
    "RoundMetrics",
    "RunResult",
    "TrustState",
    "cluster_and_select",
    "decode_fixed",
    "detect",
    "direct_trust",
    "dnc",
    "encode_fixed",
    "fang_attack",
    "fedavg",
    "fltrust",
    "initial_trust",
    "label_flip",
    "load_idx",
    "mean_center",
    "minmax_attack",
    "minsum_attack",
    "multi_krum",
    "partial_aggregate",
    "partition",
    "reassemble_global",
    "reconstruct_centered",
    "run_experiment",
    "sgd_step",
    "split_and_mask",
    "substream",
    "synth_dataset",
    "update_trust",
    "verify_file",
    "weights",
]
