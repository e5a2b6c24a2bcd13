"""Per-client trust scores: distance-based direct trust, exponential
moving-average history, and normalized aggregation weights.

Every vector here is (N,) float64 with entry k for the server's row k."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZeroTrust


@dataclass(frozen=True)
class TrustState:
    """EMA trust per row; beta is the history weight."""

    trust: np.ndarray
    beta: float


def initial_trust(n: int, beta: float) -> TrustState:
    """Neutral prior: every client starts at full trust."""
    if not 0 <= beta < 1:
        raise ValueError("beta must be in [0, 1)")
    return TrustState(np.ones(n), beta)


def direct_trust(features: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """1 / (1 + distance) of each feature row to the benign cluster
    centroid, on raw features.  `vecdot` takes each row's dot product as
    `np.linalg.norm` of that row does; a norm along an axis rounds
    differently."""
    diff = np.asarray(features, dtype=np.float64) - np.asarray(centroid)
    return 1.0 / (1.0 + np.sqrt(np.vecdot(diff, diff)))


def update_trust(state: TrustState, direct: np.ndarray) -> TrustState:
    """EMA update: beta * old + (1 - beta) * direct.

    Callers pass direct=0 for rows excluded this round, which decays
    their trust geometrically.
    """
    direct = np.asarray(direct, dtype=np.float64)
    if direct.shape != state.trust.shape:
        raise ValueError(f"{direct.shape} direct trust for {state.trust.shape} rows")
    bad = np.flatnonzero(~((direct >= 0.0) & (direct <= 1.0)))  # NaN too
    if bad.size:
        raise ValueError(f"direct trust {direct[bad[0]]} for row {bad[0]} outside [0, 1]")
    return TrustState(state.beta * state.trust + (1.0 - state.beta) * direct, state.beta)


def weights(state: TrustState, zero_mask: np.ndarray | None = None) -> np.ndarray:
    """Normalized aggregation weights tau_k = trust_k / sum(trust).

    `zero_mask` implements hard exclusion: its rows get weight 0 and the
    rest renormalize.  The total is Python's left-to-right sum, whose
    rounding `np.sum`'s pairwise order does not reproduce.
    """
    live = state.trust if zero_mask is None else np.where(zero_mask, 0.0, state.trust)
    total = sum(live.tolist())
    if total <= 0.0:
        raise AllZeroTrust("no positive trust to normalize")
    return live / total
