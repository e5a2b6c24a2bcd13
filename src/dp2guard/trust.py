"""Per-client trust scores: distance-based direct trust, exponential
moving-average history, and normalized aggregation weights.

Every vector here is (N,) float64 with entry k for the server's row k,
which is client k.  The functions keep no state: S2 holds the run's trust
vector and updates it every round."""
from __future__ import annotations

import numpy as np

from .errors import AllZeroTrust


def direct_trust(features: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """1 / (1 + distance) of each feature row to the benign cluster
    centroid, on raw features.  `vecdot` takes each row's dot product as
    `np.linalg.norm` of that row does; a norm along an axis rounds
    differently."""
    diff = np.asarray(features, dtype=np.float64) - np.asarray(centroid)
    return 1.0 / (1.0 + np.sqrt(np.vecdot(diff, diff)))


def update_trust(trust: np.ndarray, direct: np.ndarray, beta: float) -> np.ndarray:
    """EMA update: beta * old + (1 - beta) * direct, as a new vector.

    Callers pass direct=0 for rows excluded this round, which decays
    their trust geometrically.
    """
    direct = np.asarray(direct, dtype=np.float64)
    if direct.shape != trust.shape:
        raise ValueError(f"{direct.shape} direct trust for {trust.shape} rows")
    bad = np.flatnonzero(~((direct >= 0.0) & (direct <= 1.0)))  # NaN too
    if bad.size:
        raise ValueError(f"direct trust {direct[bad[0]]} for row {bad[0]} outside [0, 1]")
    return beta * trust + (1.0 - beta) * direct


def weights(trust: np.ndarray, zero_mask: np.ndarray | None = None) -> np.ndarray:
    """Normalized aggregation weights tau_k = trust_k / sum(trust).

    `zero_mask` implements hard exclusion: its rows get weight 0 and the
    rest renormalize.  The total is Python's left-to-right sum, whose
    rounding `np.sum`'s pairwise order does not reproduce.
    """
    live = trust if zero_mask is None else np.where(zero_mask, 0.0, trust)
    total = sum(live.tolist())
    if total <= 0.0:
        raise AllZeroTrust("no positive trust to normalize")
    return live / total
