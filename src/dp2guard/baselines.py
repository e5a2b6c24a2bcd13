"""Plaintext reference aggregators: FedAvg, Multi-Krum, DnC, and FLTrust."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TooFewClients


@dataclass(frozen=True)
class DnCConfig:
    n_iters: int = 1
    sub_dim: int = 1000
    # dnc_survivors removes ceil(filter_frac * assumed_malicious) clients.
    filter_frac: float = 1.5
    assumed_malicious: int = 1


def fedavg(gradients: Sequence[np.ndarray]) -> np.ndarray:
    """Uniform mean of the gradients."""
    if len(gradients) == 0:
        raise ValueError("nothing to aggregate")
    return np.asarray(gradients, dtype=np.float64).mean(axis=0)


def krum_scores(sq_dists: np.ndarray, copy_dists: np.ndarray | None, n_copies: int,
                f: int) -> np.ndarray:
    """Multi-Krum's scores on a population of rows plus n_copies identical
    copies of one vector c: each member's sum of squared distances to its
    n - f - 2 nearest others, n = len(sq_dists) + n_copies.

    `sq_dists` are the rows' pairwise squared distances and `copy_dists`
    each row's squared distance to c (unread when n_copies is 0); copies
    are 0 apart.  Returns the rows' scores, followed when n_copies > 0 by
    the one score every copy shares.  Each member's distances fill a row of
    one table, its own entry +inf; one sort per row and a sum over the first
    n - f - 2 columns give the same bits as sorting and summing each
    member's n - 1 distances on their own.
    """
    n_rows = len(sq_dists)
    n = n_rows + n_copies
    if n < 2 * f + 3:
        raise TooFewClients(f"multi-krum needs n >= 2f+3, got n={n}, f={f}")
    table = np.empty((n_rows + (n_copies > 0), n))
    table[:n_rows, :n_rows] = sq_dists
    own = np.arange(n_rows)
    table[own, own] = np.inf
    if n_copies:
        table[:n_rows, n_rows:] = copy_dists[:, None]
        table[n_rows, :n_rows] = copy_dists
        table[n_rows, n_rows:] = 0.0
        table[n_rows, -1] = np.inf
    table.sort(axis=1)
    return table[:, :n - f - 2].sum(axis=1)


def kept_mean(stack: np.ndarray, kept: Sequence[int]) -> np.ndarray:
    """Mean of the rows `kept`, added in the given order into one d-vector.

    Equal bit for bit to stack[kept].mean(axis=0) for float64 rows of
    d >= 2 entries, whose axis-0 reduction also adds whole rows in order,
    without gathering a (len(kept), d) copy.  (At d = 1 numpy collapses the
    reduction into one pairwise sum, which may differ in the last bit.)
    """
    if len(kept) == 0:
        raise ValueError("nothing to aggregate")
    total = stack[kept[0]].copy()
    for i in kept[1:]:
        total += stack[i]
    total /= len(kept)
    return total


def dnc_survivors(stack: np.ndarray, cfg: DnCConfig,
                  rng: np.random.Generator) -> set[int]:
    """Indices kept by the spectral filter: each iteration scores clients by
    squared projection onto the top singular direction of a centered
    coordinate subsample and drops the highest scorers; the surviving sets
    intersect.  An empty intersection falls back to the lowest scorer."""
    n, d = stack.shape
    if n < 2:
        raise TooFewClients("dnc needs at least two clients")
    remove = min(int(np.ceil(cfg.filter_frac * cfg.assumed_malicious)), n - 1)
    survivors = set(range(n))
    last_scores = np.zeros(n)
    for _ in range(cfg.n_iters):
        take = min(cfg.sub_dim, d)
        coords = rng.choice(d, size=take, replace=False)
        sub = stack[:, coords]
        centered = sub - sub.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        scores = (centered @ vt[0]) ** 2
        last_scores = scores
        keep = set(np.argsort(scores, kind="stable")[: n - remove].tolist())
        survivors &= keep
    if not survivors:
        survivors = {int(np.argmin(last_scores))}
    return survivors


def fltrust(gradients: Sequence[np.ndarray], root_gradient: np.ndarray) -> np.ndarray:
    """Root-anchored aggregation: clip cosine similarity with the root
    gradient at zero, rescale each update to the root's norm, and average
    by the clipped scores.  All-zero scores fall back to the root."""
    root_norm = float(np.linalg.norm(root_gradient))
    if root_norm <= 0:
        raise ValueError("root gradient must be nonzero")
    stack = np.asarray(gradients, dtype=np.float64)
    norms = np.linalg.norm(stack, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    cosines = (stack @ root_gradient) / (safe * root_norm)
    scores = np.maximum(cosines, 0.0)
    scores = np.where(norms > 0, scores, 0.0)
    total = float(scores.sum())
    if total <= 0.0:
        return root_gradient.copy()
    rescaled = stack * (root_norm / safe)[:, None]
    return (rescaled * scores[:, None]).sum(axis=0) / total
