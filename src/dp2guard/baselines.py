"""Plaintext reference aggregators: FedAvg, Multi-Krum, DnC, and FLTrust."""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import TooFewClients


@dataclass(frozen=True)
class DnCConfig:
    n_iters: int = 1
    sub_dim: int = 1000
    # dnc_survivors removes ceil(filter_frac * assumed_malicious) clients.
    filter_frac: float = 1.5
    assumed_malicious: int = 1


@dataclass(frozen=True, eq=False)
class Population:
    """The N rows a rule aggregates: the `honest` rows (n_honest, d) plus
    n_copies copies of the one `crafted` d-vector that every full-knowledge
    attacker submits, placed before the honest rows (`copies_first`, the
    round's order: attackers hold the lowest ids) or after them (the fang
    oracle's).  Without copies it is `honest` itself.

    The rules read it as they read an (N, d) array, without the copies
    ever being written: `pop[i]` is row i, `pop[:, coords]` the columns
    `coords` of every row, and `np.asarray(pop)` the stacked rows (fresh
    when there are copies)."""
    honest: np.ndarray
    crafted: np.ndarray | None = None
    n_copies: int = 0
    copies_first: bool = True

    def __len__(self) -> int:
        return len(self.honest) + self.n_copies

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.honest.shape[1]

    def join(self, honest_part: np.ndarray, copy_part) -> np.ndarray:
        """Per-row parts in population order: `honest_part`, one entry per
        honest row, and `copy_part`, each copy's entry, repeated n_copies
        times.  Without copies, `honest_part` itself."""
        if not self.n_copies:
            return honest_part
        copy_part = np.asarray(copy_part)
        copies = np.broadcast_to(copy_part, (self.n_copies, *copy_part.shape))
        return np.concatenate((copies, honest_part) if self.copies_first
                              else (honest_part, copies))

    def __getitem__(self, key) -> np.ndarray:
        if isinstance(key, tuple):
            rows, coords = key
            if rows != slice(None):
                raise IndexError("a population selects columns of every row only")
            return self.join(self.honest[:, coords], self.crafted[coords] if self.n_copies
                             else None)
        i = operator.index(key)
        if not 0 <= i < len(self):
            raise IndexError(f"row {i} outside a population of {len(self)}")
        first = self.n_copies if self.copies_first else 0
        if first <= i < first + len(self.honest):
            return self.honest[i - first]
        return self.crafted

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if not self.n_copies:
            return np.array(self.honest, dtype=dtype, copy=copy)
        if copy is False:
            raise ValueError("a population with copies has no stack to view")
        stack = self.join(self.honest, self.crafted)
        return stack if dtype is None else stack.astype(dtype, copy=False)

    def blocks(self, k: int) -> Iterator[np.ndarray]:
        """Consecutive row blocks of at most k rows in population order, no
        block holding both kinds: each copy block a read-only broadcast
        view of `crafted`, each honest block a view of `honest`."""
        d = self.honest.shape[1]
        copies = (np.broadcast_to(self.crafted, (min(k, self.n_copies - lo), d))
                  for lo in range(0, self.n_copies, k))
        honest = (self.honest[lo:lo + k] for lo in range(0, len(self.honest), k))
        return itertools.chain(*((copies, honest) if self.copies_first else (honest, copies)))


def fedavg(gradients: Sequence[np.ndarray] | Population) -> np.ndarray:
    """Uniform mean of the gradients, added row by row (`kept_mean`)."""
    return kept_mean(gradients, range(len(gradients)))


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


def kept_mean(stack: np.ndarray | Population, kept: Sequence[int]) -> np.ndarray:
    """Mean of the rows `kept` of `stack` (an (N, d) array, a sequence of
    rows or a Population), added in the given order into one d-vector.

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


def dnc_survivors(stack: np.ndarray | Population, cfg: DnCConfig,
                  rng: np.random.Generator) -> set[int]:
    """Indices of `stack` (an (N, d) array or a Population) kept by the
    spectral filter: each iteration scores clients by squared projection
    onto the top singular direction of a centered coordinate subsample and
    drops the highest scorers; the surviving sets intersect.  An empty
    intersection falls back to the lowest scorer."""
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


def fltrust(gradients: Sequence[np.ndarray] | Population,
            root_gradient: np.ndarray) -> np.ndarray:
    """Root-anchored aggregation: clip cosine similarity with the root
    gradient at zero, rescale each update to the root's norm, and average
    by the clipped scores.  All-zero scores fall back to the root.

    Beside the (N, d) stack, which a Population with copies builds once,
    it allocates one (N, d) array at a time: the rows' squares for their
    norms, then the rescaled rows, weighted in place."""
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
    rescaled *= scores[:, None]
    return rescaled.sum(axis=0) / total
