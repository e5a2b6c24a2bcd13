"""Hybrid anomaly detection over centered gradients.

Each client gets a two-dimensional feature: the squared projection onto the
population's top singular direction (outlier energy) and the median cosine
similarity against all other clients (directional consistency).  2-means
over z-scored features splits the population; the larger cluster is taken
as benign.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateError

_ZERO_NORM = 1e-12


@dataclass(frozen=True)
class DetectionResult:
    """Benign client ids, per-client (spectral, cosine) features, and the
    benign cluster centroid in raw feature space."""

    benign: frozenset[int]
    features: dict[int, np.ndarray]
    centroid: np.ndarray


def top_direction(matrix: np.ndarray) -> np.ndarray:
    """Top right singular vector of the (N, d) row matrix.

    Computed from the N x N Gram matrix (N is far below d here), with the
    sign fixed so the largest-magnitude entry is positive.
    """
    rows = np.asarray(matrix, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise DegenerateError("need a matrix of at least two rows")
    if float(np.linalg.norm(rows)) < _ZERO_NORM:
        raise DegenerateError("matrix is numerically zero")
    gram = rows @ rows.T
    _, eigvecs = np.linalg.eigh(gram)
    v = rows.T @ eigvecs[:, -1]
    norm = float(np.linalg.norm(v))
    if norm < _ZERO_NORM:
        raise DegenerateError("leading singular value is numerically zero")
    v = v / norm
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return v


def spectral_scores(matrix: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Squared projection of every row onto the unit direction."""
    return (np.asarray(matrix) @ direction) ** 2


def median_cosines(matrix: np.ndarray) -> np.ndarray:
    """Per-row median cosine similarity against all other rows.

    Each pair is computed as dot / (norm * norm), and every dot product
    (norms included) is one BLAS ``ddot`` over a single pair of rows, the
    same kernel that scalar ``gi @ gj`` and ``np.linalg.norm`` call.  The
    result is therefore bit-equal to a scalar pairwise evaluation, so
    ``detection.csv`` does not depend on how the pairs are batched.  Keep
    the per-row-pair ``np.vecdot`` form: the matrix-vector product
    ``rows[i+1:] @ rows[i]`` and the Gram matrix ``rows @ rows.T`` sum in
    another order and differ in the last bits at realistic shapes such as
    50 x 7850.  The Gram form still matches at 6 x 4, so only tests at
    realistic shapes catch it.

    Zero rows carry no direction: they score 0 and contribute 0 to other
    rows' medians.
    """
    rows = np.asarray(matrix, dtype=np.float64)
    n = rows.shape[0]
    norms = np.sqrt(np.vecdot(rows, rows))
    zero = norms <= _ZERO_NORM
    safe = np.where(zero, 1.0, norms)
    cos = np.zeros((n, n))
    for i in range(n - 1):
        if zero[i]:
            continue
        value = np.vecdot(rows[i + 1:], rows[i]) / (safe[i] * safe[i + 1:])
        value[zero[i + 1:]] = 0.0
        cos[i, i + 1:] = value
        cos[i + 1:, i] = value
    others = cos[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    out = np.median(others, axis=1)
    out[zero] = 0.0
    return out


def cluster_and_select(features: Mapping[int, np.ndarray],
                       rng: np.random.Generator) -> DetectionResult:
    """Split clients into two clusters over z-scored features and keep the
    larger cluster as benign (ties go to the higher mean cosine).

    The reported centroid is the benign cluster's mean in raw feature space.
    """
    ids = sorted(features)
    raw = np.stack([np.asarray(features[i], dtype=np.float64) for i in ids])
    n = raw.shape[0]

    spread = raw.max(axis=0) - raw.min(axis=0)
    if n < 2 or float(spread.max(initial=0.0)) < _ZERO_NORM:
        # No separation to exploit: everyone is benign.
        centroid = raw.mean(axis=0)
        return DetectionResult(frozenset(ids), {i: raw[k] for k, i in enumerate(ids)},
                               centroid)

    # Statistics over a value-sorted copy so they are independent of the
    # client ordering.
    stats_view = raw[np.lexsort((raw[:, 1], raw[:, 0]))]
    mu = stats_view.mean(axis=0)
    sigma = stats_view.std(axis=0)
    sigma = np.where(sigma < _ZERO_NORM, 1.0, sigma)
    normed = (raw - mu) / sigma

    labels = _two_means(normed, rng)
    size0, size1 = int(np.sum(labels == 0)), int(np.sum(labels == 1))
    if size0 != size1:
        benign_label = 0 if size0 > size1 else 1
    else:
        mean_c0 = raw[labels == 0, 1].mean()
        mean_c1 = raw[labels == 1, 1].mean()
        benign_label = 0 if mean_c0 >= mean_c1 else 1

    benign_mask = labels == benign_label
    centroid = raw[benign_mask].mean(axis=0)
    benign_ids = frozenset(ids[k] for k in range(n) if benign_mask[k])
    return DetectionResult(benign_ids, {i: raw[k] for k, i in enumerate(ids)}, centroid)


def detect(centered: np.ndarray, rng: np.random.Generator,
           projection_dim: int | None = None,
           ids: Sequence[int] | None = None) -> DetectionResult:
    """Full detection pass: features from the (N, d) matrix of centered
    gradients, then clustering.  Row k belongs to client ids[k]; ids must
    ascend and default to 0..N-1.  `projection_dim` optionally sketches the
    gradients onto a seeded Gaussian projection first (for very large d;
    off by default)."""
    matrix = np.asarray(centered, dtype=np.float64)
    ids = list(range(matrix.shape[0])) if ids is None else list(ids)
    if len(ids) != matrix.shape[0] or any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError("ids must ascend and name every row")
    if projection_dim is not None and projection_dim < matrix.shape[1]:
        proj = rng.standard_normal((matrix.shape[1], projection_dim))
        matrix = matrix @ (proj / np.sqrt(projection_dim))
    direction = top_direction(matrix)
    s = spectral_scores(matrix, direction)
    c = median_cosines(matrix)
    features = {cid: np.array([s[k], c[k]]) for k, cid in enumerate(ids)}
    return cluster_and_select(features, rng)


def _two_means(points: np.ndarray, rng: np.random.Generator,
               max_iter: int = 100) -> np.ndarray:
    """Deterministic seeded 2-means: ++-style seeding, ties to the lower
    centroid index, stop when assignments stabilize.

    Seeding indexes into a value-sorted view of the points, so the result
    is equivariant under permutations of the input order.
    """
    n = points.shape[0]
    canonical = np.lexsort((points[:, 1], points[:, 0]))
    ordered = points[canonical]
    first = int(rng.integers(0, n))
    d2 = ((ordered - ordered[first]) ** 2).sum(axis=1)
    total = float(d2.sum())
    if total <= 0.0:
        return np.zeros(n, dtype=int)
    second = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
    second = min(second, n - 1)
    centers = np.stack([ordered[first], ordered[second]])

    labels: np.ndarray | None = None
    for _ in range(max_iter):
        dists = ((ordered[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dists, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(2):
            members = ordered[labels == k]
            if len(members):
                centers[k] = members.mean(axis=0)
    assert labels is not None
    out = np.empty(n, dtype=int)
    out[canonical] = labels
    return out
