"""Hybrid anomaly detection over centered gradients.

Each row of the (N, d) matrix (one client's gradient) gets a
two-dimensional feature: the squared projection onto the population's top
singular direction (outlier energy) and the median cosine similarity
against all other rows (directional consistency).  2-means over z-scored
features splits the population; the larger cluster is taken as benign.
Results name rows by index; the caller maps them to client ids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError

_ZERO_NORM = 1e-12


@dataclass(frozen=True)
class DetectionResult:
    """Benign row indices, the (N, 2) features (row k holds row k's
    spectral and cosine feature), and the benign cluster centroid in raw
    feature space."""

    benign: frozenset[int]
    features: np.ndarray
    centroid: np.ndarray


def _gram(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 (N, d) rows and their N x N Gram matrix rows @ rows.T
    (one BLAS-3 call, exactly symmetric)."""
    rows = np.asarray(matrix, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise DegenerateError("need a matrix of at least two rows")
    return rows, rows @ rows.T


def _top_eigenpair(gram: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the Gram matrix (the squared top singular value
    of the rows) and its unit eigenvector."""
    if float(np.sqrt(np.trace(gram))) < _ZERO_NORM:
        raise DegenerateError("matrix is numerically zero")
    eigvals, eigvecs = np.linalg.eigh(gram)
    if float(np.sqrt(max(eigvals[-1], 0.0))) < _ZERO_NORM:
        raise DegenerateError("leading singular value is numerically zero")
    return float(eigvals[-1]), eigvecs[:, -1]


def _median_cosines(gram: np.ndarray) -> np.ndarray:
    """Per-row median of gram[i, j] / (n_i * n_j) over j != i, with
    n_i = sqrt(gram[i, i]); zero rows score 0 and enter other rows'
    medians as 0.

    The median is taken with np.partition: the middle element of the n - 1
    others, or (a + b) / 2.0 of the two middle ones, which is what
    np.median returns bit for bit on finite input (and np.median would
    import numpy.ma on first use).  The Gram is finite: detection forms it
    from decoded ring integers.
    """
    n = gram.shape[0]
    norms = np.sqrt(np.diagonal(gram))
    zero = norms <= _ZERO_NORM
    safe = np.where(zero, 1.0, norms)
    cos = gram / (safe[:, None] * safe[None, :])
    cos[zero, :] = 0.0
    cos[:, zero] = 0.0
    others = cos[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    half = (n - 1) // 2
    if (n - 1) % 2:
        return np.partition(others, half, axis=1)[:, half]
    part = np.partition(others, (half - 1, half), axis=1)
    return (part[:, half - 1] + part[:, half]) / 2.0


def top_direction(matrix: np.ndarray) -> np.ndarray:
    """Top right singular vector of the (N, d) row matrix.

    Computed from the N x N Gram matrix (N is far below d here), with the
    sign fixed so the largest-magnitude entry is positive.
    """
    rows, gram = _gram(matrix)
    _, e = _top_eigenpair(gram)
    v = rows.T @ e
    v = v / float(np.linalg.norm(v))
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return v


def median_cosines(matrix: np.ndarray) -> np.ndarray:
    """Per-row median cosine similarity against all other rows.

    Every cosine is gram[i, j] / (n_i * n_j) from the Gram matrix
    rows @ rows.T, with n_i = sqrt(gram[i, i]); this is how `detect`
    computes the cosine feature.  BLAS-3 sums each dot product in another
    order than a scalar ``gi @ gj``, so at realistic widths a cosine may
    differ from the scalar pairwise value in the last bits (each dot
    product's rounding error is below d * eps * |gi| * |gj|); tests bound
    the gap.

    Zero rows carry no direction: they score 0 and contribute 0 to other
    rows' medians.
    """
    return _median_cosines(_gram(matrix)[1])


def cluster_and_select(features: np.ndarray,
                       rng: np.random.Generator) -> DetectionResult:
    """Split the rows of the (N, 2) feature array into two clusters over
    z-scored features and keep the larger cluster as benign (ties go to the
    higher mean cosine).

    The reported centroid is the benign cluster's mean in raw feature space.
    """
    raw = np.asarray(features, dtype=np.float64)
    n = raw.shape[0]

    spread = raw.max(axis=0) - raw.min(axis=0)
    if n < 2 or float(spread.max(initial=0.0)) < _ZERO_NORM:
        # No separation to exploit: everyone is benign.
        return DetectionResult(frozenset(range(n)), raw, raw.mean(axis=0))

    # Statistics over a value-sorted copy so they are independent of the
    # row ordering.
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
    return DetectionResult(frozenset(np.flatnonzero(benign_mask).tolist()), raw, centroid)


def sketch(dim: int, rng: np.random.Generator,
           projection_dim: int | None) -> np.ndarray | None:
    """The seeded Gaussian projection P / sqrt(k), of shape (dim, k) with
    k = projection_dim, drawn from `rng`; None (and nothing drawn) when no
    sketch applies, that is when k is None or not below dim."""
    if projection_dim is None or projection_dim >= dim:
        return None
    return rng.standard_normal((dim, projection_dim)) / np.sqrt(projection_dim)


def detect(centered: np.ndarray, rng: np.random.Generator,
           projection_dim: int | None = None) -> DetectionResult:
    """Full detection pass: features from the (N, d) matrix of centered
    gradients, then clustering.  `projection_dim` optionally sketches the
    gradients onto a seeded Gaussian projection first (for very large d;
    off by default)."""
    matrix = np.asarray(centered, dtype=np.float64)
    proj = sketch(matrix.shape[1], rng, projection_dim)
    if proj is not None:
        matrix = matrix @ proj
    return detect_gram(_gram(matrix)[1], rng)


def detect_gram(gram: np.ndarray, rng: np.random.Generator) -> DetectionResult:
    """Features and clustering from the N x N Gram matrix G = M M^T of the
    centered (and possibly sketched) rows M.  `rng` feeds the 2-means
    seeding only.

    Both features come from G: with (lam, e) its top eigenpair, row i
    projects onto the top right singular vector M^T e / sqrt(lam) as
    sqrt(lam) * e_i, and the cosines are G_ij / sqrt(G_ii G_jj)."""
    lam, e = _top_eigenpair(gram)
    return cluster_and_select(np.column_stack((lam * e**2, _median_cosines(gram))), rng)


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
