"""Dataset loading (with the search for the IDX files), synthesis, and client
partitioning (IID / Dirichlet)."""
from __future__ import annotations

import gzip
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CountMismatch, EmptyClientError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Immutable sample collection: features (n, p) and integer labels (n,)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise CountMismatch(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise FormatError("labels outside [0, n_classes)")
        if not _all_finite(self.features):
            raise FormatError("non-finite feature values")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The rows at `indices` (an integer array), copied once: fancy
        indexing already returns new arrays."""
        return Dataset(self.features[indices], self.labels[indices], self.n_classes)

    def head(self, n: int) -> "Dataset":
        return self.subset(np.arange(min(n, len(self))))


def _all_finite(features: np.ndarray) -> bool:
    """Whether every entry is finite, without an elementwise mask when
    possible: a finite sum proves every entry finite (one NaN or inf makes
    any sum NaN or inf), and only a sum that is not finite, which finite
    entries can still reach by overflow, falls back to the entrywise
    check."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = features.sum()
    return bool(np.isfinite(total)) or bool(np.all(np.isfinite(features)))


def partition(dataset: Dataset, n_clients: int, mode: str = "iid",
              alpha: float = 0.5, *, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Split sample indices across clients: disjoint sorted index arrays,
    entry k for client k.

    "iid" shuffles uniformly and deals near-equal chunks.  "dirichlet" draws
    each class's mass across clients from Dirichlet(alpha, ..., alpha), so
    small alpha skews per-client class histograms.  Degenerate draws that
    leave a client empty are resampled up to 100 times.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if len(dataset) < n_clients:
        raise EmptyClientError(f"{len(dataset)} samples cannot cover {n_clients} clients")

    if mode == "iid":
        order = rng.permutation(len(dataset))
        sizes = np.full(n_clients, len(dataset) // n_clients)
        sizes[: len(dataset) % n_clients] += 1
        splits = np.split(order, np.cumsum(sizes)[:-1])
        return tuple(np.sort(s) for s in splits)

    if mode != "dirichlet":
        raise ValueError(f"unknown partition mode {mode!r}")
    if alpha <= 0:
        raise ValueError("dirichlet alpha must be positive")

    for _ in range(100):
        buckets: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
        for cls in range(dataset.n_classes):
            idx = np.flatnonzero(dataset.labels == cls)
            if len(idx) == 0:
                continue
            idx = rng.permutation(idx)
            props = rng.dirichlet(np.full(n_clients, alpha))
            cuts = (np.cumsum(props)[:-1] * len(idx)).round().astype(int)
            for client, chunk in enumerate(np.split(idx, cuts)):
                buckets[client].append(chunk)
        sizes = [sum(len(c) for c in chunks) for chunks in buckets]
        if min(sizes) >= 1:
            return tuple(np.sort(np.concatenate(chunks)) for chunks in buckets)
    raise EmptyClientError("dirichlet partition left a client empty after 100 draws")


def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Parse a big-endian IDX image/label pair (plain or gzipped).

    Pixels are scaled to [0, 1] and images flattened row-major.  The one
    float64 copy is scaled in place, so the pixel bytes and that copy are
    all a load holds.
    """
    images = _read_idx_payload(images_path, IDX_IMAGES_MAGIC, ndim=3)
    labels = _read_idx_payload(labels_path, IDX_LABELS_MAGIC, ndim=1)
    if images.shape[0] != labels.shape[0]:
        raise CountMismatch(f"{images.shape[0]} images vs {labels.shape[0]} labels")
    features = images.reshape(images.shape[0], -1).astype(np.float64)
    del images
    features /= 255.0
    return Dataset(features, labels.astype(np.int64), n_classes=10)


def load_idx_splits(data_dir: str | None, dataset: str) -> tuple[Dataset, Dataset]:
    """The training and test splits of an IDX dataset ("train" and "t10k"
    files), from the directory `resolve_data_dir` finds."""
    base = resolve_data_dir(data_dir, dataset)
    return tuple(load_idx(_idx_file(base, f"{split}-images-idx3-ubyte"),
                          _idx_file(base, f"{split}-labels-idx1-ubyte"))
                 for split in ("train", "t10k"))


def resolve_data_dir(data_dir: str | None, dataset: str) -> Path:
    """Locate the IDX files: explicit config, then DP2GUARD_DATA_DIR, then
    ./data/<dataset>."""
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


def _read_idx_payload(path: str | Path, want_magic: int, ndim: int) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    if len(raw) < 4 * (1 + ndim):
        raise FormatError(f"{path}: header truncated")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != want_magic:
        raise FormatError(f"{path}: magic 0x{magic:08x}, expected 0x{want_magic:08x}")
    dims = struct.unpack(f">{ndim}I", raw[4:4 + 4 * ndim])
    offset = 4 + 4 * ndim
    count = math.prod(dims)  # exact: np.prod wraps in int64
    if len(raw) - offset != count:
        raise FormatError(f"{path}: payload has {len(raw) - offset} bytes, header says {count}")
    return np.frombuffer(raw, dtype=np.uint8, offset=offset).reshape(dims)


def synth_dataset(n: int, p: int, n_classes: int, separation: float,
                  rng: np.random.Generator) -> Dataset:
    """Gaussian class blobs with unit noise: class c's center lies
    `separation` from the origin along axis c mod p.

    Each feature is center + noise, formed in the noise draw: the offset
    entry gets noise + separation, the rest noise + 0.0, which turns a -0.0
    draw into +0.0 exactly as adding a zero center does.
    """
    if min(n, p, n_classes) < 1:
        raise ValueError("n, p, n_classes must all be positive")
    labels = rng.integers(0, n_classes, size=n)
    features = rng.standard_normal((n, p))
    rows, cols = np.arange(n), labels % p
    offset = features[rows, cols] + separation
    features += 0.0
    features[rows, cols] = offset
    return Dataset(features, labels.astype(np.int64), n_classes)

