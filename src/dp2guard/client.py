"""Client-side protocol: local training, gradient splitting, and masking.

A client's gradient is encoded into the fixed-point ring and split into two
additive shares: one uniformly random word vector u, and its complement
encoded - u.  Either share alone is uniform over the ring; their wrapping
sum (np.add) reconstructs the encoded gradient exactly.
"""
from __future__ import annotations

import numpy as np

from . import models
from .data import Dataset
from .numeric import clip_for_encoding, encode_fixed, uniform_words


def split_and_mask(grad: np.ndarray, scale_bits: int, rng: np.random.Generator,
                   out: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Split an encoded gradient into two additive uint64 shares, each
    uniform over the ring on its own, written into `out` (the round loop
    passes the words of its two ShareUpload payloads) or fresh arrays.

    Draws exactly one word per entry from `rng`.  np.add of the shares
    always equals the encode-quantized gradient, whatever the rng produced.
    Into `out`, the only array it allocates is the rng's draw.
    """
    if out is None:
        out = (np.empty(len(grad), dtype=np.uint64), np.empty(len(grad), dtype=np.uint64))
    share1, share2 = out
    # Share 1's words hold the clipped floats until they are encoded into
    # share 2.
    encode_fixed(clip_for_encoding(grad, scale_bits, out=share1.view(np.float64)),
                 scale_bits, out=share2)
    # Share 1 is one uniform word per entry, which alone hides the entry;
    # share 2 is its complement encoded - share 1 in the ring.
    share1[...] = uniform_words(len(grad), rng)
    np.subtract(share2, share1, out=share2)
    return out


def epoch_gradient(model: models.Model, params: np.ndarray, dataset: Dataset,
                   batch_size: int, eta: float, rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Effective gradient of one local epoch of minibatch SGD.

    Runs the epoch from `params` and returns (start - end) / eta, so the
    server applying one eta-sized step reproduces the local epoch.  The
    working vector, and so the result, is `out` when given.
    """
    order = rng.permutation(len(dataset))
    current = params
    step = np.empty_like(params)
    for lo in range(0, len(order), batch_size):
        batch = order[lo:lo + batch_size]
        model.grad(current, dataset.features[batch], dataset.labels[batch], step)
        step *= eta
        # The first step fills the working vector; later ones update it in
        # place.  Either way each entry is current - eta * g, as in
        # models.sgd_step.
        if current is params:
            current = np.subtract(params, step, out=out)
        else:
            current -= step
    delta = np.subtract(params, current, out=out if current is params else current)
    delta /= eta
    return delta


def batch_gradient(model: models.Model, params: np.ndarray, dataset: Dataset,
                   batch_size: int, rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of a single uniformly sampled minibatch, written into `out`
    when given."""
    take = min(batch_size, len(dataset))
    batch = rng.choice(len(dataset), size=take, replace=False)
    return model.grad(params, dataset.features[batch], dataset.labels[batch], out)


def local_gradient(dataset: Dataset, model: models.Model, params: np.ndarray,
                   mode: str, batch_size: int, eta: float,
                   rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """The plaintext gradient a client would submit this round, written
    into `out` (a contiguous float64 vector of the model's dim) when given.

    Honest clients (and label-flip clients, whose datasets were poisoned at
    setup) train locally; full-knowledge attacks are crafted by the caller
    and never reach this path.
    """
    if mode == "epoch":
        return epoch_gradient(model, params, dataset, batch_size, eta, rng, out)
    if mode == "batch":
        return batch_gradient(model, params, dataset, batch_size, rng, out)
    raise ValueError(f"unknown local mode {mode!r}")
