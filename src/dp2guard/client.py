"""Client-side protocol: local training, gradient splitting, and masking.

A client's gradient is encoded into the fixed-point ring and split into two
additive shares: one uniformly random word vector u, and its complement
encoded - u.  Either share alone is uniform over the ring; their wrapping
sum (np.add) reconstructs the encoded gradient exactly.

Both steps take a block of K clients at once, row k for the k-th client,
each drawing from its own generator: a block's equal-sized minibatches
train in one stacked model call, and the block is clipped and encoded in
one pass before each row's mask is drawn.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import models
from .data import Dataset
from .numeric import clip_for_encoding, encode_fixed, uniform_words


def split_and_mask(grads: np.ndarray, scale_bits: int,
                   rngs: np.random.Generator | Iterable[np.random.Generator],
                   out: tuple | None = None) -> tuple:
    """Split encoded gradients into two additive uint64 shares, each
    uniform over the ring on its own, written into `out` or fresh arrays.

    `grads` is one gradient (d,) masked from the generator `rngs`, or a
    block of K clients' gradients (K, d), row k masked from the k-th
    generator `rngs` yields (each client's own stream; each is used up
    before the next is drawn, so they may be one generator re-keyed).
    `out` is (share 1, share 2): word arrays of grads' shape, or for a
    block, two sequences of K word rows (the round loop passes the words
    of each client's two ShareUpload payloads).

    Draws exactly one word per entry from each row's generator.  np.add of
    the shares always equals the encode-quantized gradient, whatever the
    generators produced.  `grads` is only read.  The block is clipped and
    encoded in one pass, through share 1's words when it is one row (they
    take the draw once share 2 is formed), else through one (K, d) scratch
    block; the rest it allocates is each row's draw.
    """
    if out is None:
        out = (np.empty(grads.shape, dtype=np.uint64), np.empty(grads.shape, dtype=np.uint64))
    if grads.ndim == 1:
        _mask_block(grads[None], scale_bits, (rngs,), (out[0][None], out[1][None]))
    else:
        _mask_block(grads, scale_bits, rngs, out)
    return out


def _mask_block(grads: np.ndarray, scale_bits: int,
                rngs: Iterable[np.random.Generator], out: tuple) -> None:
    share1, share2 = out
    k, d = grads.shape
    # One clip and one in-place encode over the block's words laid flat:
    # numpy casts a 1-D array onto its own memory element by element, but
    # copies a 2-D one first.
    words = share1[0] if k == 1 else np.empty(k * d, dtype=np.uint64)
    encode_fixed(clip_for_encoding(grads.reshape(-1), scale_bits, out=words.view(np.float64)),
                 scale_bits, out=words)
    # Share 1 is one uniform word per entry, which alone hides the entry;
    # share 2 is its complement encoded - share 1 in the ring.  Share 1 is
    # then formed as encoded - share 2, which is the draw exactly, so the
    # draw is freed at once and a lone row's encoded words may be share 1's.
    for encoded, rng, words1, words2 in zip(words.reshape(k, d), rngs, share1, share2,
                                            strict=True):
        np.subtract(encoded, uniform_words(d, rng), out=words2)
        np.subtract(encoded, words2, out=words1)


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


def batch_gradients(model: models.Model, params: np.ndarray, datasets: Sequence[Dataset],
                    batch_size: int, rngs: Iterable[np.random.Generator],
                    out: np.ndarray) -> np.ndarray:
    """Gradient of one uniformly sampled minibatch per client, row k of
    `out` (K, d) for datasets[k], whose batch the k-th generator `rngs`
    yields draws.

    The clients whose batches hold batch_size rows train in one stacked
    `Model.grad` call; a client with fewer rows trains in a call of its own."""
    batches = [rng.choice(len(dataset), size=min(batch_size, len(dataset)), replace=False)
               for dataset, rng in zip(datasets, rngs, strict=True)]
    full = []
    for k, (dataset, batch) in enumerate(zip(datasets, batches)):
        if len(batch) == batch_size:
            full.append(k)
        else:
            model.grad(params, dataset.features[batch], dataset.labels[batch], out[k])
    if not full:
        return out
    features = np.empty((len(full), batch_size, model.n_features))
    labels = np.empty((len(full), batch_size), dtype=datasets[full[0]].labels.dtype)
    for j, k in enumerate(full):
        # The indices are in range by construction; "clip" spares take's
        # buffered copy of the "raise" mode.  The arrays' own `take` skips
        # the np.take wrapper.
        datasets[k].features.take(batches[k], axis=0, out=features[j], mode="clip")
        datasets[k].labels.take(batches[k], out=labels[j], mode="clip")
    if len(full) == len(out):
        return model.grad(params, features, labels, out)
    out[full] = model.grad(params, features, labels)
    return out


def local_gradient(datasets: Dataset | Sequence[Dataset], model: models.Model,
                   params: np.ndarray, mode: str, batch_size: int, eta: float,
                   rngs: np.random.Generator | Iterable[np.random.Generator],
                   out: np.ndarray | None = None) -> np.ndarray:
    """The plaintext gradients a block of K clients would submit this round,
    row k of `out` ((K, dim) float64 rows, each contiguous) for
    datasets[k], trained from the k-th generator `rngs` yields: each
    client's own stream, used up before the next is drawn, so they may be
    one generator re-keyed.  One Dataset with one generator gives one
    gradient, into a dim-vector `out`.

    Honest clients (and label-flip clients, whose datasets were poisoned at
    setup) train locally; full-knowledge attacks are crafted by the caller
    and never reach this path.  Batch mode trains the block's equal-sized
    minibatches in one model call; epoch mode, whose step counts differ
    between clients, trains client by client.
    """
    if isinstance(datasets, Dataset):
        out = np.empty(model.dim) if out is None else out
        local_gradient([datasets], model, params, mode, batch_size, eta, (rngs,), out[None])
        return out
    if out is None:
        out = np.empty((len(datasets), model.dim))
    if mode == "epoch":
        for dataset, rng, row in zip(datasets, rngs, out, strict=True):
            epoch_gradient(model, params, dataset, batch_size, eta, rng, row)
        return out
    if mode == "batch":
        return batch_gradients(model, params, datasets, batch_size, rngs, out)
    raise ValueError(f"unknown local mode {mode!r}")
