"""Fixed-point ring: number format, arithmetic and seeded randomness.

Masked gradient shares need arithmetic where a mask added on one side and
subtracted on the other cancels bit-for-bit.  Floating-point addition
rounds, so shares are plain uint64 arrays of two's-complement fixed-point
words, whose arithmetic wraps modulo 2**64; their `scale_bits` travels
beside them.  A value x is encoded as round(x * 2**scale_bits), and adding
a uniformly random ring element hides it information-theoretically.

This module owns the format and every operation on ring words: encoding,
centering, the N * 2**scale_bits reconstruction decode, the weighted sum
(its words carry scale_bits + WEIGHT_BITS) and reassembly.  The servers
only frame messages and step their state machines around these.

Randomness is counter-based (Philox) and derived from a (seed, path) key,
so every actor, round, and purpose gets an independent stream that is
reproducible across runs and platforms.
"""
from __future__ import annotations

import hashlib
import struct
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import (ClientSetMismatch, DimensionMismatch, EncodingOverflow, FormatError,
                     WeightError)

# The largest scale_bits a run admits: `reconstruct_centered`'s one-division
# decode equals decode-then-divide only while scale_bits <= 48.
MAX_SCALE_BITS = 48
# Fractional bits of an encoded aggregation weight.
WEIGHT_BITS = 32
# Bits kept free below the sign bit by the encoding clip: a plain sum of up
# to 2**SUM_HEADROOM_BITS clipped vectors stays inside the ring.  That is not
# a bound on every sum the servers form.  Mean-centring computes
# N*x_i - sum_j(x_j), up to (2N - 2) times the clip bound, which wraps from
# N = 129 on; weighted aggregation adds WEIGHT_BITS fractional bits, so at
# the default scale it wraps once |sum_i tau_i g_i| reaches about 2**15.
SUM_HEADROOM_BITS = 8
# Row loops over (N, d) word or float matrices run in blocks of about this
# many entries (64 KiB): at small d a block holds many rows, so a round makes
# few numpy calls; from d = 4,097 on, each row is a block of its own.
BLOCK_WORDS = 8192

_TWO63 = 2.0**63


def block_rows(d: int, n_rows: int) -> int:
    """Rows per block of an (n_rows, d) matrix: the clients that train and
    mask together, and the rows the servers center and reconstruct per
    call."""
    return max(1, min(n_rows, BLOCK_WORDS // d))


def clip_bound(scale_bits: int) -> float:
    """L-inf clipping bound leaving headroom for sums of many shares."""
    return 2.0 ** (63 - scale_bits - SUM_HEADROOM_BITS)


def clip_for_encoding(values: np.ndarray, scale_bits: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Clamp entries to `clip_bound`, into `out` when given.  Each encoded
    entry then fits the ring with SUM_HEADROOM_BITS to spare; the centred
    and weighted aggregates can still wrap (see SUM_HEADROOM_BITS)."""
    bound = clip_bound(scale_bits)
    return np.clip(values, -bound, bound, out=out)


def encode_fixed(values: np.ndarray, scale_bits: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Encode real entries as two's-complement fixed point: uint64 words
    carrying `scale_bits` fractional bits, written into `out` (uint64, the
    shape of `values`, either disjoint from them or, to encode in place,
    their own words `values.view(np.uint64)`) or fresh, writable words.

    The scaled floats are formed in the words' own memory and each is cast
    in place to the word it becomes, so a one-dimensional `out` allocates
    no temporary.
    Raises EncodingOverflow if any entry is non-finite or out of range (in
    place, an entry whose scaled value overflows reads as non-finite).
    """
    values = np.asarray(values, dtype=np.float64)
    if out is None:
        out = np.empty(values.shape, dtype=np.uint64)
    scaled = out.view(np.float64)
    with np.errstate(over="ignore"):  # an overflow to inf is rejected below
        np.multiply(values, 2.0**scale_bits, out=scaled)
    np.rint(scaled, out=scaled)
    # |x| < 2**(63 - s) exactly when |x * 2**s| < 2**63 (scaling by a power
    # of two is exact), and rint cannot carry such a value up to 2**63
    # (doubles there are 1024 apart).  NaN fails both comparisons.
    if not (scaled.max(initial=0.0) < _TWO63 and scaled.min(initial=0.0) > -_TWO63):
        if not np.all(np.isfinite(values)):
            raise EncodingOverflow("cannot encode non-finite entries")
        raise EncodingOverflow(
            f"entries exceed the representable range at scale_bits={scale_bits}"
        )
    # numpy casts an array onto its own memory as if from a copy; in one
    # dimension it runs element by element and allocates nothing.
    np.copyto(out.view(np.int64), scaled, casting="unsafe")
    return out


def decode_fixed(words: np.ndarray, scale_bits: int) -> np.ndarray:
    """Interpret words as signed fixed point and return real entries."""
    return words.view(np.int64).astype(np.float64) * 2.0 ** (-scale_bits)


def uniform_words(d: int, rng: Generator) -> np.ndarray:
    """d fresh, writable words drawn uniformly over the whole ring.

    The raw 64-bit outputs of the bit generator are the words that
    ``rng.integers(0, 2**64 - 1, endpoint=True, dtype=np.uint64)`` returns,
    and they leave the stream in the same state, but skip its bounds logic.
    """
    return rng.bit_generator.random_raw(d)


def _centering_terms(shares: np.ndarray) -> tuple[np.ndarray, np.uint64]:
    """(wrapping sum of the rows, N as a word) of an (N, d) share matrix."""
    if shares.shape[0] < 2:
        raise ValueError("mean-centering needs at least two shares")
    return shares.sum(axis=0), np.uint64(shares.shape[0])  # the sum wraps mod 2**64


def mean_center(shares: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Center each row of an (N, d) share matrix against the population
    mean, scaled by N, into the matching row of `out` (writable (N, d)
    uint64 rows, such as a CenteredBatch's words), and return `out`.

    Row k becomes N * shares[k] - sum_j(shares[j]) in exact ring
    arithmetic.  The scaling postpones the division by N to
    reconstruction, where it applies to the combined (mask-free) value, so
    centering never rounds.  The rows are formed `block_rows` at a time,
    two ufunc calls per block.
    """
    total, factor = _centering_terms(shares)
    n, d = shares.shape
    k = block_rows(d, n)
    for lo in range(0, n, k):
        rows = out[lo:lo + k]
        np.multiply(shares[lo:lo + k], factor, out=rows)
        np.subtract(rows, total, out=rows)
    return out


def reconstruct_centered(centered_1: np.ndarray, shares_2: np.ndarray,
                         scale_bits: int, out: np.ndarray) -> np.ndarray:
    """Real centered gradients written into `out` (float64, the shape of
    shares_2), row k for the client of shares_2[k].

    `centered_1` holds S1's centered rows (as sent in the CenteredBatch),
    and `out` may overlay that batch's payload (ServerS2 decodes in place):
    the rows go in blocks of K = `block_rows`, and block [lo, hi) of
    centered_1 is read before the same block of `out` is written.  S2's
    rows of a block are centered in one reused (K, d) scratch, added to
    S1's rows, which cancels the random shares exactly, then decoded and
    divided by N (the residual scaling of `mean_center`) in one division
    by N * 2**scale_bits.  That equals decode_fixed(x, s) / N bit for bit:
    N * 2**s is exact (N < 2**53), and so is float(x) * 2**-s, which for
    |x| >= 1 and s <= MAX_SCALE_BITS = 48 is at least 2**-48 and cannot be
    subnormal (x = 0 gives +0.0 both ways).  Both forms therefore round
    the same real quotient float(x) / (N * 2**s) once.
    """
    if centered_1.shape[0] != shares_2.shape[0]:
        raise ClientSetMismatch(
            f"{centered_1.shape[0]} centered rows for {shares_2.shape[0]} shares")
    if centered_1.shape != shares_2.shape:
        raise DimensionMismatch(f"dimension {centered_1.shape[1]} != {shares_2.shape[1]}")
    total, factor = _centering_terms(shares_2)
    n, d = shares_2.shape
    divisor = n * 2.0**scale_bits
    k = block_rows(d, n)
    scratch = np.empty((k, d), dtype=np.uint64)
    for lo in range(0, n, k):
        rows = scratch[:min(k, n - lo)]
        np.multiply(shares_2[lo:lo + k], factor, out=rows)
        np.subtract(rows, total, out=rows)
        np.add(rows, centered_1[lo:lo + k], out=rows)
        np.divide(rows.view(np.int64), divisor, out=out[lo:lo + k])
    return out


def partial_aggregate(shares: np.ndarray, weights: Sequence[float],
                      scale_bits: int) -> tuple[np.ndarray, int]:
    """(words, scale_bits) of the trust-weighted ring combination of one
    server's (N, d) share matrix at `scale_bits`, weights[k] for row k.

    Weights are encoded at WEIGHT_BITS fractional bits, so the words carry
    scale_bits + WEIGHT_BITS; only the two-server sum of these partials
    decodes to a meaningful value when shares are masked.
    """
    vals = np.asarray(weights, dtype=np.float64)
    if vals.shape != shares.shape[:1]:
        raise WeightError(f"{vals.size} weights for {shares.shape[0]} shares")
    if not np.all(np.isfinite(vals)):
        raise WeightError("non-finite aggregation weight")
    if np.any(vals < 0):
        raise WeightError("negative aggregation weight")
    if abs(vals.sum() - 1.0) > 1e-9:
        raise WeightError(f"weights sum to {vals.sum()}, expected 1")
    fixed = np.rint(vals * 2.0**WEIGHT_BITS).astype(np.uint64)
    # Wrapping uint64 multiply-accumulate, allocating only the result.
    return np.einsum("k,kd->d", fixed, shares), scale_bits + WEIGHT_BITS


def reassemble_global(a1: np.ndarray, a2: np.ndarray, scale_bits: int) -> np.ndarray:
    """Combine the two partial aggregates, which carry `scale_bits`
    fractional bits, and decode the weighted gradient."""
    return decode_fixed(np.add(a1, a2), scale_bits)


# Serialization: (d: uint32, scale_bits: uint8) header, then little-endian
# uint64 words.  Used verbatim by the transport and the ledger.
RING_HEADER = struct.Struct("<IB")


def serialize_ring(words: np.ndarray, scale_bits: int) -> bytes:
    return b"".join((RING_HEADER.pack(len(words), scale_bits),
                     np.ascontiguousarray(words, dtype="<u8")))


def ring_view(buf, offset: int = 0) -> tuple[np.ndarray, int]:
    """(words, scale_bits) of the serialized ring that fills `buf` from
    `offset` to its end; the words are a read-only view into `buf`, not a
    copy."""
    if len(buf) - offset < RING_HEADER.size:
        raise FormatError("ring payload shorter than its header")
    d, scale_bits = RING_HEADER.unpack_from(buf, offset)
    body = len(buf) - offset - RING_HEADER.size
    if body != 8 * d:
        raise FormatError(f"expected {8 * d} word bytes, got {body}")
    words = np.frombuffer(buf, dtype="<u8", count=d, offset=offset + RING_HEADER.size)
    words.setflags(write=False)
    return words, scale_bits


def _stream_key(seed: int, *path: int | str) -> int:
    """128-bit Philox key of (seed, path): the head of a SHA-256 digest of
    the seed and the type-tagged path elements."""
    parts = [struct.pack("<q", seed)]
    for part in path:
        parts += ((b"s", part.encode("utf-8"), b"\x00") if isinstance(part, str)
                  else (b"i", struct.pack("<q", part)))
    return int.from_bytes(hashlib.sha256(b"".join(parts)).digest()[:16], "little")


def substream(seed: int, *path: int | str) -> Generator:
    """Independent reproducible generator keyed by (seed, path): distinct
    paths never share state, and the stream is identical across platforms."""
    return Generator(Philox(key=_stream_key(seed, *path)))


def rekey(rng: Generator, seed: int, *path: int | str) -> Generator:
    """Set `rng`, a Philox generator, to the start of the (seed, path)
    stream (that key, counter 0, no buffered word or half word; a Generator
    keeps no state of its own) and return it: the state `substream` starts
    in.  Re-keying one is several times cheaper than building a fresh one,
    so per-client loops reuse one."""
    key = _stream_key(seed, *path)
    state = {"counter": (0, 0, 0, 0), "key": (key % 2**64, key >> 64)}
    rng.bit_generator.state = {"bit_generator": "Philox", "state": state, "buffer": (0, 0, 0, 0),
                               "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng
