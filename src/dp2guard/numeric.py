"""Fixed-point ring arithmetic and seeded randomness.

Masked gradient shares need arithmetic where a mask added on one side and
subtracted on the other cancels bit-for-bit.  Floating-point addition
rounds, so shares live as uint64 words holding two's-complement fixed-point
values; all arithmetic wraps modulo 2**64.  A value x is encoded as
round(x * 2**scale_bits), and adding a uniformly random ring element hides
it information-theoretically.

Randomness is counter-based (Philox) and derived from a (seed, path) key,
so every actor, round, and purpose gets an independent stream that is
reproducible across runs and platforms.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FormatError

DEFAULT_SCALE_BITS = 16
# Bits kept free below the sign bit by the encoding clip: a plain sum of up
# to 2**SUM_HEADROOM_BITS clipped vectors stays inside the ring.  That is not
# a bound on every sum the servers form.  Mean-centring computes
# N*x_i - sum_j(x_j), up to (2N - 2) times the clip bound, which wraps from
# N = 129 on; weighted aggregation adds WEIGHT_BITS fractional bits, so at
# the default scale it wraps once |sum_i tau_i g_i| reaches about 2**15.
SUM_HEADROOM_BITS = 8

_TWO63 = 2.0**63


@dataclass(frozen=True)
class RingVector:
    """Vector of uint64 ring words with a fixed-point scale."""

    words: np.ndarray
    scale_bits: int = DEFAULT_SCALE_BITS

    def __post_init__(self):
        if self.words.dtype != np.uint64:
            raise TypeError("ring words must be uint64")
        self.words.setflags(write=False)

    def __len__(self) -> int:
        return self.words.shape[0]


def clip_bound(scale_bits: int) -> float:
    """L-inf clipping bound leaving headroom for sums of many shares."""
    return 2.0 ** (63 - scale_bits - SUM_HEADROOM_BITS)


def clip_for_encoding(values: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS) -> np.ndarray:
    """Clamp entries to `clip_bound`.  Each encoded entry then fits the
    ring with SUM_HEADROOM_BITS to spare; the centred and weighted
    aggregates can still wrap (see SUM_HEADROOM_BITS)."""
    bound = clip_bound(scale_bits)
    return np.clip(values, -bound, bound)


def encode_fixed(values: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS) -> RingVector:
    """Encode real entries as two's-complement fixed point.

    Raises OverflowError if any entry is non-finite or out of range.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow to inf is rejected below
        scaled = values * 2.0**scale_bits
    np.rint(scaled, out=scaled)
    # |x| < 2**(63 - s) exactly when |x * 2**s| < 2**63 (scaling by a power
    # of two is exact), and rint cannot carry such a value up to 2**63
    # (doubles there are 1024 apart).  NaN fails both comparisons.
    if not (scaled.max(initial=0.0) < _TWO63 and scaled.min(initial=0.0) > -_TWO63):
        if not np.all(np.isfinite(values)):
            raise OverflowError("cannot encode non-finite entries")
        raise OverflowError(
            f"entries exceed the representable range at scale_bits={scale_bits}"
        )
    return RingVector(scaled.astype(np.int64).view(np.uint64), scale_bits)


def decode_fixed(ring: RingVector) -> np.ndarray:
    """Interpret words as signed fixed point and return real entries."""
    signed = ring.words.view(np.int64)
    return signed.astype(np.float64) * 2.0 ** (-ring.scale_bits)


def _check_compatible(a: RingVector, b: RingVector) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension {len(a)} != {len(b)}")
    if a.scale_bits != b.scale_bits:
        raise DimensionMismatch(f"scale_bits {a.scale_bits} != {b.scale_bits}")


def ring_add(a: RingVector, b: RingVector) -> RingVector:
    """Component-wise wrapping add."""
    _check_compatible(a, b)
    return RingVector(np.add(a.words, b.words), a.scale_bits)


def uniform_words(d: int, rng: np.random.Generator) -> np.ndarray:
    """d fresh, writable words drawn uniformly over the whole ring.

    The raw 64-bit outputs of the bit generator are the words that
    ``rng.integers(0, 2**64 - 1, endpoint=True, dtype=np.uint64)`` returns,
    and they leave the stream in the same state, but skip its bounds logic.
    """
    return rng.bit_generator.random_raw(d)


# Serialization: (d: uint32, scale_bits: uint8) header, then little-endian
# uint64 words.  Used verbatim by the transport and the ledger.
RING_HEADER = struct.Struct("<IB")


def serialize_ring(ring: RingVector) -> bytes:
    return b"".join((RING_HEADER.pack(len(ring), ring.scale_bits),
                     np.ascontiguousarray(ring.words, dtype="<u8")))


def ring_view(buf, offset: int = 0) -> RingVector:
    """The serialized ring that fills `buf` from `offset` to its end; the
    words are a read-only view into `buf`, not a copy."""
    if len(buf) - offset < RING_HEADER.size:
        raise FormatError("ring payload shorter than its header")
    d, scale_bits = RING_HEADER.unpack_from(buf, offset)
    body = len(buf) - offset - RING_HEADER.size
    if body != 8 * d:
        raise FormatError(f"expected {8 * d} word bytes, got {body}")
    words = np.frombuffer(buf, dtype="<u8", count=d, offset=offset + RING_HEADER.size)
    return RingVector(words, scale_bits)


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Independent reproducible generator keyed by (seed, path).

    The key is a SHA-256 digest of the seed and path elements, feeding a
    counter-based Philox generator, so distinct paths never share state and
    the byte stream is identical across platforms.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<q", seed))
    for part in path:
        if isinstance(part, str):
            h.update(b"s")
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        else:
            h.update(b"i")
            h.update(struct.pack("<q", part))
    key = int.from_bytes(h.digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))
