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
# Headroom so sums of up to 2**SUM_HEADROOM_BITS clipped vectors cannot wrap.
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


def encode_range(scale_bits: int) -> float:
    """Largest magnitude representable at the given scale."""
    return 2.0 ** (63 - scale_bits)


def clip_bound(scale_bits: int) -> float:
    """L-inf clipping bound leaving headroom for sums of many shares."""
    return 2.0 ** (63 - scale_bits - SUM_HEADROOM_BITS)


def clip_for_encoding(values: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS) -> np.ndarray:
    """Clamp entries to the headroom bound so aggregates cannot wrap."""
    bound = clip_bound(scale_bits)
    return np.clip(values, -bound, bound)


def encode_fixed(values: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS) -> RingVector:
    """Encode real entries as two's-complement fixed point.

    Raises OverflowError if any entry is non-finite or out of range.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise OverflowError("cannot encode non-finite entries")
    if np.any(np.abs(values) >= encode_range(scale_bits)):
        raise OverflowError(
            f"entries exceed the representable range at scale_bits={scale_bits}"
        )
    scaled = np.rint(values * 2.0**scale_bits)
    if np.any(np.abs(scaled) >= _TWO63):
        raise OverflowError("rounded value does not fit in 63 bits")
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


def ring_sub(a: RingVector, b: RingVector) -> RingVector:
    """Component-wise wrapping subtract; exact inverse of ring_add."""
    _check_compatible(a, b)
    return RingVector(np.subtract(a.words, b.words), a.scale_bits)


def ring_scale(a: RingVector, factor: int) -> RingVector:
    """Wrapping multiply of every word by an unsigned integer factor."""
    if factor < 0:
        raise ValueError("ring factors are unsigned")
    f = np.uint64(factor % 2**64)
    return RingVector(np.multiply(a.words, f), a.scale_bits)


def uniform_ring(d: int, scale_bits: int, rng: np.random.Generator) -> RingVector:
    """Draw d words uniformly over the whole ring."""
    words = rng.integers(0, 2**64 - 1, size=d, dtype=np.uint64, endpoint=True)
    return RingVector(words, scale_bits)


# Serialization: (d: uint32, scale_bits: uint8) header, then little-endian
# uint64 words.  Used verbatim by the transport and the ledger.
_HEADER = struct.Struct("<IB")


def serialize_ring(ring: RingVector) -> bytes:
    return _HEADER.pack(len(ring), ring.scale_bits) + ring.words.astype("<u8").tobytes()


def deserialize_ring(data: bytes) -> RingVector:
    if len(data) < _HEADER.size:
        raise FormatError("ring payload shorter than its header")
    d, scale_bits = _HEADER.unpack_from(data)
    body = data[_HEADER.size:]
    if len(body) != 8 * d:
        raise FormatError(f"expected {8 * d} word bytes, got {len(body)}")
    words = np.frombuffer(body, dtype="<u8").astype(np.uint64)
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
