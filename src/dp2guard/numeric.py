"""Fixed-point ring arithmetic and seeded randomness.

Masked gradient shares need arithmetic where a mask added on one side and
subtracted on the other cancels bit-for-bit.  Floating-point addition
rounds, so shares are plain uint64 arrays of two's-complement fixed-point
words, whose arithmetic wraps modulo 2**64; their `scale_bits` travels
beside them.  A value x is encoded as round(x * 2**scale_bits), and adding
a uniformly random ring element hides it information-theoretically.

Randomness is counter-based (Philox) and derived from a (seed, path) key,
so every actor, round, and purpose gets an independent stream that is
reproducible across runs and platforms.
"""
from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import FormatError

DEFAULT_SCALE_BITS = 16
# Bits kept free below the sign bit by the encoding clip: a plain sum of up
# to 2**SUM_HEADROOM_BITS clipped vectors stays inside the ring.  That is not
# a bound on every sum the servers form.  Mean-centring computes
# N*x_i - sum_j(x_j), up to (2N - 2) times the clip bound, which wraps from
# N = 129 on; weighted aggregation adds WEIGHT_BITS fractional bits, so at
# the default scale it wraps once |sum_i tau_i g_i| reaches about 2**15.
SUM_HEADROOM_BITS = 8

_TWO63 = 2.0**63


def clip_bound(scale_bits: int) -> float:
    """L-inf clipping bound leaving headroom for sums of many shares."""
    return 2.0 ** (63 - scale_bits - SUM_HEADROOM_BITS)


def clip_for_encoding(values: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Clamp entries to `clip_bound`, into `out` when given.  Each encoded
    entry then fits the ring with SUM_HEADROOM_BITS to spare; the centred
    and weighted aggregates can still wrap (see SUM_HEADROOM_BITS)."""
    bound = clip_bound(scale_bits)
    return np.clip(values, -bound, bound, out=out)


def encode_fixed(values: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Encode real entries as two's-complement fixed point: uint64 words
    carrying `scale_bits` fractional bits, written into `out` (uint64, the
    shape of `values`, not overlapping them) or fresh, writable words.

    The scaled floats are formed in the words' own memory and each is cast
    in place to the word it becomes, so no temporary is allocated.
    Raises OverflowError if any entry is non-finite or out of range.
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
            raise OverflowError("cannot encode non-finite entries")
        raise OverflowError(
            f"entries exceed the representable range at scale_bits={scale_bits}"
        )
    # numpy casts an array onto its own memory as if from a copy; in one
    # dimension it runs element by element and allocates nothing.
    np.copyto(out.view(np.int64), scaled, casting="unsafe")
    return out


def decode_fixed(words: np.ndarray, scale_bits: int) -> np.ndarray:
    """Interpret words as signed fixed point and return real entries."""
    return words.view(np.int64).astype(np.float64) * 2.0 ** (-scale_bits)


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


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Independent reproducible generator keyed by (seed, path): distinct
    paths never share state, and the stream is identical across platforms."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, *path)))


def rekey(rng: np.random.Generator, seed: int, *path: int | str) -> np.random.Generator:
    """Reset `rng`, a Philox generator, to the state substream(seed, *path)
    starts in (that key, counter 0, no buffered word or half word; a
    Generator keeps no state of its own) and return it.  Several times
    cheaper than a fresh generator, so per-client loops reuse one."""
    key = _stream_key(seed, *path)
    state = {"counter": (0, 0, 0, 0), "key": (key % 2**64, key >> 64)}
    rng.bit_generator.state = {"bit_generator": "Philox", "state": state, "buffer": (0, 0, 0, 0),
                               "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng
