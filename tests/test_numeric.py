import numpy as np
import pytest

from dp2guard.errors import DimensionMismatch, FormatError
from dp2guard.numeric import (
    RingVector,
    clip_bound,
    clip_for_encoding,
    decode_fixed,
    encode_fixed,
    ring_add,
    ring_view,
    serialize_ring,
    substream,
    uniform_words,
)

# chi-square critical value at significance 0.01 for 255 degrees of freedom
# (256 bins), i.e. scipy.stats.chi2.ppf(0.99, 255)
CHI2_CRIT_255 = 310.45738821990585


def chi_square_uniform_bytes(low_bytes: np.ndarray) -> float:
    counts = np.bincount(low_bytes, minlength=256)
    expected = low_bytes.size / 256.0
    return float(((counts - expected) ** 2 / expected).sum())


def _zeros(d: int, scale_bits: int = 16) -> RingVector:
    return RingVector(np.zeros(d, dtype=np.uint64), scale_bits)


class TestEncodeDecode:
    def test_zero_vector(self):
        r = encode_fixed(np.array([0.0, 0.0]), 16)
        assert list(r.words) == [0, 0]

    def test_one_is_scale_factor(self):
        r = encode_fixed(np.array([1.0]), 16)
        assert r.words[0] == 65536

    def test_negative_half_twos_complement(self):
        r = encode_fixed(np.array([-0.5]), 16)
        assert r.words[0] == 2**64 - 32768

    def test_decode_inverts_encode(self):
        assert decode_fixed(RingVector(np.array([65536], dtype=np.uint64), 16)) == [1.0]
        assert decode_fixed(RingVector(np.array([0], dtype=np.uint64), 16)) == [0.0]

    def test_round_trip_error_bound(self):
        # 1000 seeded vectors with entries in [-100, 100]
        rng = substream(11, "roundtrip")
        for _ in range(1000):
            v = rng.uniform(-100, 100, size=8)
            back = decode_fixed(encode_fixed(v, 16))
            assert np.max(np.abs(back - v)) <= 2.0**-17

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            encode_fixed(np.array([2.0**47]), 16)
        with pytest.raises(OverflowError):
            encode_fixed(np.array([np.nan]), 16)
        with pytest.raises(OverflowError):
            encode_fixed(np.array([np.inf]), 16)
        with pytest.raises(OverflowError):
            encode_fixed(np.array([1.0, -(2.0**47)]), 16)
        with pytest.raises(OverflowError):
            encode_fixed(np.array([1e300]), 48)
        below = np.nextafter(2.0**47, 0.0)
        words = encode_fixed(np.array([below, -below]), 16).words.view(np.int64)
        assert words.tolist() == [int(below * 2**16), -int(below * 2**16)]

    def test_clip_respects_headroom(self):
        v = np.array([2.0**50, -(2.0**50), 1.0])
        clipped = clip_for_encoding(v, 16)
        assert np.max(np.abs(clipped)) <= clip_bound(16)
        assert clipped[2] == 1.0
        encode_fixed(clipped, 16)  # must not raise


class TestRingArithmetic:
    def test_add_zero_identity(self):
        rng = substream(4, "idzero")
        a = RingVector(uniform_words(16, rng), 16)
        assert np.array_equal(ring_add(a, _zeros(16)).words, a.words)

    def test_add_matches_real_sum(self):
        rng = substream(5, "realsum")
        for _ in range(50):
            a = rng.uniform(-50, 50, size=10)
            b = rng.uniform(-50, 50, size=10)
            got = decode_fixed(ring_add(encode_fixed(a, 16), encode_fixed(b, 16)))
            assert np.max(np.abs(got - (a + b))) <= 2.0**-16

    def test_mask_cancels_bit_for_bit(self):
        rng = substream(6, "mask")
        for _ in range(100):
            x = encode_fixed(rng.uniform(-10, 10, size=32), 16)
            # The client's split: a uniform share and x minus it.
            m = RingVector(uniform_words(32, rng), 16)
            rest = RingVector(x.words - m.words, 16)
            assert np.array_equal(ring_add(m, rest).words, x.words)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ring_add(_zeros(3), _zeros(4))
        with pytest.raises(DimensionMismatch):
            ring_add(_zeros(3, 16), _zeros(3, 20))

    def test_raw_words_equal_full_range_integers(self):
        # uniform_words must draw the words (and leave the stream state)
        # of rng.integers over the whole uint64 range, so mask streams
        # match runs that drew them with integers().
        for key in range(20):
            a, b = substream(8, "raw", key), substream(8, "raw", key)
            for d in (1, 7, 210):
                want = a.integers(0, 2**64 - 1, size=d, dtype=np.uint64, endpoint=True)
                got = uniform_words(d, b)
                assert got.dtype == np.uint64 and np.array_equal(got, want)
            assert a.random() == b.random()


class TestMaskHiding:
    def test_masked_low_byte_uniform(self):
        # Fixed plaintext plus uniform mask: low 8 bits of every word must
        # pass a chi-square uniformity test over >= 1e5 samples.
        x = encode_fixed(np.full(100_000, 0.125), 16)
        m = RingVector(uniform_words(100_000, substream(9, "hiding")), 16)
        masked = ring_add(x, m)
        low = (masked.words & np.uint64(0xFF)).astype(np.int64)
        assert chi_square_uniform_bytes(low) < CHI2_CRIT_255

    def test_unmasked_low_byte_fails_same_test(self):
        # Sanity check that the statistic actually detects structure.
        x = encode_fixed(np.full(100_000, 0.125), 16)
        low = (x.words & np.uint64(0xFF)).astype(np.int64)
        assert chi_square_uniform_bytes(low) > CHI2_CRIT_255


class TestSerialization:
    def test_round_trip_bits(self):
        rng = substream(10, "ser")
        a = RingVector(uniform_words(33, rng), 24)
        b = ring_view(serialize_ring(a))
        assert b.scale_bits == 24
        assert np.array_equal(a.words, b.words)

    def test_header_layout(self):
        r = RingVector(np.array([1], dtype=np.uint64), 16)
        raw = serialize_ring(r)
        assert raw[:4] == (1).to_bytes(4, "little")
        assert raw[4] == 16
        assert raw[5:] == (1).to_bytes(8, "little")

    def test_truncated_rejected(self):
        raw = serialize_ring(RingVector(uniform_words(4, substream(1, "t")), 16))
        with pytest.raises(FormatError):
            ring_view(raw[:-3])
        with pytest.raises(FormatError):
            ring_view(raw[:2])


class TestSubstream:
    def test_same_path_same_stream(self):
        a = substream(42, "client", 3, 7).integers(0, 2**63, size=16)
        b = substream(42, "client", 3, 7).integers(0, 2**63, size=16)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = substream(42, "client", 3, 7).integers(0, 2**63, size=16)
        b = substream(42, "client", 3, 8).integers(0, 2**63, size=16)
        c = substream(43, "client", 3, 7).integers(0, 2**63, size=16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_string_int_paths_distinct(self):
        a = substream(0, "1").integers(0, 2**63, size=8)
        b = substream(0, 1).integers(0, 2**63, size=8)
        assert not np.array_equal(a, b)
