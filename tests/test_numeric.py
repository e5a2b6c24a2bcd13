import numpy as np
import pytest

from dp2guard.errors import FormatError
from dp2guard.numeric import (
    _stream_key,
    clip_bound,
    clip_for_encoding,
    decode_fixed,
    encode_fixed,
    rekey,
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


class TestEncodeDecode:
    def test_zero_vector(self):
        words = encode_fixed(np.array([0.0, 0.0]), 16)
        assert words.dtype == np.uint64 and list(words) == [0, 0]

    def test_one_is_scale_factor(self):
        assert encode_fixed(np.array([1.0]), 16)[0] == 65536

    def test_negative_half_twos_complement(self):
        assert encode_fixed(np.array([-0.5]), 16)[0] == 2**64 - 32768

    def test_decode_inverts_encode(self):
        assert decode_fixed(np.array([65536], dtype=np.uint64), 16) == [1.0]
        assert decode_fixed(np.array([0], dtype=np.uint64), 16) == [0.0]
        assert decode_fixed(np.array([65536], dtype=np.uint64), 48) == [2.0**-32]

    def test_round_trip_error_bound(self):
        # 1000 seeded vectors with entries in [-100, 100]
        rng = substream(11, "roundtrip")
        for _ in range(1000):
            v = rng.uniform(-100, 100, size=8)
            back = decode_fixed(encode_fixed(v, 16), 16)
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
        words = encode_fixed(np.array([below, -below]), 16).view(np.int64)
        assert words.tolist() == [int(below * 2**16), -int(below * 2**16)]

    def test_clip_respects_headroom(self):
        v = np.array([2.0**50, -(2.0**50), 1.0])
        clipped = clip_for_encoding(v, 16)
        assert np.max(np.abs(clipped)) <= clip_bound(16)
        assert clipped[2] == 1.0
        encode_fixed(clipped, 16)  # must not raise


class TestRingArithmetic:
    """Ring values are uint64 arrays; np.add and np.subtract wrap mod 2**64."""

    def test_add_zero_identity(self):
        a = uniform_words(16, substream(4, "idzero"))
        assert np.array_equal(np.add(a, np.zeros(16, dtype=np.uint64)), a)

    def test_add_wraps_at_the_top_of_the_ring(self):
        top = np.array([2**64 - 1, 2**63], dtype=np.uint64)
        assert np.add(top, np.array([1, 2**63], dtype=np.uint64)).tolist() == [0, 0]
        assert np.subtract(np.zeros(1, dtype=np.uint64), top[:1]).tolist() == [1]

    def test_add_matches_real_sum(self):
        rng = substream(5, "realsum")
        for _ in range(50):
            a = rng.uniform(-50, 50, size=10)
            b = rng.uniform(-50, 50, size=10)
            got = decode_fixed(np.add(encode_fixed(a, 16), encode_fixed(b, 16)), 16)
            assert np.max(np.abs(got - (a + b))) <= 2.0**-16

    def test_mask_cancels_bit_for_bit(self):
        rng = substream(6, "mask")
        for _ in range(100):
            x = encode_fixed(rng.uniform(-10, 10, size=32), 16)
            # The client's split: a uniform share and x minus it.
            m = uniform_words(32, rng)
            rest = x - m
            assert np.array_equal(np.add(m, rest), x)

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
        m = uniform_words(100_000, substream(9, "hiding"))
        masked = np.add(x, m)
        low = (masked & np.uint64(0xFF)).astype(np.int64)
        assert chi_square_uniform_bytes(low) < CHI2_CRIT_255

    def test_unmasked_low_byte_fails_same_test(self):
        # Sanity check that the statistic actually detects structure.
        x = encode_fixed(np.full(100_000, 0.125), 16)
        low = (x & np.uint64(0xFF)).astype(np.int64)
        assert chi_square_uniform_bytes(low) > CHI2_CRIT_255


class TestSerialization:
    def test_round_trip_bits(self):
        a = uniform_words(33, substream(10, "ser"))
        words, scale_bits = ring_view(serialize_ring(a, 24))
        assert scale_bits == 24
        assert np.array_equal(a, words)

    def test_view_is_read_only_and_shares_the_buffer(self):
        buf = bytearray(serialize_ring(np.arange(3, dtype=np.uint64), 16))
        words, _ = ring_view(buf)
        assert not words.flags.writeable
        buf[5] = 9
        assert words[0] == 9

    def test_header_layout(self):
        raw = serialize_ring(np.array([1], dtype=np.uint64), 16)
        assert raw[:4] == (1).to_bytes(4, "little")
        assert raw[4] == 16
        assert raw[5:] == (1).to_bytes(8, "little")

    def test_truncated_rejected(self):
        raw = serialize_ring(uniform_words(4, substream(1, "t")), 16)
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


# Every kind of draw the program makes from a stream, each ending on a
# different buffer state: a uint32 draw of odd length leaves a buffered half
# word, and a random_raw of 3 leaves a Philox word unread.
DRAWS = {
    "random_raw": lambda rng: rng.bit_generator.random_raw(3),
    "standard_normal": lambda rng: rng.standard_normal(7),
    "random": lambda rng: rng.random(5),
    "integers": lambda rng: rng.integers(0, 1000, size=9),
    "integers_uint32_odd": lambda rng: rng.integers(0, 2**32 - 1, size=5, dtype=np.uint32,
                                                    endpoint=True),
    "permutation": lambda rng: rng.permutation(31),
    "choice_without_replacement": lambda rng: rng.choice(40, size=11, replace=False),
}
LOW64 = 2**64 - 1
EDGE_HALVES = [(0, 0), (0, LOW64), (LOW64, 0), (LOW64, LOW64), (0, 12345), (12345, LOW64)]


def _used_generator():
    """A generator in the middle of another stream, with a buffered half
    word and unread Philox words."""
    rng = substream(1, "elsewhere")
    rng.standard_normal(3)
    rng.integers(0, 2**32 - 1, size=3, dtype=np.uint32, endpoint=True)
    rng.bit_generator.random_raw(1)
    return rng


def _assert_same_stream(fresh, reset):
    state, want = reset.bit_generator.state, fresh.bit_generator.state
    assert state["state"]["key"].tolist() == want["state"]["key"].tolist()
    for field in ("buffer_pos", "has_uint32", "uinteger"):
        assert state[field] == want[field]
    assert state["state"]["counter"].tolist() == want["state"]["counter"].tolist()
    assert state["buffer"].tolist() == want["buffer"].tolist()
    for name, draw in DRAWS.items():
        assert np.array_equal(draw(reset), draw(fresh)), name
    # Half words, buffers and counters left by those draws agree too.
    assert reset.bit_generator.random_raw(4).tolist() == fresh.bit_generator.random_raw(4).tolist()


class TestRekey:
    """`rekey` puts a generator in the state `substream` builds, so the
    round loop can reuse one generator for every client's stream."""

    @pytest.mark.parametrize("draw", sorted(DRAWS))
    @pytest.mark.parametrize("path", [("mask", 3, 7), ("client", 0, 0), ("m", 2, "x", -1)],
                             ids=["mask", "client", "mixed"])
    def test_reset_stream_equals_fresh_stream(self, draw, path):
        fresh = substream(42, *path)
        reset = rekey(_used_generator(), 42, *path)
        assert np.array_equal(DRAWS[draw](reset), DRAWS[draw](fresh))
        assert reset.bit_generator.random_raw(5).tolist() == \
            fresh.bit_generator.random_raw(5).tolist()

    @pytest.mark.parametrize("low,high", EDGE_HALVES)
    def test_edge_keys(self, monkeypatch, low, high):
        # Keys whose 64-bit halves are 0 or 2**64 - 1 must reach Philox as
        # the same (low, high) pair substream's integer key becomes.
        import dp2guard.numeric as numeric
        monkeypatch.setattr(numeric, "_stream_key", lambda seed, *path: low | high << 64)
        fresh = substream(0, "edge")
        assert fresh.bit_generator.state["state"]["key"].tolist() == [low, high]
        _assert_same_stream(fresh, rekey(_used_generator(), 0, "edge"))

    def test_generator_reused_across_streams(self):
        rng = _used_generator()
        for cid in range(4):
            for round_no in range(3):
                path = ("m", cid, "r", round_no)
                rekey(rng, 9, *path)
                _assert_same_stream(substream(9, *path), rng)

    def test_returns_its_argument(self):
        rng = _used_generator()
        assert rekey(rng, 0, "x") is rng

    def test_key_is_the_substream_key(self):
        assert _stream_key(3, "a", 1) != _stream_key(3, "a", "1")
        key = substream(3, "a", 1).bit_generator.state["state"]["key"].tolist()
        assert key == [_stream_key(3, "a", 1) & LOW64, _stream_key(3, "a", 1) >> 64]
