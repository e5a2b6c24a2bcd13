import struct
import weakref

import numpy as np
import pytest

from dp2guard.client import split_and_mask
from dp2guard.errors import (
    ClientSetMismatch,
    DimensionMismatch,
    FormatError,
    ProtocolError,
    WeightError,
)
from dp2guard.numeric import (
    WEIGHT_BITS,
    decode_fixed,
    encode_fixed,
    mean_center,
    partial_aggregate,
    reassemble_global,
    reconstruct_centered,
    ring_view,
    serialize_ring,
    substream,
    uniform_words,
)
from dp2guard.servers import (
    MSG_AGG_AND_WEIGHTS,
    MSG_CENTERED_BATCH,
    MSG_SHARE_UPLOAD,
    Channel,
    ProtocolMessage,
    ServerS1,
    ServerS2,
    decode_agg_and_weights,
    decode_centered_batch,
    decode_message,
    decode_share_upload,
    encode_agg_and_weights,
    encode_centered_batch,
    encode_message,
    encode_share_upload,
)
from dp2guard.trust import direct_trust, update_trust

KIND_NAMES = {MSG_SHARE_UPLOAD: "ShareUpload", MSG_CENTERED_BATCH: "CenteredBatch",
              MSG_AGG_AND_WEIGHTS: "AggDigestAndWeights"}


class RecordingChannel(Channel):
    """A channel that logs (src, dst, kind name) of what it delivers, for
    the boundary audits; the protocol's channel keeps nothing."""

    def __init__(self):
        self.log: list[tuple[str, str, str]] = []

    def send(self, src, dst, msg):
        received = super().send(src, dst, msg)
        self.log.append((src, dst, KIND_NAMES[received.kind]))
        return received


def _masked_pair(grads: dict[int, np.ndarray], seed: int, scale_bits=16):
    """S1's and S2's (N, d) share matrices, rows in ascending client id."""
    rows1, rows2 = [], []
    for cid in sorted(grads):
        s1, s2 = split_and_mask(grads[cid], scale_bits, substream(seed, "mask", cid))
        rows1.append(s1)
        rows2.append(s2)
    return np.stack(rows1), np.stack(rows2)


def _upload(client_id, round_no, share_index, words, scale_bits=16):
    """A ShareUpload of `words`, written into its payload as the round loop
    writes them."""
    msg, payload_words = encode_share_upload(client_id, round_no, share_index,
                                             len(words), scale_bits)
    payload_words[...] = words
    return msg


def _centered(shares: np.ndarray) -> np.ndarray:
    return mean_center(shares, np.empty_like(shares))


def _batch(round_no, sender, ids, rows, scale_bits=16):
    """A CenteredBatch carrying `rows`, written into its payload as S1
    writes its centered rows."""
    msg, words = encode_centered_batch(round_no, sender, ids, rows.shape[1], scale_bits)
    words[...] = rows
    return msg


def _weighted_sum(s1, s2, w, scale_bits=16):
    """Both partial aggregates under weights `w`, reassembled."""
    (a1, scale), (a2, _) = (partial_aggregate(s, w, scale_bits) for s in (s1, s2))
    return reassemble_global(a1, a2, scale)


def _reconstruct(s1: np.ndarray, s2: np.ndarray, scale_bits=16) -> np.ndarray:
    return reconstruct_centered(_centered(s1), s2, scale_bits, np.empty(s2.shape))


def _opened(server_cls, n, d, round_no=0, scale_bits=16, beta=0.5, exclusion="soft"):
    """A server for clients 0..n-1, sized for d words at `scale_bits` (S2
    with trust history weight `beta` and `exclusion`), with round
    `round_no` open, as the round loop opens each round on the run's
    servers."""
    extra = (beta, exclusion) if server_cls is ServerS2 else ()
    server = server_cls(n, d, scale_bits, *extra)
    server.start_round(round_no)
    return server


def _weights(tau: dict[int, float]) -> list[float]:
    return [tau[cid] for cid in sorted(tau)]


class TestMeanCenter:
    def test_identical_shares_center_to_zero(self):
        rng = substream(60, "mc")
        share = uniform_words(12, rng)
        for row in _centered(np.stack([share] * 5)):
            assert not np.any(row)

    def test_centered_shares_sum_to_zero(self):
        rng = substream(61, "mc")
        shares = np.stack([uniform_words(8, rng) for _ in range(7)])
        total = np.zeros(8, dtype=np.uint64)
        for row in _centered(shares):
            total += row
        assert not np.any(total)

    def test_rows_match_scalar_ring_formula(self):
        rng = substream(59, "mc")
        shares = np.stack([uniform_words(5, rng) for _ in range(4)])
        total = shares[0] + shares[1] + shares[2] + shares[3]
        for k, row in enumerate(_centered(shares)):
            assert np.array_equal(row, shares[k] * np.uint64(4) - total)

    def test_three_client_plaintext_oracle(self):
        # After reconstruction, centered gradients match plaintext centering
        # of the decoded values within 2^-14 per entry.
        grads = {0: np.array([1.0, -2.0]), 1: np.array([0.5, 0.5]),
                 2: np.array([-1.5, 4.0])}
        centered = _reconstruct(*_masked_pair(grads, 62))
        mean = np.mean(list(grads.values()), axis=0)
        for cid, g in grads.items():
            assert np.max(np.abs(centered[cid] - (g - mean))) <= 2.0**-14

    @pytest.mark.parametrize("n", [2, 3, 129, 300])
    @pytest.mark.parametrize("d", [1, 7, 1000])
    def test_s1_centers_straight_into_its_batch(self, n, d):
        # Centering into given rows equals the whole-matrix ring formula
        # N * x_k - sum_j x_j bit for bit, and S1's CenteredBatch carries
        # those rows in the record layout (count; per record id, blob
        # length, d, scale_bits, words), past N = 256 too.
        rng = substream(58, "into", n, d)
        shares = np.stack([uniform_words(d, rng) for _ in range(n)])
        want = shares * np.uint64(n) - shares.sum(axis=0)
        out = np.empty_like(shares)
        assert mean_center(shares, out) is out and np.array_equal(out, want)
        ids = range(n)
        s1 = _opened(ServerS1, n, d)
        for cid, share in zip(ids, shares):
            s1.receive_share(_upload(cid, 0, 1, share))
        payload = struct.pack("<I", n) + b"".join(
            struct.pack("<IQ", cid, 5 + 8 * d) + struct.pack("<IB", d, 16)
            + row.astype("<u8").tobytes() for cid, row in zip(ids, want))
        assert bytes(s1.center_shares().payload) == payload

    def test_needs_two_shares(self):
        with pytest.raises(ValueError):
            _centered(uniform_words(4, substream(63, "mc"))[None, :])


class TestReconstructCentered:
    def test_recovers_plaintext_up_to_global_mean(self):
        rng = substream(64, "rc")
        grads = {i: rng.uniform(-3, 3, size=20) for i in range(6)}
        centered = _reconstruct(*_masked_pair(grads, 65))
        mean = np.mean(list(grads.values()), axis=0)
        for cid in grads:
            assert np.max(np.abs((centered[cid] + mean) - grads[cid])) <= 2.0**-13

    def test_identical_gradients_center_to_zero(self):
        g = np.linspace(-1, 1, 16)
        grads = {i: g for i in range(4)}
        centered = _reconstruct(*_masked_pair(grads, 66))
        assert np.max(np.abs(centered)) <= 2.0**-14

    def test_mask_independence_bit_identical(self):
        # Fresh masks (new seeds) leave every reconstructed centered
        # gradient bit-identical: the ring arithmetic cancels them exactly.
        rng = substream(67, "rc")
        grads = {i: rng.uniform(-2, 2, size=10) for i in range(5)}
        a = _reconstruct(*_masked_pair(grads, 680))
        b = _reconstruct(*_masked_pair(grads, 681))
        assert np.array_equal(a, b)

    def test_matches_per_client_decode(self):
        # Row k is decode_fixed(c1[k] + c2[k]) / N, bit for bit.
        rng = substream(68, "rc")
        grads = {i: rng.uniform(-2, 2, size=9) for i in range(5)}
        s1, s2 = _masked_pair(grads, 682)
        c1, c2 = _centered(s1), _centered(s2)
        out = reconstruct_centered(c1, s2, 16, np.empty(s2.shape))
        for k in range(5):
            want = decode_fixed(np.add(c1[k], c2[k]), 16) / 5
            assert np.array_equal(out[k], want)

    @pytest.mark.parametrize("n", [2, 100, 129, 1024])
    @pytest.mark.parametrize("scale_bits", [1, 16, 31, 48])
    def test_one_division_equals_decode_then_divide(self, scale_bits, n):
        # Each row is divided once by N * 2**scale_bits; that equals
        # decode_fixed (a multiply by 2**-scale_bits) followed by / N bit for
        # bit, at the ring's extremes and on random words.  With S2's shares
        # all zero, every combined centred row is S1's row.
        edges = np.array([0, 1, -1, 2**63 - 1, -(2**63 - 1), -2**63], dtype=np.int64)
        words = np.concatenate([edges.view(np.uint64),
                                uniform_words(58, substream(70, "rc", n, scale_bits))])
        c1 = np.tile(words, (n, 1))
        out = reconstruct_centered(c1, np.zeros_like(c1), scale_bits, np.empty(c1.shape))
        want = decode_fixed(words, scale_bits) / n
        assert np.array_equal(out.view(np.uint64), np.tile(want, (n, 1)).view(np.uint64))

    @pytest.mark.parametrize("n", [2, 3, 129])
    @pytest.mark.parametrize("d", [1, 2, 7, 1000])
    def test_in_place_into_the_batch_equals_out_of_place(self, n, d):
        # S2 writes float row k over the first 8d(k+1) bytes of the
        # CenteredBatch it reads S1's rows from; that may overwrite only
        # records it has read, so the result is the out-of-place one, bit
        # for bit, whatever the row count and width.
        rng = substream(71, "in-place", n, d)
        s1, s2 = (np.stack([uniform_words(d, rng) for _ in range(n)]) for _ in range(2))
        batch, words = encode_centered_batch(0, 1, list(range(n)), d, 16)
        mean_center(s1, words)
        want = reconstruct_centered(decode_centered_batch(batch)[1], s2, 16, np.empty((n, d)))
        out = np.ndarray((n, d), dtype=np.float64, buffer=batch.payload)
        got = reconstruct_centered(decode_centered_batch(batch)[1], s2, 16, out)
        assert np.shares_memory(got, np.frombuffer(batch.payload, np.uint8))
        assert got.tobytes() == want.tobytes()

    def test_client_set_mismatch(self):
        rng = substream(69, "rc")
        shares = np.stack([uniform_words(4, rng) for _ in range(3)])
        with pytest.raises(ClientSetMismatch):
            reconstruct_centered(shares, shares[:2], 16, np.empty(shares.shape))


class TestPartialAggregate:
    def test_single_client_identity(self):
        g = np.array([0.25, -1.5, 3.0])
        share = encode_fixed(g, 16)
        agg, scale_bits = partial_aggregate(share[None, :], [1.0], 16)
        assert np.max(np.abs(decode_fixed(agg, scale_bits) - decode_fixed(share, 16))) <= 2.0**-32

    def test_uniform_weights_reproduce_fedavg_numerator(self):
        rng = substream(70, "pa")
        grads = {i: rng.uniform(-2, 2, size=8) for i in range(4)}
        s1, s2 = _masked_pair(grads, 71)
        w = [0.25] * 4
        want = np.mean(list(grads.values()), axis=0)
        assert np.max(np.abs(_weighted_sum(s1, s2, w) - want)) <= 1e-4

    def test_random_weights_match_plaintext_oracle(self):
        rng = substream(72, "pa")
        for trial in range(20):
            grads = {i: rng.uniform(-5, 5, size=12) for i in range(6)}
            raw = rng.uniform(0.01, 1.0, size=6)
            tau = {i: float(w) for i, w in enumerate(raw / raw.sum())}
            s1, s2 = _masked_pair(grads, 73 + trial)
            want = sum(tau[i] * grads[i] for i in range(6))
            assert np.max(np.abs(_weighted_sum(s1, s2, _weights(tau)) - want)) <= 1e-4

    def test_matches_per_client_ring_loop(self):
        # Same words as accumulating each client's share times its
        # round(w * 2^32) one row at a time: on masked shares, and on
        # full-width words of several shapes, where every product and sum
        # wraps mod 2**64.
        rng = substream(72, "loop")
        s1, _ = _masked_pair({i: rng.uniform(-5, 5, size=7) for i in range(5)}, 79)
        cases = [s1] + [np.stack([uniform_words(d, rng) for _ in range(n)])
                        for n, d in ((2, 1), (3, 5), (129, 7))]
        for shares in cases:
            n, d = shares.shape
            raw = rng.uniform(0.01, 1.0, size=n)
            w = [float(x) for x in raw / raw.sum()]
            want = np.zeros(d, dtype=np.uint64)
            for k in range(n):
                want = np.add(want, shares[k] * np.uint64(int(round(w[k] * 2.0**32))))
            assert np.array_equal(partial_aggregate(shares, w, 16)[0], want)

    @pytest.mark.parametrize("scale_bits", [1, 16, 48])
    def test_reports_the_scale_of_its_words(self, scale_bits):
        # Weights carry WEIGHT_BITS = 32 fractional bits, so the sum's words
        # carry the shares' scale plus 32, whatever that scale is.
        shares = np.stack([uniform_words(4, substream(72, "scale", k)) for k in range(2)])
        words, scale = partial_aggregate(shares, [0.25, 0.75], scale_bits)
        assert scale == scale_bits + WEIGHT_BITS == scale_bits + 32
        assert np.array_equal(words, partial_aggregate(shares, [0.25, 0.75], 16)[0])

    def test_weight_validation(self):
        share = encode_fixed(np.ones(4), 16)
        with pytest.raises(WeightError):
            partial_aggregate(share[None, :], [0.5], 16)
        with pytest.raises(WeightError):
            partial_aggregate(np.stack([share, share]), [1.5, -0.5], 16)
        with pytest.raises(WeightError):
            partial_aggregate(share[None, :], [0.5, 0.5], 16)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_is_a_weight_error(self, bad):
        # NaN passes a plain |sum - 1| check and would fail later, in the
        # fixed-point rounding, with a bare ValueError.
        share = encode_fixed(np.ones(4), 16)
        with pytest.raises(WeightError):
            partial_aggregate(np.stack([share, share]), [bad, 0.5], 16)
        with pytest.raises(WeightError):
            partial_aggregate(share[None, :], [bad], 16)


class TestReassemble:
    def test_zero_gradients_zero_aggregate(self):
        grads = {i: np.zeros(6) for i in range(3)}
        s1, s2 = _masked_pair(grads, 74)
        w = [1.0 / 3.0] * 3
        out = _weighted_sum(s1, s2, w)
        assert np.max(np.abs(out)) <= 1e-9

    def test_uniform_fedavg_oracle(self):
        rng = substream(75, "ra")
        grads = {i: rng.uniform(-1, 1, size=30) for i in range(10)}
        s1, s2 = _masked_pair(grads, 76)
        w = [0.1] * 10
        out = _weighted_sum(s1, s2, w)
        want = np.mean(list(grads.values()), axis=0)
        assert np.max(np.abs(out - want)) <= 1e-4


def test_end_to_end_mask_neutrality():
    # Full pipeline (split, mask, center, weight, aggregate, reassemble)
    # equals the plaintext pipeline with identical weights within 1e-3.
    rng = substream(77, "e2e")
    grads = {i: rng.uniform(-4, 4, size=50) for i in range(8)}
    raw = rng.uniform(0.05, 1.0, size=8)
    tau = {i: float(w) for i, w in enumerate(raw / raw.sum())}

    s1, s2 = _masked_pair(grads, 78)
    centered = _reconstruct(s1, s2)
    out = _weighted_sum(s1, s2, _weights(tau))

    mean = np.mean(list(grads.values()), axis=0)
    for cid in grads:
        assert np.max(np.abs(centered[cid] - (grads[cid] - mean))) <= 1e-3
    want = sum(tau[i] * grads[i] for i in grads)
    assert np.max(np.abs(out - want)) <= 1e-3


class TestWireFormat:
    def test_message_round_trip(self):
        msg = ProtocolMessage(MSG_SHARE_UPLOAD, 7, 3, b"\x01\x02\xff")
        back = decode_message(encode_message(msg))
        assert back == msg

    def test_header_layout(self):
        msg = ProtocolMessage(2, 0x01020304, 9, b"ab")
        wire = encode_message(msg)
        assert wire[0] == 2
        assert wire[1:5] == (0x01020304).to_bytes(4, "little")
        assert wire[5:9] == (9).to_bytes(4, "little")
        assert wire[9:17] == (2).to_bytes(8, "little")
        assert wire[17:] == b"ab"

    def test_length_mismatch_rejected(self):
        wire = encode_message(ProtocolMessage(1, 0, 0, b"abcd"))
        with pytest.raises(ProtocolError):
            decode_message(wire[:-1])

    def test_channel_delivers_what_the_wire_would(self):
        rng = substream(79, "channel")
        words = uniform_words(7, rng)
        rows = np.stack([uniform_words(7, rng) for _ in range(3)])
        sent = [
            _upload(4, 6, 2, words),
            _batch(6, 1, [0, 2, 5], rows),
            encode_agg_and_weights(6, 0, serialize_ring(uniform_words(7, rng), 48),
                                   {0: 0.25, 2: 0.25, 5: 0.5}),
        ]
        channel = RecordingChannel()
        for msg in sent:
            got = channel.send("a", "b", msg)
            want = decode_message(encode_message(msg))
            assert (got.kind, got.round, got.sender) == (want.kind, want.round, want.sender)
            assert bytes(got.payload) == bytes(want.payload)
            assert len(got.payload) == len(want.payload)
            # Handed over, not copied: the receiver owns the sender's buffer.
            assert np.shares_memory(np.frombuffer(got.payload, np.uint8),
                                    np.frombuffer(msg.payload, np.uint8))
        assert [kind for _, _, kind in channel.log] == [
            "ShareUpload", "CenteredBatch", "AggDigestAndWeights"]

    def test_channel_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError):
            Channel().send("a", "b", ProtocolMessage(9, 0, 0, b"x"))

    def test_share_upload_round_trip(self):
        words = uniform_words(9, substream(79, "w"))
        msg = _upload(5, 2, 1, words, 24)
        client_id, share_index, back, scale_bits = decode_share_upload(msg)
        assert client_id == 5 and msg.round == 2 and share_index == 1
        assert np.array_equal(back, words) and scale_bits == 24
        assert not back.flags.writeable

    def test_share_upload_layout(self):
        words = uniform_words(3, substream(79, "layout"))
        msg = _upload(5, 2, 2, words)
        want = struct.pack("<IBIB", 5, 2, 3, 16) + words.astype("<u8").tobytes()
        assert bytes(msg.payload) == want

    @pytest.mark.parametrize("d", [0, 1, 3, 210])
    def test_share_upload_built_in_place_has_the_joined_layout(self, d):
        # The payload the encoder allocates and the caller fills is byte for
        # byte the former b"".join of prefix, ring header and words.
        words = uniform_words(d, substream(79, "layout", d))
        msg, view = encode_share_upload(5, 2, 2, d, 16)
        assert view.dtype == np.dtype("<u8") and view.shape == (d,) and view.flags.writeable
        assert view.ctypes.data % 8 == 0  # aligned, so ufuncs write it directly
        view[...] = words
        want = b"".join((struct.pack("<IB", 5, 2), struct.pack("<IB", d, 16),
                         words.astype("<u8").tobytes()))
        assert bytes(msg.payload) == want and len(msg.payload) == len(want)
        assert (msg.kind, msg.round, msg.sender) == (MSG_SHARE_UPLOAD, 2, 5)
        assert encode_message(msg) == struct.pack("<BIIQ", MSG_SHARE_UPLOAD, 2, 5,
                                                  len(want)) + want

    def test_centered_batch_round_trip(self):
        rng = substream(80, "w")
        rows = np.stack([uniform_words(6, rng) for _ in range(3)])
        ids, back, scale_bits = decode_centered_batch(
            _batch(4, 1, [1, 3, 7], rows))
        assert ids == [1, 3, 7] and scale_bits == 16
        assert np.array_equal(back, rows)

    def test_centered_batch_layout(self):
        # Per record: id, ring blob length, then the ring blob (d, scale
        # bits, words), after a record count.
        rows = np.stack([uniform_words(2, substream(80, "l", k)) for k in range(2)])
        msg = _batch(4, 1, [3, 8], rows)
        want = struct.pack("<I", 2)
        for cid, row in zip([3, 8], rows):
            blob = struct.pack("<IB", 2, 16) + row.astype("<u8").tobytes()
            want += struct.pack("<IQ", cid, len(blob)) + blob
        assert bytes(msg.payload) == want

    def test_centered_batch_is_filled_through_its_writable_view(self):
        # The encoder writes every header and returns the (N, d) words of
        # the records, row k for ids[k], for the caller to fill in place.
        rng = substream(80, "reuse")
        rows = np.stack([uniform_words(5, rng) for _ in range(3)])
        msg, words = encode_centered_batch(0, 1, [0, 1, 2], 5, 16)
        assert words.shape == (3, 5) and words.dtype == np.dtype("<u8")
        assert words.flags.writeable
        assert np.shares_memory(words, np.frombuffer(msg.payload, np.uint8))
        for k, row in enumerate(rows):
            words[k] = row
        assert np.array_equal(decode_centered_batch(msg)[1], rows)

    def test_agg_and_weights_round_trip_bit_exact(self):
        agg = uniform_words(5, substream(81, "w"))
        tau = {0: 0.1, 1: 0.7, 2: 0.2}
        words, scale_bits, back = decode_agg_and_weights(
            encode_agg_and_weights(3, 2, serialize_ring(agg, 48), tau))
        assert back == tau  # doubles survive bit-exactly
        assert np.array_equal(words, agg) and scale_bits == 48


def _drive_to_publish(grads, seed, round_no=0, beta=0.5, exclusion="soft"):
    """Run a round up to S2's weights for clients 0..N-1 (the keys of
    `grads`); returns (s1, s2, detection, tau, channel) with tau keyed by
    client id, as the ledger records it."""
    ids = sorted(grads)
    d = len(grads[ids[0]])
    channel = RecordingChannel()
    s1 = _opened(ServerS1, len(ids), d, round_no)
    s2 = _opened(ServerS2, len(ids), d, round_no, beta=beta, exclusion=exclusion)
    for cid in ids:
        sh1, sh2 = split_and_mask(grads[cid], 16, substream(seed, "mask", cid))
        s1.receive_share(channel.send(f"client{cid}", "S1",
                                      _upload(cid, round_no, 1, sh1)))
        s2.receive_share(channel.send(f"client{cid}", "S2",
                                      _upload(cid, round_no, 2, sh2)))
    s2.receive_centered_batch(channel.send("S1", "S2", s1.center_shares()))
    detection, row_weights = s2.detect_and_weigh(substream(seed, "km"))
    return s1, s2, detection, dict(enumerate(row_weights.tolist())), channel


def _drive_round(grads, seed, round_no=0, beta=0.5):
    s1, s2, detection, tau, channel = _drive_to_publish(grads, seed, round_no, beta)
    record = encode_agg_and_weights(round_no, 0, s2.publish(), tau)
    return s1.finalize(channel.send("ledger", "S1", record)), detection, tau, channel, s1, s2


class TestServerStateMachines:
    def test_full_round_matches_weighted_plaintext(self):
        rng = substream(82, "sm")
        grads = {i: rng.uniform(-2, 2, size=40) for i in range(6)}
        global_grad, detection, tau, channel, _, _ = _drive_round(grads, 83)
        want = sum(tau[i] * grads[i] for i in grads)
        assert np.max(np.abs(global_grad - want)) <= 1e-3

    @pytest.mark.parametrize("exclusion", ["soft", "hard"])
    def test_detection_rows_map_to_client_ids(self, exclusion):
        # Detection, trust and weights name rows, and row k is client k:
        # the weights are keyed by ids 0..N-1 and hard exclusion zeroes the
        # outliers' ids.  S2 keeps the trust vector, which starts full and
        # takes one EMA step from the round's direct trust.
        rng = substream(104, "ids")
        rows = rng.uniform(-1, 1, size=(8, 12))
        rows[:2] += 4.0  # two outliers, so hard exclusion zeroes someone
        _, s2, got, tau, _ = _drive_to_publish(dict(enumerate(rows)), 105, beta=0.25,
                                               exclusion=exclusion)
        assert not {0, 1} & got.benign
        benign = np.array([k in got.benign for k in range(8)])
        direct = np.where(benign, direct_trust(got.features, got.centroid), 0.0)
        assert np.array_equal(s2.trust, update_trust(np.ones(8), direct, 0.25))
        assert list(tau) == list(range(8))
        zeros = {cid for cid, w in tau.items() if w == 0.0}
        assert zeros == ({0, 1} if exclusion == "hard" else set())

    @staticmethod
    def _other_clients(tau, change):
        # Weights that still sum to 1 but name a different client set.
        if change == "extra":
            return tau | {99: 0.0}
        if change == "missing":
            rest = {cid: w for cid, w in tau.items() if cid != 0}
            total = sum(rest.values())
            return {cid: w / total for cid, w in rest.items()}
        return {0: 0.5, 99: 0.5}

    @pytest.mark.parametrize("change", ["extra", "missing", "foreign"])
    def test_finalize_rejects_ledger_weights_for_other_clients(self, change):
        rng = substream(102, "keys")
        grads = {i: rng.uniform(-1, 1, size=5) for i in range(4)}
        s1, s2, _, tau, _ = _drive_to_publish(grads, 103)
        record = encode_agg_and_weights(0, 0, s2.publish(),
                                        self._other_clients(tau, change))
        with pytest.raises(WeightError):
            s1.finalize(record)

    @pytest.mark.parametrize("d,scale_bits", [(4, 48), (6, 48), (5, 16), (5, 47), (5, 49)])
    def test_finalize_rejects_a_forged_aggregate(self, d, scale_bits):
        # The round has d = 5 at scale 16, so the aggregate read back from
        # the ledger must hold 5 words at 16 + WEIGHT_BITS = 48 fractional
        # bits; any other shape is a typed error, not a broadcast or a
        # silently rescaled decode.
        rng = substream(106, "forged")
        grads = {i: rng.uniform(-1, 1, size=5) for i in range(4)}
        s1, s2, _, tau, channel = _drive_to_publish(grads, 107)
        assert ring_view(s2.publish())[1] == 48
        forged = encode_agg_and_weights(0, 0, serialize_ring(uniform_words(d, rng), scale_bits),
                                        tau)
        with pytest.raises(DimensionMismatch):
            s1.finalize(channel.send("ledger", "S1", forged))

    def test_finalize_takes_one_record_of_its_round_once(self):
        # S1 finishes in one call on the record of its own round; a record
        # for another round changes nothing, and a second call is refused.
        rng = substream(108, "once")
        grads = {i: rng.uniform(-1, 1, size=5) for i in range(4)}
        s1, s2, _, tau, channel = _drive_to_publish(grads, 109, round_no=3)
        blob = s2.publish()
        for other in (2, 4):
            with pytest.raises(ProtocolError, match=f"round {other}, server at 3"):
                s1.finalize(encode_agg_and_weights(other, 0, blob, tau))
        record = channel.send("ledger", "S1", encode_agg_and_weights(3, 0, blob, tau))
        want = sum(tau[i] * grads[i] for i in grads)
        assert np.max(np.abs(s1.finalize(record) - want)) <= 1e-3
        with pytest.raises(ProtocolError, match="cannot finalize in phase 'done'"):
            s1.finalize(record)

    def test_publish_returns_the_serialized_partial_aggregate(self):
        rng = substream(110, "publish")
        grads = {i: rng.uniform(-1, 1, size=5) for i in range(4)}
        _, s2, _, tau, _ = _drive_to_publish(grads, 111)
        want = serialize_ring(*partial_aggregate(s2.shares, _weights(tau), 16))
        assert s2.publish() == want

    def test_share_after_centering_rejected(self):
        rng = substream(84, "sm")
        grads = {i: rng.uniform(-1, 1, size=8) for i in range(3)}
        ids = sorted(grads)
        s1 = _opened(ServerS1, len(ids), 8)
        for cid in ids:
            sh1, _ = split_and_mask(grads[cid], 16, substream(85, "m", cid))
            s1.receive_share(_upload(cid, 0, 1, sh1))
        s1.center_shares()
        sh1, _ = split_and_mask(grads[0], 16, substream(85, "m", 99))
        with pytest.raises(ProtocolError):
            s1.receive_share(_upload(0, 0, 1, sh1))

    def test_centering_before_all_shares_rejected(self):
        s1 = _opened(ServerS1, 3, 4)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(86, "m"))
        s1.receive_share(_upload(0, 0, 1, sh1))
        with pytest.raises(ProtocolError):
            s1.center_shares()

    def test_wrong_round_rejected(self):
        s1 = _opened(ServerS1, 1, 4, 5)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(87, "m"))
        with pytest.raises(ProtocolError):
            s1.receive_share(_upload(0, 4, 1, sh1))

    def test_duplicate_and_unknown_clients_rejected(self):
        # Client k owns row k, so an id >= N names no row.
        s1 = _opened(ServerS1, 2, 4)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(88, "m"))
        msg = _upload(0, 0, 1, sh1)
        s1.receive_share(msg)
        with pytest.raises(ProtocolError):
            s1.receive_share(msg)
        for cid in (2, 9):
            with pytest.raises(ProtocolError, match=f"unexpected client {cid}"):
                s1.receive_share(_upload(cid, 0, 1, sh1))

    def test_share_index_must_match_server(self):
        s2 = _opened(ServerS2, 1, 4)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(89, "m"))
        with pytest.raises(ProtocolError):
            s2.receive_share(_upload(0, 0, 1, sh1))

    @pytest.mark.parametrize("kind", [MSG_CENTERED_BATCH, MSG_AGG_AND_WEIGHTS])
    def test_receive_share_refuses_another_kind(self, kind):
        # A valid ShareUpload payload under another kind is refused before
        # the client counts as received; under its own kind it is taken.
        s1 = _opened(ServerS1, 2, 4)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(112, "m"))
        msg = _upload(0, 0, 1, sh1)
        with pytest.raises(ProtocolError, match=f"kind {kind} where kind {MSG_SHARE_UPLOAD}"):
            s1.receive_share(msg._replace(kind=kind))
        assert (s1._received, s1.phase) == (set(), "collecting")
        s1.receive_share(msg)
        assert s1._received == {0}

    @pytest.mark.parametrize("kind", [MSG_SHARE_UPLOAD, MSG_AGG_AND_WEIGHTS])
    def test_receive_centered_batch_refuses_another_kind(self, kind):
        rng = substream(113, "kind")
        s1, s2 = _opened(ServerS1, 3, 5), _opened(ServerS2, 3, 5)
        for cid in range(3):
            sh1, sh2 = split_and_mask(rng.uniform(-1, 1, size=5), 16, substream(114, "m", cid))
            s1.receive_share(_upload(cid, 0, 1, sh1))
            s2.receive_share(_upload(cid, 0, 2, sh2))
        batch = s1.center_shares()
        with pytest.raises(ProtocolError, match=f"kind {kind} where kind {MSG_CENTERED_BATCH}"):
            s2.receive_centered_batch(batch._replace(kind=kind))
        assert (s2._received, s2.phase) == ({0, 1, 2}, "collecting")
        s2.receive_centered_batch(batch)
        assert s2.phase == "centering"

    @pytest.mark.parametrize("kind", [MSG_SHARE_UPLOAD, MSG_CENTERED_BATCH])
    def test_finalize_refuses_another_kind(self, kind):
        rng = substream(115, "kind")
        grads = {i: rng.uniform(-1, 1, size=5) for i in range(4)}
        s1, s2, _, tau, _ = _drive_to_publish(grads, 116)
        record = encode_agg_and_weights(0, 0, s2.publish(), tau)
        with pytest.raises(ProtocolError,
                           match=f"kind {kind} where kind {MSG_AGG_AND_WEIGHTS}"):
            s1.finalize(record._replace(kind=kind))
        assert (s1._received, s1.phase) == ({0, 1, 2, 3}, "centering")
        want = sum(tau[i] * grads[i] for i in grads)
        assert np.max(np.abs(s1.finalize(record) - want)) <= 1e-3
        assert s1.phase == "done"

    def test_weights_before_centering_rejected(self):
        s1 = _opened(ServerS1, 1, 4)
        agg = uniform_words(4, substream(90, "m"))
        with pytest.raises(ProtocolError):
            s1.finalize(encode_agg_and_weights(0, 0, serialize_ring(agg, 48), {0: 1.0}))

    def test_server_boundary_audit(self):
        # S2 never sends anything directly to S1: its aggregate and
        # weights travel via the ledger only.
        rng = substream(91, "sm")
        grads = {i: rng.uniform(-1, 1, size=10) for i in range(4)}
        _, _, _, channel, _, _ = _drive_round(grads, 92)
        def kinds(src, dst):
            return {k for s, d, k in channel.log if s == src and d == dst}
        assert kinds("S2", "S1") == set()
        assert kinds("S1", "S2") == {"CenteredBatch"}
        assert kinds("ledger", "S1") == {"AggDigestAndWeights"}
        client_kinds = {k for s, d, k in channel.log if s.startswith("client")}
        assert client_kinds == {"ShareUpload"}
        assert not any(d.startswith("client") for _, d, _ in channel.log)


class TestTypedDecodeErrors:
    def _share_upload(self):
        sh1, _ = split_and_mask(np.ones(4), 16, substream(93, "m"))
        return _upload(0, 0, 1, sh1)

    def _batch(self):
        rows = np.stack([uniform_words(4, substream(94, "b", k)) for k in range(3)])
        return _batch(0, 1, [0, 1, 2], rows)

    @pytest.mark.parametrize("cut", [1, 2, 5, 9, 10, 41])
    def test_truncated_share_upload(self, cut):
        msg = self._share_upload()
        short = ProtocolMessage(msg.kind, msg.round, msg.sender, bytes(msg.payload)[:-cut])
        with pytest.raises(FormatError):
            decode_share_upload(short)
        with pytest.raises(FormatError):
            _opened(ServerS1, 1, 4).receive_share(short)

    def test_padded_share_upload(self):
        msg = self._share_upload()
        long = ProtocolMessage(msg.kind, msg.round, msg.sender, bytes(msg.payload) + b"\0")
        with pytest.raises(FormatError):
            decode_share_upload(long)

    def test_share_index_out_of_range(self):
        msg = self._share_upload()
        raw = bytearray(msg.payload)
        raw[4] = 3
        with pytest.raises(FormatError):
            decode_share_upload(ProtocolMessage(msg.kind, 0, 0, bytes(raw)))

    @pytest.mark.parametrize("size", range(10))
    @pytest.mark.parametrize("share_index", [1, 3])
    def test_upload_shorter_than_its_head(self, size, share_index):
        # The 10-byte head is client id u32, share index u8, d u32, scale
        # u8.  Below 5 bytes the size fails first; from 5 bytes on a bad
        # share index fails before the short ring header.
        raw = bytearray(self._share_upload().payload)
        raw[4] = share_index
        if size < 5:
            message = f"ShareUpload of {size} bytes is shorter than its header"
        elif share_index == 3:
            message = "share index 3 is neither 1 nor 2"
        else:
            message = "ring payload shorter than its header"
        with pytest.raises(FormatError) as caught:
            decode_share_upload(ProtocolMessage(MSG_SHARE_UPLOAD, 0, 0, bytes(raw[:size])))
        assert str(caught.value) == message

    @pytest.mark.parametrize("d,message", [(3, "expected 24 word bytes, got 32"),
                                           (5, "expected 40 word bytes, got 32")])
    def test_upload_head_disagrees_with_its_body_by_one_word(self, d, message):
        raw = bytearray(self._share_upload().payload)  # d = 4: 32 word bytes
        struct.pack_into("<I", raw, 5, d)
        with pytest.raises(FormatError) as caught:
            decode_share_upload(ProtocolMessage(MSG_SHARE_UPLOAD, 0, 0, bytes(raw)))
        assert str(caught.value) == message

    @pytest.mark.parametrize("cut", [1, 8, 32, 49, 50, 51, 150])
    def test_truncated_centered_batch(self, cut):
        msg = self._batch()
        with pytest.raises(FormatError):
            decode_centered_batch(ProtocolMessage(msg.kind, 0, 1, bytes(msg.payload)[:-cut]))

    @pytest.mark.parametrize("extra", [b"\0", b"junk", bytes(49)])
    def test_padded_centered_batch(self, extra):
        msg = self._batch()
        with pytest.raises(FormatError):
            decode_centered_batch(ProtocolMessage(msg.kind, 0, 1, bytes(msg.payload) + extra))

    def test_centered_batch_with_mixed_dimensions(self):
        # Every record must carry record 0's ring length, d and scale: each
        # field of the first, second and last record is rewritten alone,
        # so a decode that checked record 0 alone would accept the later
        # ones.
        msg = self._batch()  # three records of d = 4, 17 + 32 bytes each
        decode_centered_batch(msg)
        fields = {"length": (4, "<Q", 5 + 8 * 3), "d": (12, "<I", 3), "scale": (16, "<B", 17)}
        for record in (0, 1, 2):
            for offset, fmt, value in fields.values():
                raw = bytearray(msg.payload)
                struct.pack_into(fmt, raw, 4 + record * (17 + 8 * 4) + offset, value)
                with pytest.raises(FormatError):
                    decode_centered_batch(ProtocolMessage(msg.kind, 0, 1, bytes(raw)))

    def _agg(self):
        agg = uniform_words(4, substream(95, "a"))
        return agg, encode_agg_and_weights(0, 0, serialize_ring(agg, 48),
                                           {0: 0.25, 1: 0.5, 4: 0.25})

    def test_agg_and_weights_layout(self):
        agg, msg = self._agg()
        assert bytes(msg.payload) == b"".join((
            struct.pack("<I", 3), struct.pack("<Id", 0, 0.25), struct.pack("<Id", 1, 0.5),
            struct.pack("<Id", 4, 0.25), struct.pack("<IB", 4, 48),
            agg.astype("<u8").tobytes()))

    def test_agg_and_weights_truncated_or_padded(self):
        # Every truncation and 100 seeded random tails are rejected.
        payload = bytes(self._agg()[1].payload)
        rng = substream(96, "agg-fuzz")
        tails = [rng.integers(0, 256, size=int(rng.integers(1, 48)), dtype=np.uint8).tobytes()
                 for _ in range(100)]
        for bad in [payload[:cut] for cut in range(len(payload))] + \
                   [payload + tail for tail in tails]:
            with pytest.raises(FormatError):
                decode_agg_and_weights(ProtocolMessage(MSG_AGG_AND_WEIGHTS, 0, 0, bad))

    @pytest.mark.parametrize("count", [0, 1, 2, 4, 6, 2**32 - 1])
    def test_agg_and_weights_count_mismatch(self, count):
        raw = bytearray(self._agg()[1].payload)
        struct.pack_into("<I", raw, 0, count)
        with pytest.raises(FormatError):
            decode_agg_and_weights(ProtocolMessage(MSG_AGG_AND_WEIGHTS, 0, 0, bytes(raw)))

    @pytest.mark.parametrize("ids", [(1, 0, 4), (0, 1, 1)])
    def test_agg_and_weights_ids_must_ascend(self, ids):
        raw = bytearray(self._agg()[1].payload)
        for k, cid in enumerate(ids):
            struct.pack_into("<I", raw, 4 + 12 * k, cid)
        with pytest.raises(FormatError):
            decode_agg_and_weights(ProtocolMessage(MSG_AGG_AND_WEIGHTS, 0, 0, bytes(raw)))


class TestShareMatrixChecks:
    def test_dimension_change_rejected(self):
        s1 = _opened(ServerS1, 2, 4)
        a, _ = split_and_mask(np.ones(4), 16, substream(95, "m"))
        b, _ = split_and_mask(np.ones(5), 16, substream(95, "m"))
        s1.receive_share(_upload(0, 0, 1, a))
        with pytest.raises(ProtocolError):
            s1.receive_share(_upload(1, 0, 1, b))

    def test_scale_change_rejected(self):
        s1 = _opened(ServerS1, 2, 4)
        a, _ = split_and_mask(np.ones(4), 16, substream(96, "m"))
        b, _ = split_and_mask(np.ones(4), 20, substream(96, "m"))
        s1.receive_share(_upload(0, 0, 1, a))
        with pytest.raises(ProtocolError):
            s1.receive_share(_upload(1, 0, 1, b, 20))

    def test_rows_follow_client_id_order(self):
        # Uploads arrive in any order; row k holds client k's share.
        arrival = [2, 0, 1]
        s1 = _opened(ServerS1, 3, 3)
        rings = {cid: split_and_mask(np.full(3, float(cid)), 16, substream(97, cid))[0]
                 for cid in arrival}
        for cid in arrival:
            s1.receive_share(_upload(cid, 0, 1, rings[cid]))
        for k in range(3):
            assert np.array_equal(s1.shares[k], rings[k])

    def test_reused_server_rejects_a_round_with_a_missing_upload(self):
        # The run's servers keep their share matrices across rounds, so in
        # round 1 client 2's row still holds its round-0 share; centring
        # must still wait for its round-1 upload.
        rng = substream(100, "reuse")
        grads = {i: rng.uniform(-1, 1, size=6) for i in range(3)}
        *_, s1, s2 = _drive_round(grads, 101)
        rows = {1: s1.shares.copy(), 2: s2.shares.copy()}
        s1.start_round(1)
        s2.start_round(1)
        for cid in (0, 1):
            sh1, sh2 = split_and_mask(grads[cid], 16, substream(102, "mask", cid))
            s1.receive_share(_upload(cid, 1, 1, sh1))
            s2.receive_share(_upload(cid, 1, 2, sh2))
        assert np.array_equal(s1.shares[2], rows[1][2])
        assert np.array_equal(s2.shares[2], rows[2][2])
        with pytest.raises(ProtocolError, match=r"clients \[2\]"):
            s1.center_shares()
        batch = _batch(1, 1, [0, 1, 2], rows[1])
        with pytest.raises(ProtocolError, match=r"clients \[2\]"):
            s2.receive_centered_batch(batch)

    def test_reused_server_keeps_the_run_shape(self):
        # d and scale_bits are fixed at construction: in round 0 and in a
        # later round, a share of another d or scale is rejected whether
        # or not one of the round's shares has arrived, and every round
        # refills the same share matrices.  S2 decodes each round's
        # centered gradients into that round's batch, so between rounds it
        # holds no float matrix at all.
        def float_matrices(server):
            return [name for name, value in vars(server).items()
                    if isinstance(value, np.ndarray) and value.dtype.kind == "f"
                    and value.ndim == 2]

        rng = substream(103, "run-shape")
        grads = {i: rng.uniform(-1, 1, size=5) for i in range(3)}
        s1, s2 = ServerS1(3, 5, 16), ServerS2(3, 5, 16, 0.5, "soft")
        matrices = s1.shares, s2.shares
        assert float_matrices(s2) == []
        wrong = [(split_and_mask(np.ones(4), 16, substream(103, "m"))[0], 16),
                 (split_and_mask(np.ones(5), 20, substream(103, "m"))[0], 20)]
        for round_no in range(2):
            s1.start_round(round_no)
            s2.start_round(round_no)
            for cid, g in grads.items():
                for words, scale_bits in wrong:
                    for server, index in ((s1, 1), (s2, 2)):
                        with pytest.raises(ProtocolError, match="run has d=5, scale_bits=16"):
                            server.receive_share(_upload(cid, round_no, index, words, scale_bits))
                sh1, sh2 = split_and_mask(g, 16, substream(104, "mask", cid, round_no))
                s1.receive_share(_upload(cid, round_no, 1, sh1))
                s2.receive_share(_upload(cid, round_no, 2, sh2))
            s2.receive_centered_batch(s1.center_shares())
            _, row_weights = s2.detect_and_weigh(substream(105, "km"))
            tau = dict(enumerate(row_weights.tolist()))
            record = encode_agg_and_weights(round_no, 0, s2.publish(), tau)
            want = sum(tau[cid] * g for cid, g in grads.items())
            assert np.max(np.abs(s1.finalize(record) - want)) <= 1e-3
            assert all(now is kept for now, kept in zip((s1.shares, s2.shares), matrices))
            assert float_matrices(s2) == []

    def test_no_round_open_before_start_round(self):
        sh1, _ = split_and_mask(np.ones(4), 16, substream(104, "m"))
        with pytest.raises(ProtocolError):
            ServerS1(1, 4, 16).receive_share(_upload(0, 0, 1, sh1))

    def test_batch_for_other_clients_rejected(self):
        rng = substream(98, "sm")
        grads = {i: rng.uniform(-1, 1, size=6) for i in range(3)}
        s2 = _opened(ServerS2, 3, 6)
        for cid, g in grads.items():
            _, sh2 = split_and_mask(g, 16, substream(99, "mask", cid))
            s2.receive_share(_upload(cid, 0, 2, sh2))
        rows = np.stack([uniform_words(6, rng) for _ in range(3)])
        with pytest.raises(ClientSetMismatch):
            s2.receive_centered_batch(_batch(0, 1, [0, 1, 5], rows))


class TestBatchOwnership:
    """Once received, the CenteredBatch belongs to S2, which decodes the
    round's centered gradients into its bytes and drops it after
    detection."""

    def _s2_with_batch(self, seed):
        rng = substream(seed, "own")
        grads = {i: rng.uniform(-1, 1, size=6) for i in range(4)}
        s1, s2 = _opened(ServerS1, 4, 6), _opened(ServerS2, 4, 6)
        for cid, g in grads.items():
            sh1, sh2 = split_and_mask(g, 16, substream(seed, "mask", cid))
            s1.receive_share(_upload(cid, 0, 1, sh1))
            s2.receive_share(_upload(cid, 0, 2, sh2))
        return s2, s1.center_shares()

    def test_read_only_batch_is_rejected_before_any_state_changes(self):
        # A payload S2 cannot write, like decode_message over bytes, is a
        # ProtocolError, never a silent copy; the same wire in a writable
        # buffer (its float view then starts unaligned) is accepted and
        # decodes as the sent batch does.
        s2, batch = self._s2_with_batch(110)
        wire = encode_message(batch)
        shares = s2.shares.copy()
        with pytest.raises(ProtocolError, match="read-only"):
            s2.receive_centered_batch(decode_message(wire))
        assert s2.phase == "collecting"
        assert np.array_equal(s2.shares, shares)
        assert not hasattr(s2, "_centered")
        s2.receive_centered_batch(decode_message(bytearray(wire)))
        got = s2.detect_and_weigh(substream(111, "km"))
        ref, batch = self._s2_with_batch(110)
        ref.receive_centered_batch(batch)
        want = ref.detect_and_weigh(substream(111, "km"))
        assert np.array_equal(got[0].features, want[0].features)
        assert np.array_equal(got[1], want[1])

    def test_detection_releases_the_batch(self):
        s2, batch = self._s2_with_batch(112)
        buffer = weakref.ref(batch.payload.obj)
        s2.receive_centered_batch(Channel().send("S1", "S2", batch))
        del batch
        assert buffer() is not None
        s2.detect_and_weigh(substream(113, "km"))
        assert buffer() is None

    def test_batch_of_another_width_is_a_dimension_mismatch(self):
        # Checked before S2 lays its float rows over the payload, which
        # would be too short for the run's d.
        s2, _ = self._s2_with_batch(114)
        rows = np.stack([uniform_words(4, substream(114, "narrow", k)) for k in range(4)])
        with pytest.raises(DimensionMismatch, match=r"\(4, 16\), expected \(6, 16\)"):
            s2.receive_centered_batch(_batch(0, 1, [0, 1, 2, 3], rows))
        assert s2.phase == "collecting"
