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
from dp2guard.numeric import decode_fixed, encode_fixed, substream, uniform_words
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
    mean_center,
    partial_aggregate,
    reassemble_global,
    reconstruct_centered,
)
from dp2guard.trust import initial_trust

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
    return np.stack([row.copy() for row in mean_center(shares)])


def _reconstruct(s1: np.ndarray, s2: np.ndarray, scale_bits=16) -> np.ndarray:
    return reconstruct_centered(_centered(s1), s2, scale_bits, np.empty(s2.shape))


def _opened(server_cls, ids, d, round_no=0, scale_bits=16):
    """A server for `ids`, sized for d words at `scale_bits`, with round
    `round_no` open, as the round loop opens each round on the run's
    servers."""
    server = server_cls(ids, d, scale_bits)
    server.start_round(round_no)
    return server


def _weights(tau: dict[int, float]) -> list[float]:
    return [tau[cid] for cid in sorted(tau)]


class TestMeanCenter:
    def test_identical_shares_center_to_zero(self):
        rng = substream(60, "mc")
        share = uniform_words(12, rng)
        for row in mean_center(np.stack([share] * 5)):
            assert not np.any(row)

    def test_centered_shares_sum_to_zero(self):
        rng = substream(61, "mc")
        shares = np.stack([uniform_words(8, rng) for _ in range(7)])
        total = np.zeros(8, dtype=np.uint64)
        for row in mean_center(shares):
            total += row
        assert not np.any(total)

    def test_rows_match_scalar_ring_formula(self):
        rng = substream(59, "mc")
        shares = np.stack([uniform_words(5, rng) for _ in range(4)])
        total = shares[0] + shares[1] + shares[2] + shares[3]
        for k, row in enumerate(mean_center(shares)):
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

    def test_needs_two_shares(self):
        with pytest.raises(ValueError):
            mean_center(uniform_words(4, substream(63, "mc"))[None, :])


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
        batch = encode_centered_batch(0, 1, list(range(n)), mean_center(s1), d, 16)
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
        agg = partial_aggregate(share[None, :], [1.0])
        assert np.max(np.abs(decode_fixed(agg, 48) - decode_fixed(share, 16))) <= 2.0**-32

    def test_uniform_weights_reproduce_fedavg_numerator(self):
        rng = substream(70, "pa")
        grads = {i: rng.uniform(-2, 2, size=8) for i in range(4)}
        s1, s2 = _masked_pair(grads, 71)
        w = [0.25] * 4
        combined = np.add(partial_aggregate(s1, w), partial_aggregate(s2, w))
        want = np.mean(list(grads.values()), axis=0)
        assert np.max(np.abs(decode_fixed(combined, 48) - want)) <= 1e-4

    def test_random_weights_match_plaintext_oracle(self):
        rng = substream(72, "pa")
        for trial in range(20):
            grads = {i: rng.uniform(-5, 5, size=12) for i in range(6)}
            raw = rng.uniform(0.01, 1.0, size=6)
            tau = {i: float(w) for i, w in enumerate(raw / raw.sum())}
            s1, s2 = _masked_pair(grads, 73 + trial)
            combined = np.add(partial_aggregate(s1, _weights(tau)),
                              partial_aggregate(s2, _weights(tau)))
            want = sum(tau[i] * grads[i] for i in range(6))
            assert np.max(np.abs(decode_fixed(combined, 48) - want)) <= 1e-4

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
            assert np.array_equal(partial_aggregate(shares, w), want)

    def test_weight_validation(self):
        share = encode_fixed(np.ones(4), 16)
        with pytest.raises(WeightError):
            partial_aggregate(share[None, :], [0.5])
        with pytest.raises(WeightError):
            partial_aggregate(np.stack([share, share]), [1.5, -0.5])
        with pytest.raises(WeightError):
            partial_aggregate(share[None, :], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_is_a_weight_error(self, bad):
        # NaN passes a plain |sum - 1| check and would fail later, in the
        # fixed-point rounding, with a bare ValueError.
        share = encode_fixed(np.ones(4), 16)
        with pytest.raises(WeightError):
            partial_aggregate(np.stack([share, share]), [bad, 0.5])
        with pytest.raises(WeightError):
            partial_aggregate(share[None, :], [bad])


class TestReassemble:
    def test_zero_gradients_zero_aggregate(self):
        grads = {i: np.zeros(6) for i in range(3)}
        s1, s2 = _masked_pair(grads, 74)
        w = [1.0 / 3.0] * 3
        out = reassemble_global(partial_aggregate(s1, w), partial_aggregate(s2, w), 48)
        assert np.max(np.abs(out)) <= 1e-9

    def test_uniform_fedavg_oracle(self):
        rng = substream(75, "ra")
        grads = {i: rng.uniform(-1, 1, size=30) for i in range(10)}
        s1, s2 = _masked_pair(grads, 76)
        w = [0.1] * 10
        out = reassemble_global(partial_aggregate(s1, w), partial_aggregate(s2, w), 48)
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
    out = reassemble_global(partial_aggregate(s1, _weights(tau)),
                            partial_aggregate(s2, _weights(tau)), 48)

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
            encode_centered_batch(6, 1, [0, 2, 5], rows, 7, 16),
            encode_agg_and_weights(6, 0, uniform_words(7, rng), 48,
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
            encode_centered_batch(4, 1, [1, 3, 7], rows, 6, 16))
        assert ids == [1, 3, 7] and scale_bits == 16
        assert np.array_equal(back, rows)

    def test_centered_batch_layout(self):
        # Per record: id, ring blob length, then the ring blob (d, scale
        # bits, words), after a record count.
        rows = np.stack([uniform_words(2, substream(80, "l", k)) for k in range(2)])
        msg = encode_centered_batch(4, 1, [3, 8], rows, 2, 16)
        want = struct.pack("<I", 2)
        for cid, row in zip([3, 8], rows):
            blob = struct.pack("<IB", 2, 16) + row.astype("<u8").tobytes()
            want += struct.pack("<IQ", cid, len(blob)) + blob
        assert bytes(msg.payload) == want

    def test_centered_batch_accepts_reused_row_buffer(self):
        rng = substream(80, "reuse")
        rows = np.stack([uniform_words(5, rng) for _ in range(3)])

        def one_buffer():
            buf = np.empty(5, dtype=np.uint64)
            for row in rows:
                buf[...] = row
                yield buf
        msg = encode_centered_batch(0, 1, [0, 1, 2], one_buffer(), 5, 16)
        assert np.array_equal(decode_centered_batch(msg)[1], rows)

    def test_agg_and_weights_round_trip_bit_exact(self):
        agg = uniform_words(5, substream(81, "w"))
        tau = {0: 0.1, 1: 0.7, 2: 0.2}
        words, scale_bits, back = decode_agg_and_weights(
            encode_agg_and_weights(3, 2, agg, 48, tau))
        assert back == tau  # doubles survive bit-exactly
        assert np.array_equal(words, agg) and scale_bits == 48


def _drive_to_publish(grads, seed, round_no=0, beta=0.5, exclusion="soft"):
    """Run a round up to S2's weights; returns
    (s1, s2, detection, new_trust, tau, channel) with tau keyed by client
    id, as the ledger records it."""
    ids = sorted(grads)
    d = len(grads[ids[0]])
    channel = RecordingChannel()
    s1 = _opened(ServerS1, ids, d, round_no)
    s2 = _opened(ServerS2, ids, d, round_no)
    for cid in ids:
        sh1, sh2 = split_and_mask(grads[cid], 16, substream(seed, "mask", cid))
        s1.receive_share(channel.send(f"client{cid}", "S1",
                                      _upload(cid, round_no, 1, sh1)))
        s2.receive_share(channel.send(f"client{cid}", "S2",
                                      _upload(cid, round_no, 2, sh2)))
    s2.receive_centered_batch(channel.send("S1", "S2", s1.center_shares()))
    detection, new_trust, row_weights = s2.detect_and_weigh(
        initial_trust(len(ids), beta), substream(seed, "km"), exclusion)
    return s1, s2, detection, new_trust, dict(zip(ids, row_weights.tolist())), channel


def _drive_round(grads, seed, round_no=0, beta=0.5):
    s1, s2, detection, _, tau, channel = _drive_to_publish(grads, seed, round_no, beta)
    record = encode_agg_and_weights(round_no, 0, *s2.publish(), tau)
    s1.receive_agg_and_weights(channel.send("ledger", "S1", record))
    return s1.finalize(), detection, tau, channel, s1, s2


class TestServerStateMachines:
    def test_full_round_matches_weighted_plaintext(self):
        rng = substream(82, "sm")
        grads = {i: rng.uniform(-2, 2, size=40) for i in range(6)}
        global_grad, detection, tau, channel, _, _ = _drive_round(grads, 83)
        want = sum(tau[i] * grads[i] for i in grads)
        assert np.max(np.abs(global_grad - want)) <= 1e-3

    @pytest.mark.parametrize("exclusion", ["soft", "hard"])
    def test_detection_rows_map_to_client_ids(self, exclusion):
        # Detection, trust and weights name rows; row k is the k-th
        # smallest client id.  The same gradients under non-contiguous ids
        # give the same detection, trust and weights, hard-exclusion zeros
        # included, keyed by those ids.
        rng = substream(104, "ids")
        rows = rng.uniform(-1, 1, size=(8, 12))
        rows[:2] += 4.0  # two outliers, so hard exclusion zeroes someone
        named = [3, 8, 11, 12, 20, 31, 40, 77]
        _, _, base, base_trust, base_tau, _ = _drive_to_publish(
            dict(enumerate(rows)), 105, exclusion=exclusion)
        _, _, got, trust, tau, _ = _drive_to_publish(
            dict(zip(named, rows)), 105, exclusion=exclusion)
        assert got.benign == base.benign and not {0, 1} & got.benign
        assert np.array_equal(got.features, base.features)
        assert np.array_equal(trust.trust, base_trust.trust)
        assert tau == {cid: base_tau[k] for k, cid in enumerate(named)}
        zeros = {cid for cid, w in tau.items() if w == 0.0}
        assert zeros == ({3, 8} if exclusion == "hard" else set())

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
        s1, s2, _, _, tau, _ = _drive_to_publish(grads, 103)
        record = encode_agg_and_weights(0, 0, *s2.publish(),
                                        self._other_clients(tau, change))
        s1.receive_agg_and_weights(record)
        with pytest.raises(WeightError):
            s1.finalize()

    @pytest.mark.parametrize("d,scale_bits", [(4, 48), (6, 48), (5, 16), (5, 47), (5, 49)])
    def test_finalize_rejects_a_forged_aggregate(self, d, scale_bits):
        # The round has d = 5 at scale 16, so the aggregate read back from
        # the ledger must hold 5 words at 16 + WEIGHT_BITS = 48 fractional
        # bits; any other shape is a typed error, not a broadcast or a
        # silently rescaled decode.
        rng = substream(106, "forged")
        grads = {i: rng.uniform(-1, 1, size=5) for i in range(4)}
        s1, s2, _, _, tau, channel = _drive_to_publish(grads, 107)
        assert s2.publish()[1] == 48
        forged = encode_agg_and_weights(0, 0, uniform_words(d, rng), scale_bits, tau)
        s1.receive_agg_and_weights(channel.send("ledger", "S1", forged))
        with pytest.raises(DimensionMismatch):
            s1.finalize()

    def test_share_after_centering_rejected(self):
        rng = substream(84, "sm")
        grads = {i: rng.uniform(-1, 1, size=8) for i in range(3)}
        ids = sorted(grads)
        s1 = _opened(ServerS1, ids, 8)
        for cid in ids:
            sh1, _ = split_and_mask(grads[cid], 16, substream(85, "m", cid))
            s1.receive_share(_upload(cid, 0, 1, sh1))
        s1.center_shares()
        sh1, _ = split_and_mask(grads[0], 16, substream(85, "m", 99))
        with pytest.raises(ProtocolError):
            s1.receive_share(_upload(0, 0, 1, sh1))

    def test_centering_before_all_shares_rejected(self):
        s1 = _opened(ServerS1, [0, 1, 2], 4)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(86, "m"))
        s1.receive_share(_upload(0, 0, 1, sh1))
        with pytest.raises(ProtocolError):
            s1.center_shares()

    def test_wrong_round_rejected(self):
        s1 = _opened(ServerS1, [0], 4, 5)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(87, "m"))
        with pytest.raises(ProtocolError):
            s1.receive_share(_upload(0, 4, 1, sh1))

    def test_duplicate_and_unknown_clients_rejected(self):
        s1 = _opened(ServerS1, [0, 1], 4)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(88, "m"))
        msg = _upload(0, 0, 1, sh1)
        s1.receive_share(msg)
        with pytest.raises(ProtocolError):
            s1.receive_share(msg)
        with pytest.raises(ProtocolError):
            s1.receive_share(_upload(9, 0, 1, sh1))

    def test_share_index_must_match_server(self):
        s2 = _opened(ServerS2, [0], 4)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(89, "m"))
        with pytest.raises(ProtocolError):
            s2.receive_share(_upload(0, 0, 1, sh1))

    def test_weights_before_centering_rejected(self):
        s1 = _opened(ServerS1, [0], 4)
        agg = uniform_words(4, substream(90, "m"))
        with pytest.raises(ProtocolError):
            s1.receive_agg_and_weights(encode_agg_and_weights(0, 0, agg, 48, {0: 1.0}))

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
        return encode_centered_batch(0, 1, [0, 1, 2], rows, 4, 16)

    @pytest.mark.parametrize("cut", [1, 2, 5, 9, 10, 41])
    def test_truncated_share_upload(self, cut):
        msg = self._share_upload()
        short = ProtocolMessage(msg.kind, msg.round, msg.sender, bytes(msg.payload)[:-cut])
        with pytest.raises(FormatError):
            decode_share_upload(short)
        with pytest.raises(FormatError):
            _opened(ServerS1, [0], 4).receive_share(short)

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
        msg = self._batch()
        raw = bytearray(msg.payload)
        struct.pack_into("<I", raw, 4 + 12 + 0, 3)  # record 0 claims d = 3
        with pytest.raises(FormatError):
            decode_centered_batch(ProtocolMessage(msg.kind, 0, 1, bytes(raw)))

    def _agg(self):
        agg = uniform_words(4, substream(95, "a"))
        return agg, encode_agg_and_weights(0, 0, agg, 48, {0: 0.25, 1: 0.5, 4: 0.25})

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
        s1 = _opened(ServerS1, [0, 1], 4)
        a, _ = split_and_mask(np.ones(4), 16, substream(95, "m"))
        b, _ = split_and_mask(np.ones(5), 16, substream(95, "m"))
        s1.receive_share(_upload(0, 0, 1, a))
        with pytest.raises(ProtocolError):
            s1.receive_share(_upload(1, 0, 1, b))

    def test_scale_change_rejected(self):
        s1 = _opened(ServerS1, [0, 1], 4)
        a, _ = split_and_mask(np.ones(4), 16, substream(96, "m"))
        b, _ = split_and_mask(np.ones(4), 20, substream(96, "m"))
        s1.receive_share(_upload(0, 0, 1, a))
        with pytest.raises(ProtocolError):
            s1.receive_share(_upload(1, 0, 1, b, 20))

    def test_rows_follow_client_id_order(self):
        # Uploads arrive in any order; row k holds the k-th smallest id.
        ids = [7, 2, 5]
        s1 = _opened(ServerS1, ids, 3)
        rings = {cid: split_and_mask(np.full(3, float(cid)), 16, substream(97, cid))[0]
                 for cid in ids}
        for cid in ids:
            s1.receive_share(_upload(cid, 0, 1, rings[cid]))
        assert s1.ids == [2, 5, 7]
        for k, cid in enumerate(sorted(ids)):
            assert np.array_equal(s1.shares[k], rings[cid])

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
        batch = encode_centered_batch(1, 1, [0, 1, 2], rows[1], 6, 16)
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
        s1, s2 = ServerS1(grads, 5, 16), ServerS2(grads, 5, 16)
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
            _, _, row_weights = s2.detect_and_weigh(initial_trust(3, 0.5), substream(105, "km"))
            tau = dict(zip(s2.ids, row_weights.tolist()))
            s1.receive_agg_and_weights(encode_agg_and_weights(round_no, 0, *s2.publish(), tau))
            want = sum(tau[cid] * g for cid, g in grads.items())
            assert np.max(np.abs(s1.finalize() - want)) <= 1e-3
            assert all(now is kept for now, kept in zip((s1.shares, s2.shares), matrices))
            assert float_matrices(s2) == []

    def test_no_round_open_before_start_round(self):
        sh1, _ = split_and_mask(np.ones(4), 16, substream(104, "m"))
        with pytest.raises(ProtocolError):
            ServerS1([0], 4, 16).receive_share(_upload(0, 0, 1, sh1))

    def test_batch_for_other_clients_rejected(self):
        rng = substream(98, "sm")
        grads = {i: rng.uniform(-1, 1, size=6) for i in range(3)}
        s2 = _opened(ServerS2, sorted(grads), 6)
        for cid, g in grads.items():
            _, sh2 = split_and_mask(g, 16, substream(99, "mask", cid))
            s2.receive_share(_upload(cid, 0, 2, sh2))
        rows = np.stack([uniform_words(6, rng) for _ in range(3)])
        with pytest.raises(ClientSetMismatch):
            s2.receive_centered_batch(encode_centered_batch(0, 1, [0, 1, 5], rows, 6, 16))


class TestBatchOwnership:
    """Once received, the CenteredBatch belongs to S2, which decodes the
    round's centered gradients into its bytes and drops it after
    detection."""

    def _s2_with_batch(self, seed):
        rng = substream(seed, "own")
        grads = {i: rng.uniform(-1, 1, size=6) for i in range(4)}
        s1, s2 = _opened(ServerS1, sorted(grads), 6), _opened(ServerS2, sorted(grads), 6)
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
        got = s2.detect_and_weigh(initial_trust(4, 0.5), substream(111, "km"))
        ref, batch = self._s2_with_batch(110)
        ref.receive_centered_batch(batch)
        want = ref.detect_and_weigh(initial_trust(4, 0.5), substream(111, "km"))
        assert np.array_equal(got[0].features, want[0].features)
        assert np.array_equal(got[2], want[2])

    def test_detection_releases_the_batch(self):
        s2, batch = self._s2_with_batch(112)
        buffer = weakref.ref(batch.payload.obj)
        s2.receive_centered_batch(Channel().send("S1", "S2", batch))
        del batch
        assert buffer() is not None
        s2.detect_and_weigh(initial_trust(4, 0.5), substream(113, "km"))
        assert buffer() is None

    def test_batch_of_another_width_is_a_dimension_mismatch(self):
        # Checked before S2 lays its float rows over the payload, which
        # would be too short for the run's d.
        s2, _ = self._s2_with_batch(114)
        rows = np.stack([uniform_words(4, substream(114, "narrow", k)) for k in range(4)])
        with pytest.raises(DimensionMismatch, match=r"\(4, 16\), expected \(6, 16\)"):
            s2.receive_centered_batch(encode_centered_batch(0, 1, [0, 1, 2, 3], rows, 4, 16))
        assert s2.phase == "collecting"
