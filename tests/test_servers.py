import numpy as np
import pytest

from dp2guard.client import MaskedShare, split_and_mask
from dp2guard.errors import ClientSetMismatch, ProtocolError, WeightError
from dp2guard.numeric import (
    decode_fixed,
    encode_fixed,
    ring_add,
    substream,
    uniform_ring,
)
from dp2guard.servers import (
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


def _masked_pair(grads: dict[int, np.ndarray], seed: int, scale_bits=16):
    shares1, shares2 = {}, {}
    for cid, g in grads.items():
        s1, s2 = split_and_mask(g, scale_bits, substream(seed, "mask", cid))
        shares1[cid], shares2[cid] = s1, s2
    return shares1, shares2


class TestMeanCenter:
    def test_identical_shares_center_to_zero(self):
        rng = substream(60, "mc")
        share = uniform_ring(12, 16, rng)
        centered = mean_center([share] * 5)
        for c in centered:
            assert not np.any(c.words)

    def test_centered_shares_sum_to_zero(self):
        rng = substream(61, "mc")
        shares = [uniform_ring(8, 16, rng) for _ in range(7)]
        centered = mean_center(shares)
        total = centered[0]
        for c in centered[1:]:
            total = ring_add(total, c)
        assert not np.any(total.words)

    def test_three_client_plaintext_oracle(self):
        # After reconstruction, centered gradients match plaintext centering
        # of the decoded values within 2^-14 per entry.
        grads = {0: np.array([1.0, -2.0]), 1: np.array([0.5, 0.5]),
                 2: np.array([-1.5, 4.0])}
        s1, s2 = _masked_pair(grads, 62)
        c1 = dict(zip(sorted(s1), mean_center([s1[c] for c in sorted(s1)])))
        c2 = dict(zip(sorted(s2), mean_center([s2[c] for c in sorted(s2)])))
        centered = reconstruct_centered(c1, c2)
        mean = np.mean(list(grads.values()), axis=0)
        for cid, g in grads.items():
            assert np.max(np.abs(centered[cid] - (g - mean))) <= 2.0**-14

    def test_needs_two_shares(self):
        with pytest.raises(ValueError):
            mean_center([uniform_ring(4, 16, substream(63, "mc"))])


class TestReconstructCentered:
    def test_recovers_plaintext_up_to_global_mean(self):
        rng = substream(64, "rc")
        grads = {i: rng.uniform(-3, 3, size=20) for i in range(6)}
        s1, s2 = _masked_pair(grads, 65)
        c1 = dict(zip(sorted(s1), mean_center([s1[c] for c in sorted(s1)])))
        c2 = dict(zip(sorted(s2), mean_center([s2[c] for c in sorted(s2)])))
        centered = reconstruct_centered(c1, c2)
        mean = np.mean(list(grads.values()), axis=0)
        for cid in grads:
            assert np.max(np.abs((centered[cid] + mean) - grads[cid])) <= 2.0**-13

    def test_identical_gradients_center_to_zero(self):
        g = np.linspace(-1, 1, 16)
        grads = {i: g for i in range(4)}
        s1, s2 = _masked_pair(grads, 66)
        c1 = dict(zip(sorted(s1), mean_center([s1[c] for c in sorted(s1)])))
        c2 = dict(zip(sorted(s2), mean_center([s2[c] for c in sorted(s2)])))
        centered = reconstruct_centered(c1, c2)
        for vec in centered.values():
            assert np.max(np.abs(vec)) <= 2.0**-14

    def test_mask_independence_bit_identical(self):
        # Fresh masks (new seeds) leave every reconstructed centered
        # gradient bit-identical: the ring arithmetic cancels them exactly.
        rng = substream(67, "rc")
        grads = {i: rng.uniform(-2, 2, size=10) for i in range(5)}

        def run(mask_seed):
            s1, s2 = _masked_pair(grads, mask_seed)
            c1 = dict(zip(sorted(s1), mean_center([s1[c] for c in sorted(s1)])))
            c2 = dict(zip(sorted(s2), mean_center([s2[c] for c in sorted(s2)])))
            return reconstruct_centered(c1, c2)

        a = run(680)
        b = run(681)
        for cid in grads:
            assert np.array_equal(a[cid], b[cid])

    def test_client_set_mismatch(self):
        rng = substream(69, "rc")
        shares = {i: uniform_ring(4, 16, rng) for i in range(3)}
        with pytest.raises(ClientSetMismatch):
            reconstruct_centered(shares, {0: shares[0], 1: shares[1]})


class TestPartialAggregate:
    def test_single_client_identity(self):
        g = np.array([0.25, -1.5, 3.0])
        share = encode_fixed(g, 16)
        agg = partial_aggregate({0: share}, {0: 1.0})
        assert agg.scale_bits == 48
        assert np.max(np.abs(decode_fixed(agg) - decode_fixed(share))) <= 2.0**-32

    def test_uniform_weights_reproduce_fedavg_numerator(self):
        rng = substream(70, "pa")
        grads = {i: rng.uniform(-2, 2, size=8) for i in range(4)}
        s1, s2 = _masked_pair(grads, 71)
        tau = {i: 0.25 for i in range(4)}
        combined = ring_add(partial_aggregate(s1, tau), partial_aggregate(s2, tau))
        want = np.mean(list(grads.values()), axis=0)
        assert np.max(np.abs(decode_fixed(combined) - want)) <= 1e-4

    def test_random_weights_match_plaintext_oracle(self):
        rng = substream(72, "pa")
        for trial in range(20):
            grads = {i: rng.uniform(-5, 5, size=12) for i in range(6)}
            raw = rng.uniform(0.01, 1.0, size=6)
            tau = {i: float(w) for i, w in enumerate(raw / raw.sum())}
            s1, s2 = _masked_pair(grads, 73 + trial)
            combined = ring_add(partial_aggregate(s1, tau),
                                partial_aggregate(s2, tau))
            want = sum(tau[i] * grads[i] for i in range(6))
            assert np.max(np.abs(decode_fixed(combined) - want)) <= 1e-4

    def test_weight_validation(self):
        share = encode_fixed(np.ones(4), 16)
        with pytest.raises(WeightError):
            partial_aggregate({0: share}, {0: 0.5})
        with pytest.raises(WeightError):
            partial_aggregate({0: share, 1: share}, {0: 1.5, 1: -0.5})
        with pytest.raises(WeightError):
            partial_aggregate({0: share}, {1: 1.0})


class TestReassemble:
    def test_zero_gradients_zero_aggregate(self):
        grads = {i: np.zeros(6) for i in range(3)}
        s1, s2 = _masked_pair(grads, 74)
        tau = {i: 1.0 / 3.0 for i in range(3)}
        out = reassemble_global(partial_aggregate(s1, tau),
                                partial_aggregate(s2, tau))
        assert np.max(np.abs(out)) <= 1e-9

    def test_uniform_fedavg_oracle(self):
        rng = substream(75, "ra")
        grads = {i: rng.uniform(-1, 1, size=30) for i in range(10)}
        s1, s2 = _masked_pair(grads, 76)
        tau = {i: 0.1 for i in range(10)}
        out = reassemble_global(partial_aggregate(s1, tau),
                                partial_aggregate(s2, tau))
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
    c1 = dict(zip(sorted(s1), mean_center([s1[c] for c in sorted(s1)])))
    c2 = dict(zip(sorted(s2), mean_center([s2[c] for c in sorted(s2)])))
    centered = reconstruct_centered(c1, c2)
    out = reassemble_global(partial_aggregate(s1, tau), partial_aggregate(s2, tau))

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

    def test_share_upload_round_trip(self):
        share = MaskedShare(5, 2, 1, uniform_ring(9, 16, substream(79, "w")))
        back = decode_share_upload(encode_share_upload(share))
        assert back.client_id == 5 and back.round == 2 and back.share_index == 1
        assert np.array_equal(back.payload.words, share.payload.words)

    def test_centered_batch_round_trip(self):
        rng = substream(80, "w")
        centered = {i: uniform_ring(6, 16, rng) for i in (3, 1, 7)}
        back = decode_centered_batch(encode_centered_batch(4, 1, centered))
        assert set(back) == {1, 3, 7}
        for cid in centered:
            assert np.array_equal(back[cid].words, centered[cid].words)

    def test_agg_and_weights_round_trip_bit_exact(self):
        agg = uniform_ring(5, 48, substream(81, "w"))
        tau = {0: 0.1, 1: 0.7, 2: 0.2}
        ring, back = decode_agg_and_weights(encode_agg_and_weights(3, 2, agg, tau))
        assert back == tau  # doubles survive bit-exactly
        assert np.array_equal(ring.words, agg.words)


def _drive_round(grads, seed, round_no=0, beta=0.5):
    ids = sorted(grads)
    channel = Channel()
    s1 = ServerS1(ids, round_no)
    s2 = ServerS2(ids, round_no)
    for cid in ids:
        sh1, sh2 = split_and_mask(grads[cid], 16, substream(seed, "mask", cid))
        s1.receive_share(channel.send(f"client{cid}", "S1",
                                      encode_share_upload(MaskedShare(cid, round_no, 1, sh1))))
        s2.receive_share(channel.send(f"client{cid}", "S2",
                                      encode_share_upload(MaskedShare(cid, round_no, 2, sh2))))
    s2.receive_centered_batch(channel.send("S1", "S2", s1.center_shares()))
    detection, new_trust, tau = s2.detect_and_weigh(
        initial_trust(ids, beta), substream(seed, "km"))
    record = encode_agg_and_weights(round_no, 0, s2.publish(tau), tau)
    s1.receive_agg_and_weights(channel.send("ledger", "S1", record))
    return s1.finalize(), detection, tau, channel, s1, s2


class TestServerStateMachines:
    def test_full_round_matches_weighted_plaintext(self):
        rng = substream(82, "sm")
        grads = {i: rng.uniform(-2, 2, size=40) for i in range(6)}
        global_grad, detection, tau, channel, _, _ = _drive_round(grads, 83)
        want = sum(tau[i] * grads[i] for i in grads)
        assert np.max(np.abs(global_grad - want)) <= 1e-3

    def test_share_after_centering_rejected(self):
        rng = substream(84, "sm")
        grads = {i: rng.uniform(-1, 1, size=8) for i in range(3)}
        ids = sorted(grads)
        s1 = ServerS1(ids, 0)
        for cid in ids:
            sh1, _ = split_and_mask(grads[cid], 16, substream(85, "m", cid))
            s1.receive_share(encode_share_upload(MaskedShare(cid, 0, 1, sh1)))
        s1.center_shares()
        sh1, _ = split_and_mask(grads[0], 16, substream(85, "m", 99))
        with pytest.raises(ProtocolError):
            s1.receive_share(encode_share_upload(MaskedShare(0, 0, 1, sh1)))

    def test_centering_before_all_shares_rejected(self):
        s1 = ServerS1([0, 1, 2], 0)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(86, "m"))
        s1.receive_share(encode_share_upload(MaskedShare(0, 0, 1, sh1)))
        with pytest.raises(ProtocolError):
            s1.center_shares()

    def test_wrong_round_rejected(self):
        s1 = ServerS1([0], 5)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(87, "m"))
        with pytest.raises(ProtocolError):
            s1.receive_share(encode_share_upload(MaskedShare(0, 4, 1, sh1)))

    def test_duplicate_and_unknown_clients_rejected(self):
        s1 = ServerS1([0, 1], 0)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(88, "m"))
        msg = encode_share_upload(MaskedShare(0, 0, 1, sh1))
        s1.receive_share(msg)
        with pytest.raises(ProtocolError):
            s1.receive_share(msg)
        with pytest.raises(ProtocolError):
            s1.receive_share(encode_share_upload(MaskedShare(9, 0, 1, sh1)))

    def test_share_index_must_match_server(self):
        s2 = ServerS2([0], 0)
        sh1, _ = split_and_mask(np.ones(4), 16, substream(89, "m"))
        with pytest.raises(ProtocolError):
            s2.receive_share(encode_share_upload(MaskedShare(0, 0, 1, sh1)))

    def test_weights_before_centering_rejected(self):
        s1 = ServerS1([0], 0)
        agg = uniform_ring(4, 48, substream(90, "m"))
        with pytest.raises(ProtocolError):
            s1.receive_agg_and_weights(encode_agg_and_weights(0, 0, agg, {0: 1.0}))

    def test_server_boundary_audit(self):
        # S2 never sends anything directly to S1: its aggregate and
        # weights travel via the ledger only.
        rng = substream(91, "sm")
        grads = {i: rng.uniform(-1, 1, size=10) for i in range(4)}
        _, _, _, channel, _, _ = _drive_round(grads, 92)
        assert channel.kinds_between("S2", "S1") == set()
        assert channel.kinds_between("S1", "S2") == {"CenteredBatch"}
        assert channel.kinds_between("ledger", "S1") == {"AggDigestAndWeights"}
        client_kinds = {k for s, d, k in channel.log if s.startswith("client")}
        assert client_kinds == {"ShareUpload"}
        assert not any(d.startswith("client") for _, d, _ in channel.log)
