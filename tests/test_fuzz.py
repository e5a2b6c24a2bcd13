"""Seeded mutation fuzz of every wire decoder and the ledger readers.

Each valid encoding is truncated, extended with random bytes, or has random
bits flipped.  Whatever comes out, the decoder must either raise a
`Dp2GuardError` or return a message that encodes back to exactly the
mutated bytes: nothing is silently dropped, and no other exception
escapes.  Flips inside ring words are legitimately accepted, because the
words are uniform; the round trip still has to hold for them.

The wire fuzz runs the whole receive path, `decode_message` and then the
decoder for the kind the header names.  Mutating a whole message mostly
exercises the header's length check, so half the mutations instead change
the payload behind a header that declares its true length, a third of those
under another kind, so one kind's payload also reaches the other kinds'
decoders.
"""
import json

import numpy as np
import pytest

from dp2guard.errors import Dp2GuardError
from dp2guard.ledger import (
    Ledger,
    make_round_payload,
    payload_agg_blob,
    payload_trust_weights,
    read_chain,
    verify_blocks,
    verify_file,
)
from dp2guard.numeric import serialize_ring, substream
from dp2guard.servers import (
    MSG_AGG_AND_WEIGHTS,
    MSG_CENTERED_BATCH,
    MSG_SHARE_UPLOAD,
    ProtocolMessage,
    decode_agg_and_weights,
    decode_centered_batch,
    decode_message,
    decode_share_upload,
    encode_agg_and_weights,
    encode_centered_batch,
    encode_message,
    encode_share_upload,
)

MUTATIONS_PER_SEED = 400


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One truncation, append or 1-3 bit flips of `data`."""
    choice = int(rng.integers(3))
    if choice == 0:
        return data[:int(rng.integers(len(data)))]
    if choice == 1:
        return data + rng.bytes(int(rng.integers(1, 24)))
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        # Favour the first bytes, where the headers and counts live.
        span = len(out) if rng.random() < 0.5 else min(len(out), 48)
        pos = int(rng.integers(span))
        out[pos] ^= 1 << int(rng.integers(8))
    return bytes(out)


def _words(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.bit_generator.random_raw(d)


def valid_wires(rng: np.random.Generator) -> list[bytes]:
    """One well-formed message of each kind, with small random contents."""
    d = int(rng.integers(1, 6))
    upload, words = encode_share_upload(3, 2, 1 + int(rng.integers(2)), d, 16)
    words[...] = _words(rng, d)
    ids = [0, 2, 5]
    rows = _words(rng, len(ids) * d).reshape(len(ids), d)
    tau = {0: 0.25, 2: 0.5, 5: 0.25}
    return [encode_message(m) for m in (
        upload,
        encode_centered_batch(2, 1, ids, rows, d, 16),
        encode_agg_and_weights(2, 0, _words(rng, d), 48, tau),
    )]


def mutate_payload(wire: bytes, rng: np.random.Generator) -> bytes:
    """The message with its payload mutated, under a consistent header and
    sometimes another kind."""
    msg = decode_message(wire)
    kinds = (MSG_SHARE_UPLOAD, MSG_CENTERED_BATCH, MSG_AGG_AND_WEIGHTS)
    kind = kinds[int(rng.integers(3))] if rng.random() < 1 / 3 else msg.kind
    payload = mutate(bytes(msg.payload), rng)
    return encode_message(ProtocolMessage(kind, msg.round, msg.sender, payload))


def receive(wire: bytes) -> bytes:
    """Decode a wire message as its receiver would and encode the result
    back; raises what the decoders raise."""
    msg = decode_message(wire)
    if msg.kind == MSG_SHARE_UPLOAD:
        client_id, share_index, words, scale_bits = decode_share_upload(msg)
        upload, view = encode_share_upload(client_id, msg.round, share_index, len(words),
                                           scale_bits)
        view[...] = words
        payload = upload.payload
    elif msg.kind == MSG_CENTERED_BATCH:
        ids, words, scale_bits = decode_centered_batch(msg)
        payload = encode_centered_batch(msg.round, msg.sender, ids, words,
                                        words.shape[1], scale_bits).payload
    else:
        assert msg.kind == MSG_AGG_AND_WEIGHTS
        aggregate, scale_bits, tau = decode_agg_and_weights(msg)
        payload = encode_agg_and_weights(msg.round, msg.sender, aggregate, scale_bits,
                                         tau).payload
    return encode_message(ProtocolMessage(msg.kind, msg.round, msg.sender, bytes(payload)))


def test_valid_messages_round_trip():
    rng = substream(90, "fuzz-valid")
    for wire in valid_wires(rng):
        assert receive(wire) == wire


@pytest.mark.parametrize("seed", range(3))
def test_mutated_wire_messages_fail_loudly_or_round_trip(seed):
    rng = substream(91, "fuzz-wire", seed)
    outcomes = {"rejected": 0, "accepted": 0}
    for _ in range(MUTATIONS_PER_SEED):
        for wire in valid_wires(rng):
            mutated = mutate(wire, rng) if rng.random() < 0.5 else mutate_payload(wire, rng)
            try:
                back = receive(mutated)
            except Dp2GuardError:
                outcomes["rejected"] += 1
                continue
            assert back == mutated
            outcomes["accepted"] += 1
    # Both outcomes occur, so the fuzz reaches past the first length check.
    assert min(outcomes.values()) > 0


def _ledger_line(rng: np.random.Generator) -> bytes:
    ledger = Ledger()
    d = int(rng.integers(1, 5))
    blob = serialize_ring(_words(rng, d), 48)
    payload = make_round_payload(blob, {0: 0.5, 1: 0.25, 12: 0.25}, rng.bytes(32))
    block = ledger.append(0, payload)
    record = {"hash": block.hash.hex(), "index": 0, "payload": payload,
              "prev_hash": block.prev_hash.hex(), "round": 0}
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def read_payload_fields(path) -> list[tuple[dict, bytes, dict[int, float]]]:
    """Every block's payload with what the ledger readers make of it."""
    out = []
    for block in read_chain(path):
        payload = block.payload
        out.append((payload, payload_agg_blob(payload), payload_trust_weights(payload)))
    return out


@pytest.mark.parametrize("seed", range(2))
def test_mutated_ledger_payloads_fail_loudly_or_round_trip(tmp_path, seed):
    # A ledger file goes through the chain reader (`read_chain`) and the
    # two payload readers S1 relies on.  An accepted payload re-encodes to
    # the same blob, digest and weights.  The file check agrees with the
    # chain reader: it passes exactly when the file loads and verifies.
    rng = substream(92, "fuzz-ledger", seed)
    path = tmp_path / "ledger.jsonl"
    outcomes = {"rejected": 0, "accepted": 0}
    for _ in range(MUTATIONS_PER_SEED):
        path.write_bytes(mutate(_ledger_line(rng), rng) + b"\n")
        try:
            intact = verify_blocks(list(read_chain(path))) is None
        except Dp2GuardError:
            intact = False
        assert (verify_file(path) is None) == intact
        try:
            fields = read_payload_fields(path)
        except Dp2GuardError:
            outcomes["rejected"] += 1
            continue
        for payload, blob, weights in fields:
            again = make_round_payload(blob, weights, b"")
            assert again["agg_share_blob"] == payload["agg_share_blob"]
            assert again["agg_share_digest"] == payload["agg_share_digest"]
            assert again["trust_weights"] == payload["trust_weights"]
        outcomes["accepted"] += 1
    assert min(outcomes.values()) > 0
