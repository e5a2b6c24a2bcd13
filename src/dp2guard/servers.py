"""Dual-server aggregation protocol: the wire format of its three
messages and the S1/S2 state machines that collect shares, exchange the
mean-centered batch and publish the weighted partial aggregates.

Each server holds a round's shares as one (N, d) uint64 matrix whose rows
follow ascending client id; `receive_share` copies an upload's words from
the wire straight into its row.  Every operation on those words is
`dp2guard.numeric`'s, which owns the fixed-point format: centering forms
N * share_i - sum_j(share_j) in the ring, so the share words cancel
bit-for-bit once S2 combines the two halves, and the weighted sum reports
the scale of its words beside them.

Memory: a server is built once per run for the run's d and scale_bits
(a share of any other d or scale is a ProtocolError), and `start_round`
opens each round.  It allocates its share matrix once, at construction,
and refills it in place every round: at realistic sizes a fresh (N, d)
array lies above the allocator's mmap threshold and is page-faulted in
again every time.  A row left from an earlier round is never read,
because centering waits for every client's share of the current round.
Once sent, a message belongs to its receiver: senders build every message
fresh and never touch it again, and the channel hands over the sender's
buffer and keeps no record of it.  The CenteredBatch payload is therefore
the one (N, d) array a round allocates: S1 centers its shares straight
into the payload's words, and S2 decodes its float centered gradients
into that payload's own bytes, which detection reads and then releases.

A round therefore holds three (N, d) arrays: the two share matrices and
the CenteredBatch payload.  The clients' plaintext gradients add a
fourth, the harness's N gradient rows, only under a full-knowledge
attack, whose attackers craft from every honest gradient, or when the run
records its gradient history; otherwise each client trains into one
reused d-vector and masks it straight into its two uploads.  The batch of
one round is freed when `ServerS2.detect_and_weigh` returns, before the
next is built.  On the benchmark's secure-wide workload (N = 100,
d = 50,890, 40.7 MB per array) the peak measured 181.1 MB of RSS.
"""
from __future__ import annotations

import struct
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .defense import DetectionResult, detect
from .errors import ClientSetMismatch, DimensionMismatch, FormatError, ProtocolError, WeightError
from .numeric import (RING_HEADER, mean_center, partial_aggregate, reassemble_global,
                      reconstruct_centered, ring_view, serialize_ring)
from .trust import TrustState, direct_trust, update_trust, weights as trust_weights

MSG_SHARE_UPLOAD = 1
MSG_CENTERED_BATCH = 2
MSG_AGG_AND_WEIGHTS = 3

_KINDS = frozenset({MSG_SHARE_UPLOAD, MSG_CENTERED_BATCH, MSG_AGG_AND_WEIGHTS})

_MSG_HEADER = struct.Struct("<BIIQ")
# ShareUpload: client id and share index, then the serialized ring.
_UPLOAD_PREFIX = struct.Struct("<IB")
_UPLOAD_HEAD = struct.Struct(_UPLOAD_PREFIX.format + RING_HEADER.format[1:])
# Its payload starts _UPLOAD_PAD bytes into a word buffer, so that its
# share words, after _UPLOAD_LEAD words, are aligned.
_UPLOAD_LEAD = -(-_UPLOAD_HEAD.size // 8)
_UPLOAD_PAD = 8 * _UPLOAD_LEAD - _UPLOAD_HEAD.size
# CenteredBatch: a record count, then per client its id and the length of
# its serialized ring, followed by that ring.
_BATCH_COUNT = struct.Struct("<I")
_BATCH_RECORD = struct.Struct("<IQ")
# AggDigestAndWeights: a weight count, then per client its id and weight
# in ascending id order, followed by the aggregate's serialized ring.
_WEIGHT_COUNT = struct.Struct("<I")
_WEIGHT_RECORD = struct.Struct("<Id")


class ProtocolMessage(NamedTuple):
    """One message between protocol parties (a named tuple: every
    message is built once and never changed, and a tuple is the cheapest
    immutable record to build).

    `payload` is any bytes-like object whose `len` is its byte count:
    encoders build bytes or a byte-format memoryview.  Once sent, the
    payload belongs to the receiver, which gets the sender's buffer itself
    and may reuse it (S2 decodes a CenteredBatch in place); a bytes
    payload stays immutable.  On the wire the message is a 17-byte header
    (kind u8, round u32, sender u32, payload length u64) followed by the
    payload.
    """

    kind: int
    round: int
    sender: int
    payload: bytes


def encode_message(msg: ProtocolMessage) -> bytes:
    return _MSG_HEADER.pack(msg.kind, msg.round, msg.sender, len(msg.payload)) + msg.payload


def decode_message(wire: bytes) -> ProtocolMessage:
    """Parse a wire message; the payload is a view into `wire`, not a copy."""
    if len(wire) < _MSG_HEADER.size:
        raise ProtocolError("message shorter than its header")
    view = memoryview(wire)
    return _parse_header(view[:_MSG_HEADER.size], view[_MSG_HEADER.size:])


def _parse_header(header, payload) -> ProtocolMessage:
    """The message a wire header announces, carrying `payload`, which must
    have the declared length."""
    kind, round_no, sender, payload_len = _MSG_HEADER.unpack(header)
    if len(payload) != payload_len:
        raise ProtocolError(f"payload length {len(payload)} != declared {payload_len}")
    if kind not in _KINDS:
        raise ProtocolError(f"unknown message kind {kind}")
    return ProtocolMessage(kind, round_no, sender, payload)


class Channel:
    """In-memory transport between protocol parties; it keeps nothing.

    Each message's header goes through the wire format and is checked as
    `decode_message` checks it; the payload is the sender's buffer, handed
    over rather than copied behind the header, so the receiver sees the
    bytes `decode_message(encode_message(msg))` would give it, and owns
    them: a sender never touches a message after sending it.  `src` and
    `dst` name the parties for whoever observes the channel (a subclass
    or a tracer) and do not change the delivery.
    """

    def send(self, src: str, dst: str, msg: ProtocolMessage) -> ProtocolMessage:
        header = _MSG_HEADER.pack(msg.kind, msg.round, msg.sender, len(msg.payload))
        return _parse_header(header, msg.payload)


def encode_share_upload(client_id: int, round_no: int, share_index: int, d: int,
                        scale_bits: int) -> tuple[ProtocolMessage, np.ndarray]:
    """A ShareUpload of d words at `scale_bits`, and a writable view of
    those words in its payload, which the caller fills before sending."""
    buf = np.empty(_UPLOAD_LEAD + d, dtype="<u8")
    _UPLOAD_HEAD.pack_into(buf, _UPLOAD_PAD, client_id, share_index, d, scale_bits)
    payload = memoryview(buf).cast("B")[_UPLOAD_PAD:]
    return ProtocolMessage(MSG_SHARE_UPLOAD, round_no, client_id, payload), buf[_UPLOAD_LEAD:]


def decode_share_upload(msg: ProtocolMessage) -> tuple[int, int, np.ndarray, int]:
    """(client id, share index, words, scale_bits) of a ShareUpload; the
    words are a read-only view into the payload."""
    payload = msg.payload
    if len(payload) < _UPLOAD_PREFIX.size:
        raise FormatError(f"ShareUpload of {len(payload)} bytes is shorter than its header")
    client_id, share_index = _UPLOAD_PREFIX.unpack_from(payload)
    if share_index not in (1, 2):
        raise FormatError(f"share index {share_index} is neither 1 nor 2")
    return (client_id, share_index, *ring_view(payload, _UPLOAD_PREFIX.size))


def _batch_words(payload, count: int, d: int) -> np.ndarray:
    """(count, d) strided view of the words of a CenteredBatch's records."""
    if count == 0:
        return np.empty((0, d), dtype=np.uint64)
    record = _BATCH_RECORD.size + RING_HEADER.size + 8 * d
    return np.ndarray((count, d), dtype="<u8", buffer=payload,
                      offset=_BATCH_COUNT.size + _BATCH_RECORD.size + RING_HEADER.size,
                      strides=(record, 8))


def encode_centered_batch(round_no: int, sender: int, ids: Sequence[int], d: int,
                          scale_bits: int) -> tuple[ProtocolMessage, np.ndarray]:
    """A CenteredBatch with one record of d words at `scale_bits` per
    client id, in the given order, and a writable (N, d) view of those
    words in its payload, row k for ids[k], which the caller fills before
    sending."""
    blob = RING_HEADER.size + 8 * d
    record = _BATCH_RECORD.size + blob
    # Uninitialised: the headers below and the caller's rows write every byte.
    payload = memoryview(np.empty(_BATCH_COUNT.size + len(ids) * record, dtype=np.uint8))
    _BATCH_COUNT.pack_into(payload, 0, len(ids))
    for k, cid in enumerate(ids):
        offset = _BATCH_COUNT.size + k * record
        _BATCH_RECORD.pack_into(payload, offset, cid, blob)
        RING_HEADER.pack_into(payload, offset + _BATCH_RECORD.size, d, scale_bits)
    msg = ProtocolMessage(MSG_CENTERED_BATCH, round_no, sender, payload)
    return msg, _batch_words(payload, len(ids), d)


def decode_centered_batch(msg: ProtocolMessage) -> tuple[list[int], np.ndarray, int]:
    """(client ids, (N, d) words, scale_bits) of a CenteredBatch.

    Every record must carry the same d and scale_bits.  The words are a
    read-only strided view into the payload, row k for ids[k].
    """
    payload = memoryview(msg.payload)
    if len(payload) < _BATCH_COUNT.size:
        raise FormatError("CenteredBatch shorter than its record count")
    (count,) = _BATCH_COUNT.unpack_from(payload)
    ids: list[int] = []
    d = scale_bits = 0
    offset = _BATCH_COUNT.size
    for k in range(count):
        if len(payload) < offset + _BATCH_RECORD.size:
            raise FormatError(f"CenteredBatch truncated in record {k} of {count}")
        cid, blob_len = _BATCH_RECORD.unpack_from(payload, offset)
        offset += _BATCH_RECORD.size
        if len(payload) < offset + blob_len:
            raise FormatError(f"CenteredBatch truncated in record {k} of {count}")
        # The record's ring header is read in place; its words are read
        # through one strided view of all records below.
        if blob_len < RING_HEADER.size:
            raise FormatError(f"CenteredBatch record {k} is shorter than its ring header")
        record_d, record_scale = RING_HEADER.unpack_from(payload, offset)
        if blob_len != RING_HEADER.size + 8 * record_d:
            raise FormatError(f"CenteredBatch record {k} of d={record_d} "
                              f"has {blob_len - RING_HEADER.size} word bytes")
        if k == 0:
            d, scale_bits = record_d, record_scale
        elif (record_d, record_scale) != (d, scale_bits):
            raise FormatError(f"CenteredBatch record {k} does not match record 0")
        ids.append(cid)
        offset += blob_len
    if offset != len(payload):
        raise FormatError(f"CenteredBatch of {count} records needs {offset} bytes, "
                          f"got {len(payload)}")
    words = _batch_words(payload, count, d)
    words.setflags(write=False)
    return ids, words, scale_bits


def encode_agg_and_weights(round_no: int, sender: int, aggregate: np.ndarray,
                           scale_bits: int, tau: Mapping[int, float]) -> ProtocolMessage:
    parts = [_WEIGHT_COUNT.pack(len(tau))]
    for cid in sorted(tau):
        parts.append(_WEIGHT_RECORD.pack(cid, tau[cid]))
    parts.append(serialize_ring(aggregate, scale_bits))
    return ProtocolMessage(MSG_AGG_AND_WEIGHTS, round_no, sender, b"".join(parts))


def decode_agg_and_weights(msg: ProtocolMessage,
                           ) -> tuple[np.ndarray, int, dict[int, float]]:
    """(aggregate words, their scale_bits, weights) of an
    AggDigestAndWeights; the words are a read-only view into the payload."""
    payload = msg.payload
    if len(payload) < _WEIGHT_COUNT.size:
        raise FormatError("AggDigestAndWeights shorter than its weight count")
    (count,) = _WEIGHT_COUNT.unpack_from(payload)
    end = _WEIGHT_COUNT.size + count * _WEIGHT_RECORD.size
    if len(payload) < end:
        raise FormatError(f"AggDigestAndWeights of {len(payload)} bytes cannot hold "
                          f"{count} weights")
    records = list(_WEIGHT_RECORD.iter_unpack(payload[_WEIGHT_COUNT.size:end]))
    if any(a[0] >= b[0] for a, b in zip(records, records[1:])):
        raise FormatError("AggDigestAndWeights client ids must ascend")
    return (*ring_view(payload, end), dict(records))


# --- server state machines ------------------------------------------------

PHASE_COLLECTING = "collecting"
PHASE_CENTERING = "centering"
PHASE_DETECTING = "detecting"
PHASE_AGGREGATING = "aggregating"
PHASE_DONE = "done"


class _ServerBase:
    """Collects each round's shares into `shares`, an (N, d) uint64 matrix
    with row k for the k-th smallest expected client id; d and scale_bits
    are fixed for the run at construction.  No round is open until
    `start_round`, which sets `round`; each phase's attributes are set by
    the step that enters it, so a server never reads one before then."""

    server_id: int
    round: int

    def __init__(self, expected_clients: Iterable[int], d: int, scale_bits: int):
        self.phase = PHASE_DONE
        self.ids = sorted(set(expected_clients))
        self._row = {cid: k for k, cid in enumerate(self.ids)}
        self._received: set[int] = set()
        self.shares = np.empty((len(self.ids), d), dtype=np.uint64)
        self.scale_bits = scale_bits

    def start_round(self, round_no: int) -> None:
        """Open round `round_no`, whatever the phase: no share is received
        yet.  The share matrix is kept, to be refilled in place."""
        self.round = round_no
        self.phase = PHASE_COLLECTING
        self._received.clear()

    def _require(self, phase: str, action: str) -> None:
        if self.phase != phase:
            raise ProtocolError(f"S{self.server_id} cannot {action} in phase {self.phase!r}")

    def receive_share(self, msg: ProtocolMessage) -> None:
        self._require(PHASE_COLLECTING, "accept a share")
        if msg.round != self.round:
            raise ProtocolError(f"share for round {msg.round}, server at {self.round}")
        client_id, share_index, words, scale_bits = decode_share_upload(msg)
        row = self._row.get(client_id)
        if row is None:
            raise ProtocolError(f"unexpected client {client_id}")
        if client_id in self._received:
            raise ProtocolError(f"duplicate share from client {client_id}")
        if share_index != self.server_id:
            raise ProtocolError(f"share index {share_index} uploaded to S{self.server_id}")
        if (len(words), scale_bits) != (self.shares.shape[1], self.scale_bits):
            raise ProtocolError(
                f"share of client {client_id} has d={len(words)}, "
                f"scale_bits={scale_bits}; the run has d={self.shares.shape[1]}, "
                f"scale_bits={self.scale_bits}"
            )
        self.shares[row] = words
        self._received.add(client_id)

    def _require_all_shares(self) -> None:
        missing = [cid for cid in self.ids if cid not in self._received]
        if missing:
            raise ProtocolError(f"cannot center before clients {missing} upload")


class ServerS1(_ServerBase):
    """Holds first shares: centers them for S2, then aggregates with the
    published weights and reassembles the global gradient."""

    server_id = 1
    _record: tuple[np.ndarray, int, dict[int, float]]

    def center_shares(self) -> ProtocolMessage:
        self._require(PHASE_COLLECTING, "center shares")
        self._require_all_shares()
        msg, words = encode_centered_batch(self.round, self.server_id, self.ids,
                                           self.shares.shape[1], self.scale_bits)
        mean_center(self.shares, words)
        self.phase = PHASE_CENTERING
        return msg

    def receive_agg_and_weights(self, msg: ProtocolMessage) -> None:
        """Consume the (aggregate share, weights) record published for this
        round; arrives via the ledger, never directly from S2."""
        self._require(PHASE_CENTERING, "accept weights")
        if msg.round != self.round:
            raise ProtocolError(f"weights for round {msg.round}, server at {self.round}")
        self._record = decode_agg_and_weights(msg)
        self.phase = PHASE_AGGREGATING

    def finalize(self) -> np.ndarray:
        """Aggregate own shares and reassemble the global gradient; a
        published aggregate of another d or scale than S2's is a
        DimensionMismatch."""
        self._require(PHASE_AGGREGATING, "finalize")
        agg2, agg_scale, tau = self._record
        # The record's ids ascend, so equal ids put each weight on its share row.
        if list(tau) != self.ids:
            raise WeightError("weight keys do not match share keys")
        agg1, scale_bits = partial_aggregate(self.shares, list(tau.values()), self.scale_bits)
        if (len(agg2), agg_scale) != (len(agg1), scale_bits):
            raise DimensionMismatch(f"aggregate has (d, scale_bits) {(len(agg2), agg_scale)}, "
                                    f"expected {(len(agg1), scale_bits)}")
        self.phase = PHASE_DONE
        return reassemble_global(agg1, agg2, scale_bits)


class ServerS2(_ServerBase):
    """Holds second shares: reconstructs centered gradients, runs detection
    and trust scoring, and publishes its weighted partial aggregate."""

    server_id = 2
    _weights: np.ndarray
    _centered: np.ndarray

    def receive_centered_batch(self, msg: ProtocolMessage) -> None:
        """Reconstruct the round's centered gradients into the batch's own
        payload, which S2 owns once received; a read-only payload is a
        ProtocolError, raised before anything changes."""
        self._require(PHASE_COLLECTING, "accept centered shares")
        if msg.round != self.round:
            raise ProtocolError(f"centered batch for round {msg.round}")
        ids, c1, scale_bits = decode_centered_batch(msg)
        self._require_all_shares()
        if ids != self.ids:
            raise ClientSetMismatch(f"client sets differ: {ids} vs {self.ids}")
        if (c1.shape[1], scale_bits) != (self.shares.shape[1], self.scale_bits):
            raise DimensionMismatch(f"batch has (d, scale_bits) {(c1.shape[1], scale_bits)}, "
                                    f"expected {(self.shares.shape[1], self.scale_bits)}")
        payload = memoryview(msg.payload)
        if payload.readonly:
            raise ProtocolError("CenteredBatch payload is read-only; S2 decodes it in place")
        # Float row k covers the payload's first 8d(k+1) bytes, which hold
        # only records <= k (a record spans 17 + 8d bytes), and
        # reconstruct_centered reads record k before it writes row k.
        out = np.ndarray(self.shares.shape, dtype=np.float64, buffer=payload)
        self._centered = reconstruct_centered(c1, self.shares, self.scale_bits, out)
        self.phase = PHASE_CENTERING

    def detect_and_weigh(self, state: TrustState, rng: np.random.Generator,
                         exclusion: str = "soft",
                         ) -> tuple[DetectionResult, TrustState, np.ndarray]:
        """Run hybrid detection, update trust, and set this round's
        normalized aggregation weights, which `publish` applies.  Detection,
        trust and weights are indexed by row; row k is client self.ids[k]."""
        self._require(PHASE_CENTERING, "detect")
        self.phase = PHASE_DETECTING
        # The centered gradients live in the round's batch; dropping the
        # last reference frees it when this returns.
        centered = self._centered
        del self._centered
        result = detect(centered, rng)
        benign = np.array([k in result.benign for k in range(len(self.ids))])
        direct = np.where(benign, direct_trust(result.features, result.centroid), 0.0)
        new_state = update_trust(state, direct)
        self._weights = trust_weights(new_state, ~benign if exclusion == "hard" else None)
        self.phase = PHASE_AGGREGATING
        return result, new_state, self._weights

    def publish(self) -> tuple[np.ndarray, int]:
        """(words, scale_bits) of the partial aggregate under the weights
        `detect_and_weigh` set; it reaches S1 only through the ledger
        record the caller writes."""
        self._require(PHASE_AGGREGATING, "publish")
        published = partial_aggregate(self.shares, self._weights, self.scale_bits)
        self.phase = PHASE_DONE
        return published
