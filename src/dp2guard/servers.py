"""Dual-server aggregation protocol: the wire format of its three
messages and the S1/S2 state machines that collect shares, exchange the
mean-centered batch and publish the weighted partial aggregates.

Each server holds a round's shares as one (N, d) uint64 matrix, row k for
client k; `receive_share` copies an upload's words from the wire straight
into its row.  Client ids appear only on the wire and in the ledger.
Every operation on those words is `dp2guard.numeric`'s, which owns the
fixed-point format: centering forms N * share_i - sum_j(share_j) in the
ring, so the share words cancel bit-for-bit once S2 combines the two
halves, and the weighted sum reports the scale of its words beside them.

A server is built once per run from run constants: N, d and scale_bits
(a share of any other d or scale is a ProtocolError), and for S2 the
trust history weight beta and the exclusion mode.  S2 keeps the run's
(N,) trust vector and updates it every round.  `start_round` opens each
round.

Memory: a server allocates its share matrix once, at construction,
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
fourth only under a full-knowledge attack, whose attackers craft from
every honest gradient: the harness's N - n_malicious honest rows plus one
crafted row, which every attacker's uploads are masked from; or N rows
when the run records its gradient history.  Otherwise each block of K
clients trains into one reused (K, d) row block (K = `harness.block_rows`,
one client at d > 4,096) and masks it straight into its clients'
uploads.  The batch of one round is freed when `ServerS2.detect_and_weigh`
returns, before the next is built.
"""
from __future__ import annotations

import struct
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .defense import DetectionResult, detect
from .errors import ClientSetMismatch, DimensionMismatch, FormatError, ProtocolError, WeightError
from .numeric import (RING_HEADER, mean_center, partial_aggregate, reassemble_global,
                      reconstruct_centered, ring_view, serialize_ring)
from .trust import direct_trust, update_trust, weights as trust_weights

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
# CenteredBatch: a record count, then per client a record of its id, the
# length of its serialized ring, and that ring (d, scale_bits, d words).
_BATCH_COUNT = struct.Struct("<I")
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


def _batch_record(d: int) -> np.dtype:
    """A CenteredBatch record of d words: client id, the length of its
    serialized ring, then that ring (d, scale_bits, words)."""
    return np.dtype([("id", "<u4"), ("length", "<u8"), ("d", "<u4"), ("scale", "u1"),
                     ("words", "<u8", (d,))])


def encode_centered_batch(round_no: int, sender: int, ids: Sequence[int], d: int,
                          scale_bits: int) -> tuple[ProtocolMessage, np.ndarray]:
    """A CenteredBatch with one record of d words at `scale_bits` per
    client id, in the given order, and a writable (N, d) view of those
    words in its payload, row k for ids[k], which the caller fills before
    sending."""
    record = _batch_record(d)
    # Uninitialised: the headers below and the caller's rows write every byte.
    buf = np.empty(_BATCH_COUNT.size + len(ids) * record.itemsize, dtype=np.uint8)
    _BATCH_COUNT.pack_into(buf, 0, len(ids))
    records = buf[_BATCH_COUNT.size:].view(record)
    records["id"] = ids
    records["length"] = RING_HEADER.size + 8 * d
    records["d"] = d
    records["scale"] = scale_bits
    return ProtocolMessage(MSG_CENTERED_BATCH, round_no, sender, memoryview(buf)), records["words"]


def decode_centered_batch(msg: ProtocolMessage) -> tuple[list[int], np.ndarray, int]:
    """(client ids, (N, d) words, scale_bits) of a CenteredBatch.

    Record 0's d and scale_bits size the batch, and every record must
    carry them.  The words are a read-only strided view into the payload,
    row k for ids[k].
    """
    payload = memoryview(msg.payload)
    if len(payload) < _BATCH_COUNT.size:
        raise FormatError("CenteredBatch shorter than its record count")
    (count,) = _BATCH_COUNT.unpack_from(payload)
    head = _batch_record(0)
    d = scale_bits = 0
    if count:
        if len(payload) < _BATCH_COUNT.size + head.itemsize:
            raise FormatError(f"CenteredBatch of {len(payload)} bytes cannot hold record 0")
        first = np.frombuffer(payload, head, 1, _BATCH_COUNT.size)[0]
        d, scale_bits = int(first["d"]), int(first["scale"])
    need = _BATCH_COUNT.size + count * (head.itemsize + 8 * d)
    if len(payload) != need:
        raise FormatError(f"CenteredBatch of {count} records of d={d} needs {need} bytes, "
                          f"got {len(payload)}")
    records = np.frombuffer(payload, _batch_record(d), count, _BATCH_COUNT.size)
    if ((records["length"] != RING_HEADER.size + 8 * d).any()
            or (records["d"] != d).any() or (records["scale"] != scale_bits).any()):
        raise FormatError("CenteredBatch records do not all match record 0's d and scale_bits")
    words = records["words"]
    words.setflags(write=False)
    return records["id"].tolist(), words, scale_bits


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
    with row k for client k (a client id >= N is a ProtocolError); N, d
    and scale_bits are fixed for the run at construction.  No round is
    open until `start_round`, which sets `round`; each phase's attributes
    are set by the step that enters it, so a server never reads one before
    then."""

    server_id: int
    round: int

    def __init__(self, n_clients: int, d: int, scale_bits: int):
        self.phase = PHASE_DONE
        self._received: set[int] = set()
        self.shares = np.empty((n_clients, d), dtype=np.uint64)
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
        if client_id >= len(self.shares):
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
        self.shares[client_id] = words
        self._received.add(client_id)

    def _require_all_shares(self) -> None:
        missing = sorted(set(range(len(self.shares))) - self._received)
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
        msg, words = encode_centered_batch(self.round, self.server_id, range(len(self.shares)),
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
        # The record's ids ascend, so ids 0..N-1 put each weight on its share row.
        if list(tau) != list(range(len(self.shares))):
            raise WeightError("weight keys do not match share keys")
        agg1, scale_bits = partial_aggregate(self.shares, list(tau.values()), self.scale_bits)
        if (len(agg2), agg_scale) != (len(agg1), scale_bits):
            raise DimensionMismatch(f"aggregate has (d, scale_bits) {(len(agg2), agg_scale)}, "
                                    f"expected {(len(agg1), scale_bits)}")
        self.phase = PHASE_DONE
        return reassemble_global(agg1, agg2, scale_bits)


class ServerS2(_ServerBase):
    """Holds second shares: reconstructs centered gradients, runs detection
    and trust scoring, and publishes its weighted partial aggregate.

    S2 keeps the run's (N,) `trust` vector, entry k for client k, which
    starts at full trust and which every `detect_and_weigh` updates with
    history weight `beta`; `exclusion` ("soft" or "hard") says whether a
    row detection rejects keeps its decayed weight or gets weight 0."""

    server_id = 2
    _weights: np.ndarray
    _centered: np.ndarray

    def __init__(self, n_clients: int, d: int, scale_bits: int, beta: float, exclusion: str):
        super().__init__(n_clients, d, scale_bits)
        self.beta = beta
        self.exclusion = exclusion
        self.trust = np.ones(n_clients)

    def receive_centered_batch(self, msg: ProtocolMessage) -> None:
        """Reconstruct the round's centered gradients into the batch's own
        payload, which S2 owns once received; a read-only payload is a
        ProtocolError, raised before anything changes."""
        self._require(PHASE_COLLECTING, "accept centered shares")
        if msg.round != self.round:
            raise ProtocolError(f"centered batch for round {msg.round}")
        ids, c1, scale_bits = decode_centered_batch(msg)
        self._require_all_shares()
        if ids != list(range(len(self.shares))):
            raise ClientSetMismatch(f"batch of clients {ids}, expected 0..{len(self.shares) - 1}")
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

    def detect_and_weigh(self, rng: np.random.Generator) -> tuple[DetectionResult, np.ndarray]:
        """Run hybrid detection, take one EMA step of `trust`, and set this
        round's normalized aggregation weights, which `publish` applies;
        returns (detection, weights).  Detection, trust and weights are
        indexed by row; row k is client k."""
        self._require(PHASE_CENTERING, "detect")
        self.phase = PHASE_DETECTING
        # The centered gradients live in the round's batch; dropping the
        # last reference frees it when this returns.
        centered = self._centered
        del self._centered
        result = detect(centered, rng)
        benign = np.array([k in result.benign for k in range(len(self.shares))])
        direct = np.where(benign, direct_trust(result.features, result.centroid), 0.0)
        self.trust = update_trust(self.trust, direct, self.beta)
        self._weights = trust_weights(self.trust, ~benign if self.exclusion == "hard" else None)
        self.phase = PHASE_AGGREGATING
        return result, self._weights

    def publish(self) -> tuple[np.ndarray, int]:
        """(words, scale_bits) of the partial aggregate under the weights
        `detect_and_weigh` set; it reaches S1 only through the ledger
        record the caller writes."""
        self._require(PHASE_AGGREGATING, "publish")
        published = partial_aggregate(self.shares, self._weights, self.scale_bits)
        self.phase = PHASE_DONE
        return published
