"""Dual-server aggregation protocol: share collection, mean-centering
exchange, trust-weighted partial aggregation, and reassembly.

Mean-centering happens on masked shares.  Each server computes
N * share_i - sum_j(share_j) in the ring, i.e. the centered share scaled by
the client count; the division by N happens only after the two halves are
combined.  That keeps every step exact wrapping arithmetic, so the masks
(and the random split) cancel bit-for-bit and the reconstructed centered
gradients depend only on the encoded plaintext gradients.

Weighted aggregation converts each weight to fixed point with 32 fractional
bits and multiply-accumulates in the ring; the combined result therefore
carries scale_bits + 32 fractional bits, which decode removes.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .client import MaskedShare
from .defense import DetectionResult, detect
from .errors import ClientSetMismatch, ProtocolError, WeightError
from .numeric import (
    RingVector,
    decode_fixed,
    deserialize_ring,
    ring_add,
    ring_scale,
    serialize_ring,
)
from .trust import TrustState, direct_trust, update_trust, weights as trust_weights

WEIGHT_BITS = 32

MSG_SHARE_UPLOAD = 1
MSG_CENTERED_BATCH = 2
MSG_AGG_AND_WEIGHTS = 3

_KIND_NAMES = {
    MSG_SHARE_UPLOAD: "ShareUpload",
    MSG_CENTERED_BATCH: "CenteredBatch",
    MSG_AGG_AND_WEIGHTS: "AggDigestAndWeights",
}

_MSG_HEADER = struct.Struct("<BIIQ")


@dataclass(frozen=True)
class ProtocolMessage:
    kind: int
    round: int
    sender: int
    payload: bytes


def encode_message(msg: ProtocolMessage) -> bytes:
    return _MSG_HEADER.pack(msg.kind, msg.round, msg.sender, len(msg.payload)) + msg.payload


def decode_message(wire: bytes) -> ProtocolMessage:
    if len(wire) < _MSG_HEADER.size:
        raise ProtocolError("message shorter than its header")
    kind, round_no, sender, payload_len = _MSG_HEADER.unpack_from(wire)
    payload = wire[_MSG_HEADER.size:]
    if len(payload) != payload_len:
        raise ProtocolError(f"payload length {len(payload)} != declared {payload_len}")
    if kind not in _KIND_NAMES:
        raise ProtocolError(f"unknown message kind {kind}")
    return ProtocolMessage(kind, round_no, sender, payload)


class Channel:
    """In-memory transport that round-trips every message through the wire
    format and records (src, dst, kind) for boundary audits."""

    def __init__(self):
        self.log: list[tuple[str, str, str]] = []

    def send(self, src: str, dst: str, msg: ProtocolMessage) -> ProtocolMessage:
        self.log.append((src, dst, _KIND_NAMES[msg.kind]))
        return decode_message(encode_message(msg))

    def kinds_between(self, src: str, dst: str) -> set[str]:
        return {kind for s, d, kind in self.log if s == src and d == dst}


def encode_share_upload(share: MaskedShare) -> ProtocolMessage:
    payload = struct.pack("<IB", share.client_id, share.share_index)
    payload += serialize_ring(share.payload)
    return ProtocolMessage(MSG_SHARE_UPLOAD, share.round, share.client_id, payload)


def decode_share_upload(msg: ProtocolMessage) -> MaskedShare:
    client_id, share_index = struct.unpack_from("<IB", msg.payload)
    ring = deserialize_ring(msg.payload[5:])
    return MaskedShare(client_id, msg.round, share_index, ring)


def encode_centered_batch(round_no: int, sender: int,
                          centered: Mapping[int, RingVector]) -> ProtocolMessage:
    parts = [struct.pack("<I", len(centered))]
    for cid in sorted(centered):
        blob = serialize_ring(centered[cid])
        parts.append(struct.pack("<IQ", cid, len(blob)) + blob)
    return ProtocolMessage(MSG_CENTERED_BATCH, round_no, sender, b"".join(parts))


def decode_centered_batch(msg: ProtocolMessage) -> dict[int, RingVector]:
    count = struct.unpack_from("<I", msg.payload)[0]
    offset = 4
    out: dict[int, RingVector] = {}
    for _ in range(count):
        cid, blob_len = struct.unpack_from("<IQ", msg.payload, offset)
        offset += 12
        out[cid] = deserialize_ring(msg.payload[offset:offset + blob_len])
        offset += blob_len
    return out


def encode_agg_and_weights(round_no: int, sender: int, aggregate: RingVector,
                           tau: Mapping[int, float]) -> ProtocolMessage:
    parts = [struct.pack("<I", len(tau))]
    for cid in sorted(tau):
        parts.append(struct.pack("<Id", cid, tau[cid]))
    parts.append(serialize_ring(aggregate))
    return ProtocolMessage(MSG_AGG_AND_WEIGHTS, round_no, sender, b"".join(parts))


def decode_agg_and_weights(msg: ProtocolMessage) -> tuple[RingVector, dict[int, float]]:
    count = struct.unpack_from("<I", msg.payload)[0]
    offset = 4
    tau: dict[int, float] = {}
    for _ in range(count):
        cid, w = struct.unpack_from("<Id", msg.payload, offset)
        tau[cid] = w
        offset += 12
    return deserialize_ring(msg.payload[offset:]), tau


# --- protocol operations -------------------------------------------------

def mean_center(shares: Sequence[RingVector]) -> list[RingVector]:
    """Center each share against the population mean, scaled by N.

    Returns N * share_i - sum_j(share_j) in exact ring arithmetic.  The
    scaling postpones the division by N to reconstruction, where it applies
    to the combined (mask-free) value, so centering never rounds.
    """
    n = len(shares)
    if n < 2:
        raise ValueError("mean-centering needs at least two shares")
    total = shares[0]
    for share in shares[1:]:
        total = ring_add(total, share)
    out = []
    for share in shares:
        scaled = ring_scale(share, n)
        out.append(RingVector(np.subtract(scaled.words, total.words), share.scale_bits))
    return out


def reconstruct_centered(c1: Mapping[int, RingVector],
                         c2: Mapping[int, RingVector]) -> dict[int, np.ndarray]:
    """Combine the two servers' centered shares into real centered gradients.

    The wrapping sum cancels masks and splits exactly; the residual N
    scaling from mean_center is divided out here.
    """
    if set(c1) != set(c2):
        raise ClientSetMismatch(f"client sets differ: {sorted(c1)} vs {sorted(c2)}")
    n = len(c1)
    return {cid: decode_fixed(ring_add(c1[cid], c2[cid])) / n for cid in sorted(c1)}


def partial_aggregate(shares: Mapping[int, RingVector],
                      tau: Mapping[int, float]) -> RingVector:
    """Trust-weighted ring combination of one server's shares.

    Weights are encoded at WEIGHT_BITS fractional bits, so the result's
    scale_bits grows by WEIGHT_BITS; only the two-server sum of these
    partials decodes to a meaningful value when shares are masked.
    """
    if set(shares) != set(tau):
        raise WeightError("weight keys do not match share keys")
    vals = np.array([tau[cid] for cid in sorted(tau)])
    if np.any(vals < 0):
        raise WeightError("negative aggregation weight")
    if abs(vals.sum() - 1.0) > 1e-9:
        raise WeightError(f"weights sum to {vals.sum()}, expected 1")
    ids = sorted(shares)
    first = shares[ids[0]]
    acc = np.zeros(len(first), dtype=np.uint64)
    for cid in ids:
        w = np.uint64(int(round(tau[cid] * 2.0**WEIGHT_BITS)))
        acc = np.add(acc, np.multiply(shares[cid].words, w))
    return RingVector(acc, first.scale_bits + WEIGHT_BITS)


def reassemble_global(a1: RingVector, a2: RingVector) -> np.ndarray:
    """Combine the two partial aggregates and decode the weighted gradient."""
    return decode_fixed(ring_add(a1, a2))


# --- server state machines ------------------------------------------------

PHASE_COLLECTING = "collecting"
PHASE_CENTERING = "centering"
PHASE_DETECTING = "detecting"
PHASE_AGGREGATING = "aggregating"
PHASE_DONE = "done"


@dataclass
class _ServerBase:
    server_id: int
    expected_clients: frozenset[int]
    round: int
    phase: str = field(default=PHASE_COLLECTING, init=False)
    shares: dict[int, RingVector] = field(default_factory=dict, init=False)

    def _require(self, phase: str, action: str) -> None:
        if self.phase != phase:
            raise ProtocolError(
                f"S{self.server_id} cannot {action} in phase {self.phase!r}"
            )

    def receive_share(self, msg: ProtocolMessage) -> None:
        self._require(PHASE_COLLECTING, "accept a share")
        if msg.round != self.round:
            raise ProtocolError(f"share for round {msg.round}, server at {self.round}")
        share = decode_share_upload(msg)
        if share.client_id not in self.expected_clients:
            raise ProtocolError(f"unexpected client {share.client_id}")
        if share.client_id in self.shares:
            raise ProtocolError(f"duplicate share from client {share.client_id}")
        if share.share_index != self.server_id:
            raise ProtocolError(
                f"share index {share.share_index} uploaded to S{self.server_id}"
            )
        self.shares[share.client_id] = share.payload

    def all_shares_in(self) -> bool:
        return set(self.shares) == set(self.expected_clients)

    def _centered_own(self) -> dict[int, RingVector]:
        if not self.all_shares_in():
            missing = sorted(self.expected_clients - set(self.shares))
            raise ProtocolError(f"cannot center before clients {missing} upload")
        ids = sorted(self.shares)
        centered = mean_center([self.shares[cid] for cid in ids])
        return dict(zip(ids, centered))


class ServerS1(_ServerBase):
    """Holds first shares: centers them for S2, then aggregates with the
    published weights and reassembles the global gradient."""

    def __init__(self, expected_clients, round_no: int):
        super().__init__(1, frozenset(expected_clients), round_no)
        self._tau: dict[int, float] | None = None
        self._agg2: RingVector | None = None

    def center_shares(self) -> ProtocolMessage:
        self._require(PHASE_COLLECTING, "center shares")
        centered = self._centered_own()
        self.phase = PHASE_CENTERING
        return encode_centered_batch(self.round, self.server_id, centered)

    def receive_agg_and_weights(self, msg: ProtocolMessage) -> None:
        """Consume the (aggregate share, weights) record published for this
        round; arrives via the ledger, never directly from S2."""
        self._require(PHASE_CENTERING, "accept weights")
        if msg.round != self.round:
            raise ProtocolError(f"weights for round {msg.round}, server at {self.round}")
        self._agg2, self._tau = decode_agg_and_weights(msg)
        self.phase = PHASE_AGGREGATING

    def finalize(self) -> np.ndarray:
        """Aggregate own shares and reassemble the global gradient."""
        self._require(PHASE_AGGREGATING, "finalize")
        assert self._tau is not None and self._agg2 is not None
        agg1 = partial_aggregate(self.shares, self._tau)
        self.phase = PHASE_DONE
        return reassemble_global(agg1, self._agg2)


class ServerS2(_ServerBase):
    """Holds second shares: reconstructs centered gradients, runs detection
    and trust scoring, and publishes its weighted partial aggregate."""

    def __init__(self, expected_clients, round_no: int):
        super().__init__(2, frozenset(expected_clients), round_no)
        self._centered: dict[int, np.ndarray] | None = None

    def receive_centered_batch(self, msg: ProtocolMessage) -> None:
        self._require(PHASE_COLLECTING, "accept centered shares")
        if msg.round != self.round:
            raise ProtocolError(f"centered batch for round {msg.round}")
        c1 = decode_centered_batch(msg)
        c2 = self._centered_own()
        self._centered = reconstruct_centered(c1, c2)
        self.phase = PHASE_CENTERING

    def detect_and_weigh(self, state: TrustState, rng: np.random.Generator,
                         exclusion: str = "soft",
                         projection_dim: int | None = None,
                         ) -> tuple[DetectionResult, TrustState, dict[int, float]]:
        """Run hybrid detection, update trust, and produce this round's
        normalized aggregation weights."""
        self._require(PHASE_CENTERING, "detect")
        assert self._centered is not None
        self.phase = PHASE_DETECTING
        result = detect(self._centered, rng, projection_dim)
        direct = {
            cid: (direct_trust(result.features[cid], result.centroid)
                  if cid in result.benign else 0.0)
            for cid in self._centered
        }
        new_state = update_trust(state, direct)
        excluded = set(self._centered) - set(result.benign)
        force_zero = excluded if exclusion == "hard" else ()
        tau = trust_weights(new_state, force_zero)
        self.phase = PHASE_AGGREGATING
        return result, new_state, tau

    def publish(self, tau: Mapping[int, float]) -> RingVector:
        """Weighted partial aggregate; it reaches S1 only through the
        ledger record the caller writes from it."""
        self._require(PHASE_AGGREGATING, "publish")
        agg2 = partial_aggregate(self.shares, tau)
        self.phase = PHASE_DONE
        return agg2
