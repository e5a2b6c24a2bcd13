"""Hash-chained append-only log of per-round aggregation records.

Each block commits to its predecessor with SHA-256 over
(index, round, prev_hash, canonical payload JSON), so any retroactive edit
breaks verification at the first touched block.  Persistence is JSONL: one
compact sorted-key object per line, hashes hex, ring blobs base64.
"""
from __future__ import annotations

import base64
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

from .errors import FormatError, RoundNotFound

GENESIS_HASH = bytes(32)


@dataclass(frozen=True)
class Block:
    index: int
    round: int
    prev_hash: bytes
    payload: dict[str, Any]
    hash: bytes


def _compact_json(obj: Any) -> str:
    """Sorted-key JSON without spaces: the form hashed and the form written."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def block_hash(index: int, round_no: int, prev_hash: bytes,
               payload: dict[str, Any]) -> bytes:
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", index, round_no))
    h.update(prev_hash)
    h.update(_compact_json(payload).encode("utf-8"))
    return h.digest()


def make_round_payload(agg_share_blob: bytes, trust_weights: dict[int, float],
                       global_model_digest: bytes) -> dict[str, Any]:
    """Standard per-round record: the publishing server's aggregate share
    (blob + digest), the trust weights, and the digest of the global model
    the round trained from."""
    return {
        "agg_share_digest": hashlib.sha256(agg_share_blob).hexdigest(),
        "agg_share_blob": base64.b64encode(agg_share_blob).decode("ascii"),
        "trust_weights": {str(cid): float(w) for cid, w in sorted(trust_weights.items())},
        "global_model_digest": global_model_digest.hex(),
    }


def payload_agg_blob(payload: dict[str, Any]) -> bytes:
    """The aggregate-share blob of a round payload.

    Raises FormatError when the blob or its digest is missing, the blob is
    not strict base64, or the digest does not match the decoded bytes.
    """
    try:
        text, digest = payload["agg_share_blob"], payload["agg_share_digest"]
        blob = base64.b64decode(text, validate=True)
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise FormatError(f"round payload has no valid agg_share_blob: {exc!r}") from exc
    if hashlib.sha256(blob).hexdigest() != digest:
        raise FormatError("agg_share_digest does not match the decoded agg_share_blob")
    return blob


def payload_trust_weights(payload: dict[str, Any]) -> dict[int, float]:
    """The trust weights of a round payload, by client id.

    Raises FormatError unless they are an object mapping canonical ids
    (integers in the wire's u32 range) to finite numbers >= 0.
    """
    try:
        raw = payload["trust_weights"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"round payload has no trust_weights: {exc!r}") from exc
    if not isinstance(raw, dict):
        raise FormatError("trust_weights is not an object")
    weights: dict[int, float] = {}
    for key, w in raw.items():
        # Ten digits cover every u32 and keep int() within its digit limit.
        if not (isinstance(key, str) and key.isascii() and key.isdigit()
                and len(key) <= 10 and str(int(key)) == key and int(key) < 2**32):
            raise FormatError(f"trust weight key {key!r} is not a client id")
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise FormatError(f"trust weight of client {key} is not a number")
        try:
            value = float(w)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not (math.isfinite(value) and value >= 0):
            raise FormatError(f"trust weight of client {key} is {w}")
        weights[int(key)] = value
    return weights


class Ledger:
    """Single-writer append-only chain, optionally persisted as JSONL.  It
    holds only its head, whose hash commits to every earlier block; the
    file, which the first append creates (an existing one is an error), is
    the chain `read_chain` and `verify_file` read back."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.head: Block | None = None
        self._fh: TextIO | None = None  # append handle, opened on first append

    def append(self, round_no: int, payload: dict[str, Any]) -> Block:
        """Append a block; the line is flushed to the file before the call
        returns, so readers see every appended block while the run goes on."""
        head = self.head
        index, prev = (0, GENESIS_HASH) if head is None else (head.index + 1, head.hash)
        block = Block(index, round_no, prev, payload, block_hash(index, round_no, prev, payload))
        if self.path is not None:
            if self._fh is None:
                self._fh = self.path.open("x" if head is None else "a", encoding="utf-8")
            record = {"index": index, "round": round_no, "prev_hash": prev.hex(),
                      "payload": payload, "hash": block.hash.hex()}
            self._fh.write(_compact_json(record) + "\n")
            self._fh.flush()
        self.head = block
        return block

    def close(self) -> None:
        """Release the append handle; a later append reopens the file."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def read_round(self, round_no: int) -> dict[str, Any]:
        """Payload of the head block, which must be the given round's: the
        round loop reads each record right after appending it, so any other
        round would be a stale record."""
        if self.head is None or self.head.round != round_no:
            raise RoundNotFound(f"the ledger head is not round {round_no}'s block")
        return self.head.payload


def read_chain(path: str | Path) -> Iterator[Block]:
    """Parse a JSONL chain file, one block per line.  A line that is not a
    block (blank, malformed, invalid UTF-8 or nested too deep to parse)
    raises FormatError; only a final newline ends the file without one."""
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh):
            try:
                record = json.loads(line.decode("utf-8"))
                yield Block(
                    index=int(record["index"]),
                    round=int(record["round"]),
                    prev_hash=bytes.fromhex(record["prev_hash"]),
                    payload=record["payload"],
                    hash=bytes.fromhex(record["hash"]),
                )
            # UnicodeDecodeError is a ValueError; OverflowError comes from
            # int() of an index or round that JSON parsed as infinity, and
            # RecursionError from nesting deeper than the parser's stack.
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc


def verify_blocks(blocks: Iterable[Block]) -> int | None:
    """Recompute every hash and linkage, keeping only the previous block's
    hash; return the first bad index, or None when the chain is intact."""
    prev = GENESIS_HASH
    for i, block in enumerate(blocks):
        if block.index != i or block.prev_hash != prev:
            return i
        try:
            digest = block_hash(block.index, block.round, block.prev_hash, block.payload)
        except RecursionError:  # a payload nested too deep to re-encode
            return i
        if digest != block.hash:
            return i
        prev = block.hash
    return None


def audit_file(path: str | Path) -> tuple[int | None, Block | None]:
    """(first bad index or None, last block read) of a persisted chain,
    verified holding one block at a time.  A line that is not a block or
    breaks the chain is bad, and so is index 0 of a file with no block
    (every run writes one): byte corruption must never escape detection."""
    head: Block | None = None

    def blocks() -> Iterator[Block]:
        nonlocal head
        for head in read_chain(path):
            yield head
    try:
        bad = verify_blocks(blocks())
    except FormatError:  # every block before the unreadable line was intact
        return (0 if head is None else head.index + 1), head
    return (0 if head is None else bad), head


def verify_file(path: str | Path) -> int | None:
    """The first bad index of a persisted chain (see `audit_file`)."""
    return audit_file(path)[0]
