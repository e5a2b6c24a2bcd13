import hashlib
import tracemalloc

import numpy as np
import pytest

from dp2guard.errors import FormatError, RoundNotFound
from dp2guard.ledger import (
    GENESIS_HASH,
    Ledger,
    _compact_json,
    block_hash,
    make_round_payload,
    payload_agg_blob,
    payload_trust_weights,
    read_chain,
    verify_blocks,
    verify_file,
)
from dp2guard.numeric import serialize_ring, substream, uniform_words


def _payload(seed: int, round_no: int) -> dict:
    rng = substream(seed, "ledger", round_no)
    blob = serialize_ring(uniform_words(6, rng), 48)
    tau = {i: float(w) for i, w in enumerate(rng.dirichlet(np.ones(4)))}
    return make_round_payload(blob, tau, hashlib.sha256(b"model%d" % round_no).digest())


def _build_chain(path, n_blocks: int, seed=0) -> Ledger:
    ledger = Ledger(path)
    for r in range(n_blocks):
        ledger.append(r, _payload(seed, r))
    ledger.close()
    return ledger


class TestAppend:
    def test_genesis_block(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = _build_chain(path, 1)
        [block] = read_chain(path)
        assert block.index == 0
        assert block.prev_hash == GENESIS_HASH
        assert ledger.head == block

    def test_chain_linkage(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _build_chain(path, 2)
        first, second = read_chain(path)
        assert second.prev_hash == first.hash

    def test_append_then_verify_ok(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _build_chain(path, 10)
        assert verify_blocks(read_chain(path)) is None
        assert verify_file(path) is None

    @pytest.mark.parametrize("persisted", [True, False], ids=["file", "in-memory"])
    def test_head_is_the_last_block_of_the_file(self, tmp_path, persisted):
        # The ledger keeps only its head, whose hash commits to every
        # earlier block; it links each append to the head exactly as the
        # file's chain links its blocks, with or without a file.
        path = tmp_path / "l.jsonl"
        on_file = _build_chain(path, 7)
        ledger = on_file if persisted else _build_chain(None, 7)
        *_, last = read_chain(path)
        head = ledger.head
        assert (head.index, head.prev_hash, head.hash) == (last.index, last.prev_hash, last.hash)
        assert head == last
        assert vars(ledger).keys() == {"path", "head", "_fh"}

    def test_existing_file_is_never_extended(self, tmp_path):
        # The first append creates the file: a second chain restarted at
        # index 0 behind the old blocks would break the file's chain.
        path = tmp_path / "l.jsonl"
        _build_chain(path, 3)
        before = path.read_bytes()
        ledger = Ledger(path)
        assert ledger.head is None
        with pytest.raises(FileExistsError):
            ledger.append(0, _payload(5, 0))
        assert ledger.head is None
        assert path.read_bytes() == before

    def test_persisted_before_return(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = Ledger(path)
        ledger.append(0, _payload(1, 0))
        assert len(path.read_text().splitlines()) == 1
        ledger.close()

    def test_open_handle_writes_the_reopen_bytes(self, tmp_path):
        # One handle kept open across appends writes the same bytes as
        # reopening the file for every block, and each block is readable
        # (flushed) as soon as append returns.
        kept = Ledger(tmp_path / "kept.jsonl")
        reopened = Ledger(tmp_path / "reopened.jsonl")
        for r in range(6):
            kept.append(r, _payload(4, r))
            reopened.append(r, _payload(4, r))
            reopened.close()
            assert verify_file(kept.path) is None
            assert kept.path.read_bytes() == reopened.path.read_bytes()
        kept.close()
        assert kept.path.read_bytes() == reopened.path.read_bytes()

    def test_line_is_the_compact_record(self, tmp_path):
        # append encodes the payload once and splices it into the line; the
        # line must be the compact sorted-key JSON of the whole record, byte
        # for byte, and the hash that of the record's fields, whatever
        # escapes, nesting or round numbers the payload and round bring.
        ledger = Ledger(tmp_path / "l.jsonl")
        payloads = [(0, _payload(5, 0)), (7, {"z": [1, 2.5e-300, None], "a": {"\u00e9\n": "\""}}),
                    (2**63 - 1, {}), (3, {"agg_share_blob": "A" * 70_000, "round": -1})]
        lines = []
        for round_no, payload in payloads:
            block = ledger.append(round_no, payload)
            assert block.hash == block_hash(block.index, round_no, block.prev_hash, payload)
            lines.append(_compact_json({"index": block.index, "round": round_no,
                                        "prev_hash": block.prev_hash.hex(),
                                        "payload": payload, "hash": block.hash.hex()}) + "\n")
        ledger.close()
        assert ledger.path.read_text(encoding="utf-8") == "".join(lines)
        assert verify_file(ledger.path) is None

    def test_append_after_close_reopens(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = _build_chain(path, 3)
        ledger.close()
        ledger.close()
        ledger.append(3, _payload(0, 3))
        ledger.close()
        assert len(path.read_text().splitlines()) == 4
        assert verify_file(path) is None

    @pytest.mark.parametrize("line", [b'{"index":0}\xa6', b'{"index":1e400,"round":0}',
                                      b"[" * 200_000, b""],
                             ids=["invalid-utf8", "infinite-index", "deep-nesting", "blank"])
    def test_unreadable_line_raises_format_error(self, tmp_path, line):
        path = tmp_path / "l.jsonl"
        _build_chain(path, 2)
        path.write_bytes(path.read_bytes() + line + b"\n")
        with pytest.raises(FormatError, match="line 2"):
            list(read_chain(path))
        assert verify_file(path) == 2

    def test_blank_interior_line_is_a_bad_block(self, tmp_path):
        # One line rule for both readers: only the final newline may end
        # the file without a block after it.
        path = tmp_path / "l.jsonl"
        _build_chain(path, 3)
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(lines[:1] + [b""] + lines[1:]))
        with pytest.raises(FormatError, match="line 1"):
            list(read_chain(path))
        assert verify_file(path) == 1


class TestVerify:
    def test_payload_byte_flip_detected_at_index(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _build_chain(path, 10)
        blocks = list(read_chain(path))
        tampered = blocks[4].payload.copy()
        tampered["trust_weights"] = dict(tampered["trust_weights"])
        tampered["trust_weights"]["0"] = 0.123456
        blocks[4] = type(blocks[4])(4, blocks[4].round, blocks[4].prev_hash,
                                    tampered, blocks[4].hash)
        assert verify_blocks(blocks) == 4

    def test_spliced_out_block_detected(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _build_chain(path, 10)
        lines = path.read_text().splitlines()
        del lines[3]
        path.write_text("\n".join(lines) + "\n")
        assert verify_file(path) == 3

    def test_single_bit_flips_detected_with_correct_index(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _build_chain(path, 12, seed=3)
        raw = bytearray(path.read_bytes())
        line_starts = [0]
        for i, b in enumerate(raw):
            if b == 0x0A:
                line_starts.append(i + 1)
        rng = substream(4, "flip")
        for _ in range(50):
            pos = int(rng.integers(0, len(raw)))
            bit = int(rng.integers(0, 8))
            mutated = bytearray(raw)
            mutated[pos] ^= 1 << bit
            corrupt = tmp_path / "corrupt.jsonl"
            corrupt.write_bytes(bytes(mutated))
            want_line = sum(1 for s in line_starts[1:] if pos >= s)
            got = verify_file(corrupt)
            assert got is not None, f"flip at byte {pos} bit {bit} undetected"
            assert got <= want_line

    def test_hash_field_tamper_detected(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _build_chain(path, 3)
        text = path.read_text().splitlines()
        block1 = text[1]
        # flip one hex digit of the stored hash
        idx = block1.find('"hash":"') + len('"hash":"')
        flipped = "0" if block1[idx] != "0" else "1"
        text[1] = block1[:idx] + flipped + block1[idx + 1:]
        path.write_text("\n".join(text) + "\n")
        assert verify_file(path) == 1


    def test_file_without_blocks_is_bad_at_index_zero(self, tmp_path):
        # Every run writes at least one block, so a file holding none is
        # not an intact chain.
        path = tmp_path / "l.jsonl"
        path.write_bytes(b"")
        assert verify_file(path) == 0

    def test_verify_file_holds_one_block_at_a_time(self, tmp_path):
        # The file is the chain: verifying it streams the blocks and keeps
        # only the previous hash, so its peak traced memory stays a small
        # fraction of the file, not a copy of every block.
        path = tmp_path / "l.jsonl"
        ledger = Ledger(path)
        for r in range(200):
            blob = serialize_ring(uniform_words(1000, substream(9, "big", r)), 48)
            ledger.append(r, make_round_payload(blob, {0: 1.0}, bytes(32)))
        ledger.close()
        tracemalloc.start()
        try:
            assert verify_file(path) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * path.stat().st_size


class TestReadRound:
    def test_round_payload_round_trips_weights_bit_exact(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = Ledger(path)
        blob = serialize_ring(uniform_words(5, substream(5, "b")), 48)
        tau = {0: 0.3123456789012345, 1: 0.6876543210987655}
        ledger.append(0, make_round_payload(blob, tau, bytes(32)))
        ledger.close()
        [block] = read_chain(path)
        for got in (ledger.read_round(0), block.payload):
            assert payload_trust_weights(got) == tau
            assert payload_agg_blob(got) == blob

    def test_missing_round(self, tmp_path):
        ledger = _build_chain(tmp_path / "l.jsonl", 2)
        with pytest.raises(RoundNotFound):
            ledger.read_round(7)

    def test_only_the_head_round_is_read(self, tmp_path):
        # S1 reads each record right after it is appended, so any round
        # but the head's is a stale record, even one the file holds.
        ledger = Ledger()
        with pytest.raises(RoundNotFound):
            ledger.read_round(0)
        ledger.append(0, _payload(1, 0))
        ledger.append(1, _payload(1, 1))
        assert ledger.read_round(1) == _payload(1, 1)
        with pytest.raises(RoundNotFound):
            ledger.read_round(0)
        ledger.append(0, _payload(2, 0))
        assert ledger.read_round(0) == _payload(2, 0)
        with pytest.raises(RoundNotFound):
            ledger.read_round(1)

    def test_all_recorded_rounds_readable_after_verify(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = _build_chain(path, 6)
        assert verify_file(path) is None
        payloads = {block.round: block.payload for block in read_chain(path)}
        assert payloads == {r: _payload(0, r) for r in range(6)}
        assert ledger.read_round(5) == payloads[5]


def _without(key):
    def edit(p):
        del p[key]
    return edit


def _setter(key, value):
    def edit(p):
        p[key] = value
    return edit


def _weight(key, value):
    def edit(p):
        p["trust_weights"] = {key: value}
    return edit


# One malformed-but-hash-valid payload per defect; each must raise FormatError
# from the reader named, not KeyError, binascii.Error, TypeError or
# AttributeError.
MALFORMED = {
    "blob missing": (payload_agg_blob, _without("agg_share_blob")),
    "digest missing": (payload_agg_blob, _without("agg_share_digest")),
    "blob not base64": (payload_agg_blob, _setter("agg_share_blob", "AAAA!!!!")),
    "blob base64 with junk": (payload_agg_blob, _setter("agg_share_blob", "AAAA\nAAAA")),
    "blob not a string": (payload_agg_blob, _setter("agg_share_blob", 12)),
    "digest mismatch": (payload_agg_blob, _setter("agg_share_digest", "00" * 32)),
    "weights missing": (payload_trust_weights, _without("trust_weights")),
    "weights not an object": (payload_trust_weights, _setter("trust_weights", [0.5, 0.5])),
    "id not an integer": (payload_trust_weights, _weight("a", 1.0)),
    "id not canonical": (payload_trust_weights, _weight("01", 1.0)),
    "id negative": (payload_trust_weights, _weight("-1", 1.0)),
    "id beyond u32": (payload_trust_weights, _weight("4294967296", 1.0)),
    "id beyond int digit limit": (payload_trust_weights, _weight("1" * 5000, 1.0)),
    "weight a string": (payload_trust_weights, _weight("0", "1.0")),
    "weight null": (payload_trust_weights, _weight("0", None)),
    "weight a bool": (payload_trust_weights, _weight("0", True)),
    "weight nan": (payload_trust_weights, _weight("0", float("nan"))),
    "weight infinite": (payload_trust_weights, _weight("0", float("inf"))),
    "weight beyond float range": (payload_trust_weights, _weight("0", 10**400)),
    "weight negative": (payload_trust_weights, _weight("0", -0.25)),
}


class TestPayloadReaders:
    @pytest.mark.parametrize("defect", sorted(MALFORMED))
    def test_malformed_payload_raises_format_error(self, tmp_path, defect):
        reader, edit = MALFORMED[defect]
        payload = _payload(7, 0)
        edit(payload)
        path = tmp_path / "l.jsonl"
        ledger = Ledger(path)
        ledger.append(0, payload)
        ledger.close()
        assert verify_file(path) is None
        [block] = read_chain(path)
        with pytest.raises(FormatError):
            reader(block.payload)

    @pytest.mark.parametrize("reader", [payload_agg_blob, payload_trust_weights])
    def test_non_object_payload_raises_format_error(self, reader):
        with pytest.raises(FormatError):
            reader(["not", "a", "payload"])

    def test_valid_payload_decodes_as_written(self):
        blob = serialize_ring(uniform_words(5, substream(8, "b")), 48)
        tau = {0: 0.25, 3: 0.0, 2**32 - 1: 0.75}  # the largest u32 id
        payload = make_round_payload(blob, tau, bytes(32))
        assert payload_agg_blob(payload) == blob
        got = payload_trust_weights(payload)
        assert got == tau and all(type(w) is float for w in got.values())


def test_block_hash_covers_all_fields():
    payload = _payload(6, 0)
    base = block_hash(0, 0, GENESIS_HASH, payload)
    assert block_hash(1, 0, GENESIS_HASH, payload) != base
    assert block_hash(0, 1, GENESIS_HASH, payload) != base
    assert block_hash(0, 0, b"\x01" + bytes(31), payload) != base
    other = dict(payload)
    other["global_model_digest"] = "00" * 32
    assert block_hash(0, 0, GENESIS_HASH, other) != base
