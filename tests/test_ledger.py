import hashlib

import numpy as np
import pytest

from dp2guard.errors import FormatError, RoundNotFound
from dp2guard.ledger import (
    GENESIS_HASH,
    Ledger,
    block_hash,
    make_round_payload,
    payload_agg_blob,
    payload_trust_weights,
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
        ledger = _build_chain(tmp_path / "l.jsonl", 1)
        assert ledger.blocks[0].index == 0
        assert ledger.blocks[0].prev_hash == GENESIS_HASH

    def test_chain_linkage(self, tmp_path):
        ledger = _build_chain(tmp_path / "l.jsonl", 2)
        assert ledger.blocks[1].prev_hash == ledger.blocks[0].hash

    def test_append_then_verify_ok(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = _build_chain(path, 10)
        assert ledger.verify() is None
        assert verify_file(path) is None

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

    def test_append_after_close_reopens(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = _build_chain(path, 3)
        ledger.close()
        ledger.close()
        ledger.append(3, _payload(0, 3))
        ledger.close()
        assert len(path.read_text().splitlines()) == 4
        assert verify_file(path) is None
        assert [b.hash for b in Ledger(path).blocks] == [b.hash for b in ledger.blocks]

    def test_reload_from_disk(self, tmp_path):
        path = tmp_path / "l.jsonl"
        first = _build_chain(path, 5)
        reloaded = Ledger(path)
        assert [b.hash for b in reloaded.blocks] == [b.hash for b in first.blocks]
        reloaded.append(5, _payload(0, 5))
        reloaded.close()
        assert verify_file(path) is None


    @pytest.mark.parametrize("line", [b'{"index":0}\xa6', b'{"index":1e400,"round":0}',
                                      b"[" * 200_000, b""],
                             ids=["invalid-utf8", "infinite-index", "deep-nesting", "blank"])
    def test_unreadable_line_raises_format_error(self, tmp_path, line):
        path = tmp_path / "l.jsonl"
        _build_chain(path, 2)
        path.write_bytes(path.read_bytes() + line + b"\n")
        with pytest.raises(FormatError, match="line 2"):
            Ledger(path)
        assert verify_file(path) == 2

    def test_blank_interior_line_is_a_bad_block(self, tmp_path):
        # One line rule for both readers: only the final newline may end
        # the file without a block after it.
        path = tmp_path / "l.jsonl"
        _build_chain(path, 3)
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(lines[:1] + [b""] + lines[1:]))
        with pytest.raises(FormatError, match="line 1"):
            Ledger(path)
        assert verify_file(path) == 1


class TestVerify:
    def test_payload_byte_flip_detected_at_index(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = _build_chain(path, 10)
        blocks = list(ledger.blocks)
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


class TestReadRound:
    def test_round_payload_round_trips_weights_bit_exact(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = Ledger(path)
        blob = serialize_ring(uniform_words(5, substream(5, "b")), 48)
        tau = {0: 0.3123456789012345, 1: 0.6876543210987655}
        ledger.append(0, make_round_payload(blob, tau, bytes(32)))
        ledger.close()
        got = Ledger(path).read_round(0)
        assert payload_trust_weights(got) == tau
        assert payload_agg_blob(got) == blob

    def test_missing_round(self, tmp_path):
        ledger = _build_chain(tmp_path / "l.jsonl", 2)
        with pytest.raises(RoundNotFound):
            ledger.read_round(7)

    def test_all_recorded_rounds_readable_after_verify(self, tmp_path):
        ledger = _build_chain(tmp_path / "l.jsonl", 6)
        assert ledger.verify() is None
        for r in range(6):
            assert ledger.read_round(r) is not None

    def test_duplicate_round_reads_first_block(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = Ledger(path)
        ledger.append(0, _payload(1, 0))
        ledger.append(1, _payload(1, 1))
        ledger.append(0, _payload(2, 0))
        ledger.close()
        assert ledger.read_round(0) == _payload(1, 0)
        assert ledger.read_round(1) == _payload(1, 1)

    def test_reopened_ledger_keeps_round_lookup(self, tmp_path):
        path = tmp_path / "l.jsonl"
        first = Ledger(path)
        first.append(3, _payload(1, 3))
        first.append(3, _payload(2, 3))
        first.close()
        reopened = Ledger(path)
        assert reopened.read_round(3) == _payload(1, 3)
        with pytest.raises(RoundNotFound):
            reopened.read_round(0)
        reopened.append(0, _payload(1, 0))
        reopened.append(3, _payload(3, 3))
        reopened.close()
        assert reopened.read_round(0) == _payload(1, 0)
        assert reopened.read_round(3) == _payload(1, 3)
        assert reopened.verify() is None


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
        reopened = Ledger(path)
        assert reopened.verify() is None
        with pytest.raises(FormatError):
            reader(reopened.read_round(0))

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
