import hashlib
import json
import struct
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapsim.ledger import (
    GENESIS_HASH,
    Block,
    Ledger,
    block_digest,
    canonical_payload,
    chain_break,
    verify_chain,
)


def test_digest_formula_oracle():
    # derived by hand: LE u64 index, LE u64 round, BE u32 length, payload, prev
    got = block_digest(0, 0, b"{}", bytes(32))
    assert got.hex() == "0cf115858d4bc4e6e88ab0c2436f62d34f955aa1aa38ad988721b04323852a24"


def test_digest_matches_independent_reconstruction():
    payload = canonical_payload({"round": 3, "elected": [5, 1]})
    prev = bytes(range(32))
    expected = hashlib.sha256(
        struct.pack("<Q", 7)
        + struct.pack("<Q", 3)
        + struct.pack(">I", len(payload))
        + payload
        + prev
    ).digest()
    assert block_digest(7, 3, payload, prev) == expected


def test_canonical_payload_sorts_keys():
    assert canonical_payload({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def test_empty_chain_verifies():
    assert Ledger().verify()
    assert verify_chain([])


def test_append_links_blocks():
    led = Ledger()
    b0 = led.append(0, {"elected": [1]})
    b1 = led.append(1, {"elected": [2]})
    assert b0.prev_hash == GENESIS_HASH
    assert b1.prev_hash == b0.digest
    assert b0.index == 0 and b1.index == 1
    assert led.verify()


def test_rounds_must_increase():
    led = Ledger()
    led.append(5, {})
    with pytest.raises(ValueError):
        led.append(5, {})
    with pytest.raises(ValueError):
        led.append(4, {})
    led.append(6, {})
    assert led.verify()


def _chain(n=5):
    led = Ledger()
    for r in range(n):
        led.append(r, {"round": r, "elected": [r, r + 1]})
    return led


def test_tampered_payload_detected():
    led = _chain()
    led.blocks[2] = replace(led.blocks[2], payload=canonical_payload({"elected": [99]}))
    assert not led.verify()


def test_tampered_prev_hash_detected():
    led = _chain()
    led.blocks[3] = replace(led.blocks[3], prev_hash=bytes(32))
    assert not led.verify()


def test_tampered_digest_detected():
    led = _chain()
    bad = bytearray(led.blocks[4].digest)
    bad[0] ^= 0xFF
    led.blocks[4] = replace(led.blocks[4], digest=bytes(bad))
    assert not led.verify()


def test_reordered_blocks_detected():
    led = _chain()
    led.blocks[1], led.blocks[2] = led.blocks[2], led.blocks[1]
    assert not led.verify()


def test_dropped_block_detected():
    led = _chain()
    del led.blocks[1]
    assert not led.verify()


def test_genesis_must_be_zero():
    led = _chain(2)
    led.blocks[0] = replace(led.blocks[0], prev_hash=b"\x01" + bytes(31))
    assert not led.verify()


def _sealed(rounds):
    """A chain of properly linked and sealed blocks over the given rounds."""
    blocks, prev = [], GENESIS_HASH
    for i, r in enumerate(rounds):
        payload = canonical_payload({"round": r})
        blocks.append(Block(i, r, payload, prev, block_digest(i, r, payload, prev)))
        prev = blocks[-1].digest
    return blocks


def _with_payload(blocks, i):
    blocks[i] = replace(blocks[i], payload=canonical_payload({"elected": [99]}))


def _with_index(blocks, i):
    blocks[i] = replace(blocks[i], index=7)


def _with_prev_hash(blocks, i):
    blocks[i] = replace(blocks[i], prev_hash=b"\x01" + bytes(31))


def _dropped(blocks, i):
    del blocks[i]


@pytest.mark.parametrize(
    "tamper, at, check",
    [
        (_with_index, 2, "index"),
        (_dropped, 1, "index"),
        (_with_prev_hash, 3, "prev_hash"),
        (_with_prev_hash, 0, "prev_hash"),
        (_with_payload, 2, "digest"),
        (_with_payload, 4, "digest"),
    ],
)
def test_chain_break_names_block_and_check(tamper, at, check):
    blocks = list(_chain().blocks)
    tamper(blocks, at)
    assert chain_break(blocks) == (at, check)
    assert not verify_chain(blocks)


def test_chain_break_names_round_order():
    # linked and sealed, but round 1 is logged twice
    blocks = _sealed([0, 1, 1, 2])
    assert chain_break(blocks) == (2, "round_order")
    assert chain_break(_sealed([0, 1, 5, 9])) is None


def test_chain_break_reports_the_first_break():
    blocks = list(_chain(6).blocks)
    _with_payload(blocks, 4)
    _with_payload(blocks, 1)
    assert chain_break(blocks) == (1, "digest")


def test_sound_chains_have_no_break():
    assert chain_break([]) is None
    assert chain_break(_chain().blocks) is None


def test_json_round_trip(tmp_path):
    led = _chain(7)
    path = tmp_path / "ledger.json"
    led.to_json(path)
    again = Ledger.from_json(path)
    assert again.blocks == led.blocks
    assert again.verify()
    raw = json.loads(path.read_text())
    assert [r["index"] for r in raw] == list(range(7))
    for row in raw:
        assert row["digest"] == row["digest"].lower()
        assert len(row["prev_hash"]) == 64


@given(
    st.lists(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(-1000, 1000), st.text(max_size=8), st.booleans()),
            max_size=4,
        ),
        max_size=8,
    )
)
def test_arbitrary_payloads_chain(payloads):
    led = Ledger()
    for r, payload in enumerate(payloads):
        led.append(r, payload)
    assert led.verify()
    assert chain_break(led.blocks) is None
    assert len(led) == len(payloads)
