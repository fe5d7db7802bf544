"""Hash chained, append only log of selection events.

Canonical block digest input, in order:
  little endian u64 block index,
  little endian u64 round index,
  big endian u32 payload length,
  payload bytes (compact JSON, sorted keys),
  32 byte previous digest.

ledger.json is a JSON array with one object per block, in chain order:
"digest" and "prev_hash" as 64 lowercase hex digits, "index", "payload" (the
decoded payload) and "round". Keys are sorted at every level, the indent is
2 spaces and a newline ends the file, so an empty ledger is "[]\\n". These are
the bytes of json.dump(rows, fh, sort_keys=True, indent=2) plus "\\n".

The writer decodes each payload with one C scanner call (decode_json),
renders it with `indented`, which writes ints, strings, empty containers and
int lists in place, and writes each row as soon as it is rendered, so it
holds one row at a time. The reader relies on that layout: each row ends
with the line "  }", and no other line starts that way, since the payload is
indented 4 or more spaces and a JSON string holds no raw newline. It reads
READ_CHUNK characters at a time and decodes each run of whole rows with one
scanner call, so it holds the blocks plus one chunk and its rows. Any other
text, and a file with a bad row, is read whole by json.load. It makes one
type and range check per row, and only a failing row takes the ordered field
checks that name the first bad field. Both append and the reader encode
payloads with one C encoder built at import, without cycle markers, so it
keeps no per-call state.

A payload's "input_digest" is the sha256 hex digest of the round's election
table as compact JSON: one [ident, load, trust] row per unflagged identity
with positive trust, in ident order, ints in decimal and trust as
float.__repr__, e.g. [[0,4,100.0],[2,3,80.5]] (selection.table_digest).
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any

GENESIS_HASH = bytes(32)
_encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, True)
_pack_indices = struct.Struct("<QQ").pack
_scan_once = json.JSONDecoder().scan_once
_U64 = 1 << 64
# characters from_json reads at a time
READ_CHUNK = 1 << 16
# how to_json opens a non-empty ledger; any other text is read by json.load
_OPENING = "[\n  {\n"


def canonical_payload(obj: Any) -> bytes:
    """json.dumps(obj, sort_keys=True, separators=(",", ":")).encode(); a cycle raises RecursionError."""
    return "".join(_encode(obj, 0)).encode("utf-8")


def block_digest(index: int, round_index: int, payload: bytes, prev_hash: bytes) -> bytes:
    head = _pack_indices(index, round_index) + len(payload).to_bytes(4, "big")
    return hashlib.sha256(head + payload + prev_hash).digest()


def decode_json(text: str) -> Any:
    """json.loads(text), with one C scanner call when the value spans the whole text."""
    try:
        obj, end = _scan_once(text, 0)
    except (StopIteration, ValueError):
        end = -1
    # surrounding whitespace, trailing data and malformed text take json.loads
    # itself, so they decode or raise exactly as it does
    return obj if end == len(text) else json.loads(text)


def indented(obj: Any, pad: str) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) with `pad` after every newline,
    for obj built of str-keyed dicts, lists, str, int, float, bool and None;
    to_json's payload renderer."""
    is_list = type(obj) is list
    if not (is_list or type(obj) is dict) or not obj:
        return "".join(_encode(obj, 0))
    inner = pad + "  "
    sep = ",\n" + inner
    out = []
    for item in obj if is_list else sorted(obj):
        value = item if is_list else obj[item]
        kind = type(value)
        # an exact int, so repr is int's; bool is not int here
        if kind is int:
            text = repr(value)
        elif kind is str:
            text = encode_basestring_ascii(value)
        elif not value and (kind is list or kind is dict):
            text = "[]" if kind is list else "{}"
        elif kind is list and {int} >= set(map(type, value)):
            text = "[\n" + inner + "  " + (sep + "  ").join(map(repr, value)) + "\n" + inner + "]"
        else:
            text = indented(value, inner)
        out.append(text if is_list else encode_basestring_ascii(item) + ": " + text)
    brackets = "[]" if is_list else "{}"
    return brackets[0] + "\n" + inner + sep.join(out) + "\n" + pad + brackets[1]


@dataclass(frozen=True, slots=True)
class Block:
    index: int
    round_index: int
    payload: bytes
    prev_hash: bytes
    digest: bytes

    def payload_obj(self) -> Any:
        return decode_json(self.payload.decode("utf-8"))


def chain_break(blocks: list[Block]) -> tuple[int, str] | None:
    """First inconsistency as (position, check), or None for a sound chain.

    Per block, in order: "index" is its position, "prev_hash" links to the
    previous digest (genesis first), "round_order" rounds strictly increase,
    "digest" matches a recomputation.
    """
    prev = GENESIS_HASH
    last_round: int | None = None
    for i, b in enumerate(blocks):
        if b.index != i:
            return i, "index"
        if b.prev_hash != prev:
            return i, "prev_hash"
        if last_round is not None and b.round_index <= last_round:
            return i, "round_order"
        if block_digest(b.index, b.round_index, b.payload, b.prev_hash) != b.digest:
            return i, "digest"
        prev = b.digest
        last_round = b.round_index
    return None


def verify_chain(blocks: list[Block]) -> bool:
    """Recompute every digest and link; reject any inconsistency."""
    return chain_break(blocks) is None


class Ledger:
    """Grow-only chain; blocks must arrive in strictly increasing rounds."""

    def __init__(self, blocks: list[Block] | None = None) -> None:
        self.blocks: list[Block] = list(blocks) if blocks else []

    def __len__(self) -> int:
        return len(self.blocks)

    def append(self, round_index: int, payload_obj: Any) -> Block:
        # only a round that from_json reads back: an int, not a bool, in u64 range
        if type(round_index) is not int or not 0 <= round_index < _U64:
            raise ValueError(f"round {round_index!r} is not an unsigned 64-bit integer")
        if self.blocks and round_index <= self.blocks[-1].round_index:
            raise ValueError("round index must increase monotonically")
        payload = canonical_payload(payload_obj)
        prev = self.blocks[-1].digest if self.blocks else GENESIS_HASH
        index = len(self.blocks)
        block = Block(
            index=index,
            round_index=round_index,
            payload=payload,
            prev_hash=prev,
            digest=block_digest(index, round_index, payload, prev),
        )
        self.blocks.append(block)
        return block

    def verify(self) -> bool:
        return verify_chain(self.blocks)

    def to_json(self, path: Any) -> None:
        """Write ledger.json a row at a time as each is rendered, holding one row.
        A payload that fails to decode leaves the rows before it in a partial
        file; report.write_run is the all-or-none writer."""
        with open(path, "w", encoding="utf-8") as fh:
            sep = "[\n"
            for b in self.blocks:
                fh.write(
                    f'{sep}  {{\n    "digest": "{b.digest.hex()}",\n    "index": {b.index},\n'
                    f'    "payload": {indented(b.payload_obj(), "    ")},\n'
                    f'    "prev_hash": "{b.prev_hash.hex()}",\n    "round": {b.round_index}\n  }}'
                )
                sep = ",\n"
            fh.write("\n]\n" if self.blocks else "[]\n")

    @classmethod
    def from_json(cls, path: Any) -> "Ledger":
        """Load ledger.json; ValueError names the first malformed row and field.
        Text in to_json's layout is read a chunk at a time, holding the blocks
        plus one chunk and its rows. Any other text, and a bad row, takes one
        json.load of the whole file, so every result and error is json.load's,
        then the rows' in order."""
        with open(path, "r", encoding="utf-8") as fh:
            blocks = _read_blocks(fh)
            if blocks is None:
                fh.seek(0)
                rows = json.load(fh)
                if type(rows) is not list:
                    raise ValueError("ledger is not a JSON array of blocks")
                blocks = [_row_block(i, row) for i, row in enumerate(rows)]
        return cls(blocks)


def _read_blocks(fh: Any) -> list[Block] | None:
    """Blocks of fh's text in the layout to_json writes, or None for any other
    text, a row that fails its checks or bytes that are not UTF-8.

    A read ends a run of whole rows at its last "\\n  }", the line that closes
    a row and no other line of the layout. One scanner call decodes the run,
    which must take all of it and follow "[\\n" or ",\\n"; the text after the
    last run must be "\\n]\\n". So the file is one JSON array of the runs' rows.
    Text that does not open as a non-empty ledger's first row returns None
    as soon as it is read."""
    blocks, buf, head = [], "", "[\n"
    try:
        while True:
            # a row longer than a chunk doubles the read, so no text is read in quadratic time
            chunk = fh.read(max(READ_CHUNK, len(buf)))
            buf += chunk
            if not blocks and not buf.startswith(_OPENING[: len(buf)]):
                return None
            end = buf.rfind("\n  }") + 4  # 3 when no row ends in buf
            if end > 3:
                if buf[:2] != head:
                    return None
                # "[" + run + "]" is as long as buf[:end], so a scan of all of it ends at end
                rows, at = _scan_once("[" + buf[2:end] + "]", 0)
                if at != end:
                    return None
                for row in rows:
                    blocks.append(_row_block(len(blocks), row))
                buf, head = buf[end:], ",\n"
            if not chunk:
                return blocks if head == ",\n" and buf == "\n]\n" else None
    except (ValueError, RecursionError, StopIteration):
        return None


def _row_block(i: int, row: Any) -> Block:
    """Block of ledger.json row i, or ValueError naming the row and field."""
    try:
        index, round_index, payload = row["index"], row["round"], row["payload"]
        prev_text, digest_text = row["prev_hash"], row["digest"]
        prev_hash, digest = bytes.fromhex(prev_text), bytes.fromhex(digest_text)
    except (KeyError, TypeError, ValueError):
        pass
    else:
        # a hash is read only as the lowercase text to_json writes back
        whole = len(prev_hash) == len(digest) == 32 and prev_hash.hex() == prev_text and digest.hex() == digest_text
        if whole and type(index) is int and type(round_index) is int and 0 <= index < _U64 and 0 <= round_index < _U64:
            return Block(index, round_index, canonical_payload(payload), prev_hash, digest)
    raise ValueError(f"row {i} {_row_fault(row)}")


def _row_fault(row: Any) -> str:
    """The first field check, in order, that a row rejected by _row_block fails."""
    if type(row) is not dict:
        return "is not an object"
    for key in ("index", "round", "payload", "prev_hash", "digest"):
        if key not in row:
            return f"has no {key!r}"
    for key in ("index", "round"):
        if type(row[key]) is not int or not 0 <= row[key] < _U64:
            return f"{key!r} is not an unsigned 64-bit integer"
    try:
        prev_hash = bytes.fromhex(row["prev_hash"])
    except (TypeError, ValueError):
        prev_hash = b""
    # _row_block rejected the row, so only the digest is left to fail
    if len(prev_hash) == 32 and prev_hash.hex() == row["prev_hash"]:
        return "'digest' is not 64 lowercase hex digits"
    return "'prev_hash' is not 64 lowercase hex digits"
