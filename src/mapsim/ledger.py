"""Hash chained, append only log of selection events.

Canonical block digest input, in order:
  little endian u64 block index,
  little endian u64 round index,
  big endian u32 payload length,
  payload bytes (compact JSON, sorted keys),
  32 byte previous digest.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Any

GENESIS_HASH = bytes(32)


def canonical_payload(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def block_digest(index: int, round_index: int, payload: bytes, prev_hash: bytes) -> bytes:
    head = (
        struct.pack("<Q", index)
        + struct.pack("<Q", round_index)
        + struct.pack(">I", len(payload))
    )
    return hashlib.sha256(head + payload + prev_hash).digest()


@dataclass(frozen=True)
class Block:
    index: int
    round_index: int
    payload: bytes
    prev_hash: bytes
    digest: bytes

    def payload_obj(self) -> Any:
        return json.loads(self.payload.decode("utf-8"))


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
        rows = [
            {
                "index": b.index,
                "round": b.round_index,
                "payload": b.payload_obj(),
                "prev_hash": b.prev_hash.hex(),
                "digest": b.digest.hex(),
            }
            for b in self.blocks
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: Any) -> "Ledger":
        with open(path, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
        blocks = [
            Block(
                index=int(r["index"]),
                round_index=int(r["round"]),
                payload=canonical_payload(r["payload"]),
                prev_hash=bytes.fromhex(r["prev_hash"]),
                digest=bytes.fromhex(r["digest"]),
            )
            for r in rows
        ]
        return cls(blocks)
