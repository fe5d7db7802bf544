"""
Auditing the selection ledger
=============================

Every round's election lands in an append-only hash chain. This demo
saves a ledger, verifies it, then edits one block's payload and shows
that verification of the whole chain now fails. chain_break names the
first block that fails and which check it fails.
"""

from dataclasses import replace
from pathlib import Path

from mapsim import Ledger, SimConfig, block_digest, chain_break, run_simulation, verify_chain

report = run_simulation(SimConfig(total_time=300.0, rng_seed=8))
ledger = report.ledger
print(f"fresh ledger: {len(ledger)} blocks, verify() -> {ledger.verify()}")

# round trips through JSON keep the chain intact
path = Path(__file__).parent / "out" / "ledger.json"
path.parent.mkdir(parents=True, exist_ok=True)
ledger.to_json(path)
again = Ledger.from_json(path)
print(f"after JSON round trip: verify() -> {again.verify()}")

# now tamper: claim round 7 elected someone else by editing its payload
victim = ledger.blocks[7]
payload = victim.payload.replace(b'"elected":[', b'"elected":[9,', 1)
forged = replace(victim, payload=payload)
blocks = list(ledger.blocks)
blocks[7] = forged
print(f"after forging block 7: verify_chain() -> {verify_chain(blocks)}, "
      f"chain_break() -> {chain_break(blocks)}")

# even recomputing the digest cannot hide the edit, the next block's
# prev_hash no longer matches
blocks[7] = replace(
    forged, digest=block_digest(victim.index, victim.round_index, payload, victim.prev_hash)
)
print(f"after re-sealing block 7 too: verify_chain() -> {verify_chain(blocks)}, "
      f"chain_break() -> {chain_break(blocks)}")
print("the chain is append only: any edit needs every later block redone")
