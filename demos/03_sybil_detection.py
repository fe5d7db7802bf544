"""
Watching trust scores separate honest vehicles from clones
==========================================================

Drives the simulation round by round and tracks the trust score of
every identity. Cloned identities misbehave (forced handovers, weak
links), so their scores decay to the exclusion threshold within a few
rounds while honest scores stay pinned at the ceiling.
"""

import numpy as np

from mapsim import SimConfig, detection_rates, initial_state, run_round

config = SimConfig(total_time=300.0, rng_seed=11)
rng = np.random.default_rng(config.rng_seed)
state = initial_state(config, rng)

clones = set(state.clone_ids)
print(f"{len(state.position)} identities, {len(clones)} of them clones "
      f"planted by {len(state.attacker_ids)} attackers\n")

# sample one clone and one honest vehicle for the commentary; identities
# index the state's arrays, with the clones after the honest range
watched_clone = state.clone_ids[0]
watched_honest = 0

print(f"{'round':>5}{'clone score':>13}{'honest score':>14}{'flagged':>9}")
for r in range(config.rounds()):
    state, metrics, event = run_round(state, r, config, rng)
    if r % 3 == 0 or r == config.rounds() - 1:
        print(f"{r:>5}"
              f"{state.score[watched_clone]:>13.1f}"
              f"{state.score[watched_honest]:>14.1f}"
              f"{metrics.flagged_count:>9}")

tpr, fpr = detection_rates(state.flagged, state.is_clone)
print(f"\ncaught {tpr:.0%} of the clones, "
      f"false positive rate {fpr:.0%}")
print(f"excluded identities in the last block: "
      f"{sorted(set(event.excluded) & clones) == sorted(clones)}")
