"""Discrete time simulator of trust weighted multi-path access point selection.

Vehicles on a ring road elect a subset of themselves as access points in
proportion to advertised load times earned trust, attach to up to two of
them under delay and bandwidth admission rules, and log every election to a
hash chained ledger. Sybil clones betray themselves through unstable
behaviour and get flagged out of the roster. Three simpler selection
policies are included for comparison.
"""

from .config import STRATEGIES, SimConfig, speed_to_mps
from .engine import SimState, initial_state, run_round, run_simulation
from .experiment import run_comparison
from .fleet import Vehicle, make_fleet, ring_distance, step_positions
from .ledger import Block, GENESIS_HASH, Ledger, block_digest, canonical_payload, chain_break, verify_chain
from .pathing import PathAssignment, admits, baseline_paths, count_handovers, grow_paths, retain_paths
from .radio import alpha_sinr, compute_sinr, link_bandwidth, make_link_stats, path_delay
from .report import read_rounds_csv, write_run, write_rounds_csv, write_summary_json
from .selection import CandidateEntry, select_maps, selection_probabilities, table_digest
from .trust import TrustObservation, TrustRecord, detection_rates, inject_sybils, update_trust

__version__ = "0.1.0"
