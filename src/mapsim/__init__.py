"""Discrete time simulator of trust weighted multi-path access point selection.

Vehicles on a ring road elect a subset of themselves as access points in
proportion to advertised load times earned trust, attach to up to two of
them under delay and bandwidth admission rules, and log every election to a
hash chained ledger. Sybil clones betray themselves through unstable
behaviour and get flagged out of the roster. Three simpler selection
policies are included for comparison.
"""

from .config import STRATEGIES, SimConfig
from .engine import initial_state, run_round, run_simulation
from .experiment import run_comparison
from .ledger import Ledger, block_digest, chain_break, verify_chain
from .report import write_run
from .trust import detection_rates

__version__ = "0.1.0"
