"""Reference computations the tests hold the simulator to."""

import numpy as np


def probabilities(table):
    """A candidate table's weights over their sequential sum, as select_maps' scan adds it up."""
    total = np.cumsum(table.weights)[-1] if len(table.weights) else 0.0
    return table.weights / total if total > 0 else np.zeros_like(table.weights)
