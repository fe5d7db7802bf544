"""Reference computations the tests hold the simulator to."""

import numpy as np

from mapsim.config import SimConfig
from mapsim.engine import SimState


def probabilities(table):
    """A candidate table's weights over their sequential sum, as select_maps' scan adds it up."""
    total = np.cumsum(table.weights)[-1] if len(table.weights) else 0.0
    return table.weights / total if total > 0 else np.zeros_like(table.weights)


def golden_state(doc):
    """The golden round fixture's config and its state before round 0."""
    cfg = SimConfig.from_dict(doc["config"])
    # identities are the array indices, so the fixture must list them in order
    ident, position, speed, load = (np.array(column) for column in zip(*doc["vehicles"]))
    assert ident.tolist() == list(range(len(ident)))
    score = np.array([doc["trust"][str(i)] for i in ident.tolist()])
    return cfg, SimState(position, speed, load, score, np.zeros(len(ident), dtype=bool))


class StubRng:
    """Replays a fixed sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)
