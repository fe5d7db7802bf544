"""Vehicle population and kinematics on a circular road."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimConfig, speed_to_mps


@dataclass(frozen=True)
class Vehicle:
    """One network identity; clones are told apart only by SimState.clone_ids."""

    ident: int
    position: float
    speed: float
    load: int


def ring_distance(a, b, road_length: float):
    """Shorter-arc separation between positions on the ring, elementwise on arrays."""
    gap = np.abs(a - b) % road_length
    return np.minimum(gap, road_length - gap)


def make_fleet(config: SimConfig, rng: np.random.Generator) -> list[Vehicle]:
    """Draw a fleet: Poisson count, uniform positions and speeds, integer loads.

    Identities are numbered 0..n-1 in draw order.
    """
    count = int(rng.poisson(config.road_length * config.vehicle_density))
    positions = rng.uniform(0.0, config.road_length, count)
    speeds_kmh = rng.uniform(config.speed_min, config.speed_max, count)
    loads = rng.integers(1, config.load_max + 1, count)
    return [
        Vehicle(i, float(positions[i]), speed_to_mps(float(speeds_kmh[i])), int(loads[i]))
        for i in range(count)
    ]


def step_positions(position: np.ndarray, speed: np.ndarray, dt: float, road_length: float):
    """Advance every vehicle by one step, wrapping around the ring.

    Elementwise float64, so each equals the scalar arithmetic bit for bit.
    """
    return (position + speed * dt) % road_length
