"""Vehicle population and kinematics on a circular road."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimConfig, speed_to_mps


@dataclass(frozen=True)
class Vehicle:
    """Record view of one identity, as SimState.fleet builds it."""

    ident: int
    position: float
    speed: float
    load: int


def ring_distance(a, b, road_length: float):
    """Shorter-arc separation between positions on the ring, elementwise on arrays."""
    gap = np.abs(a - b) % road_length
    return np.minimum(gap, road_length - gap)


def make_fleet(config: SimConfig, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Draw a fleet: Poisson count, uniform positions and speeds, integer loads.

    Returns (position, speed, load) arrays; identities are the indices
    0..n-1, in draw order.
    """
    count = int(rng.poisson(config.road_length * config.vehicle_density))
    position = rng.uniform(0.0, config.road_length, count)
    speed = speed_to_mps(rng.uniform(config.speed_min, config.speed_max, count))
    return position, speed, rng.integers(1, config.load_max + 1, count)


def step_positions(position: np.ndarray, speed: np.ndarray, dt: float, road_length: float):
    """Advance every vehicle by one step, wrapping around the ring.

    Elementwise float64, so each equals the scalar arithmetic bit for bit.
    """
    return (position + speed * dt) % road_length
