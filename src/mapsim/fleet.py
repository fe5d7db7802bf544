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
    """Shorter-arc separation between positions on the ring, elementwise on arrays.

    Positions must lie in [0, road_length], as make_fleet and step_positions
    leave them, so the gap |a - b| is at most road_length and the shorter
    arc is min(gap, road_length - gap), taken in place on the gap; past
    half the ring road_length - gap is exact (Sterbenz). Each element
    depends on its own pair alone, so the distances of index pairs equal
    those elements of a broadcast grid bit for bit.
    """
    gap = np.asarray(a - b, dtype=np.float64)
    np.abs(gap, out=gap)
    np.minimum(gap, road_length - gap, out=gap)
    return gap[()]


def ring_window(points: np.ndarray, sites: np.ndarray, reach: float, road_length: float):
    """Each point's sites within reach, as (cols, dist) arrays of one row per point.

    A row lists, ascending, the index into sites of every site whose
    ring_distance to the point is under reach, each once, and perhaps a
    few just past it, then pads of len(sites) at distance inf; there is at
    least one column. The arc searched is widened by a margin far above
    rounding error, so no site under reach is missed. dist holds the
    ring_distance of each (point, site) pair, equal bit for bit to that
    cell of the full grid. A reach near half the ring or more gives every
    site to every point.
    """
    k = len(sites)
    margin = road_length * 1e-9
    if reach + 2 * margin < road_length / 2:
        # the sorted positions tiled across the wrap; the arc is under one
        # ring long, so it holds at most one copy of each site
        order = sites.argsort()
        ring = sites[order]
        tiled = np.concatenate((ring - road_length, ring, ring + road_length))
        lo = tiled.searchsorted(points - (reach + margin), side="left")
        count = tiled.searchsorted(points + (reach + margin), side="right") - lo
        order = np.tile(order, 3)
    else:
        order, lo, count = np.arange(k), np.zeros(len(points), dtype=np.int64), np.full(len(points), k)
    width = max(1, int(count.max(initial=0)))
    span = np.arange(width)
    # a trailing pad keeps every index in bounds, an empty sites too
    cols = np.append(order, k)[np.minimum(lo[:, None] + span, len(order))]
    cols[span >= count[:, None]] = k
    cols.sort(axis=1)
    dist = ring_distance(points[:, None], np.append(sites, 0.0)[cols], road_length)
    dist[cols == k] = np.inf
    return cols, dist


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
