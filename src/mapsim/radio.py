"""Link level model: received power over noise (SNR), shared bandwidth and delay."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import SimConfig


@dataclass(frozen=True)
class LinkStats:
    """Everything the admission rule and the metrics need about one link."""

    map_ident: int
    distance: float
    sinr: float
    bandwidth: float
    total_delay: float


def compute_sinr(distance: float, config: SimConfig) -> float:
    """Received power over noise, as a linear ratio.

    The model has no co-channel interference, so this is an SNR; the name
    matches SimConfig.sinr_threshold. Distances under one metre saturate
    instead of diverging.
    """
    return config.tx_power * max(distance, 1.0) ** (-config.path_loss_exp) / config.noise_power


def link_bandwidth(sinr: float, attached_count: int, config: SimConfig) -> float:
    """Capacity share seen by one of attached_count vehicles on the link."""
    if attached_count < 1:
        raise ValueError("attached_count must be at least 1")
    return (config.b_cap / attached_count) * math.log2(1.0 + sinr)


def alpha_trans(distance: float, config: SimConfig) -> float:
    return config.a0 * (1.0 + distance / config.d_c)


def alpha_sinr(sinr: float, config: SimConfig) -> float:
    return config.b0 * max(1.0, config.sinr_threshold / sinr)


def path_delay(distance: float, sinr: float, config: SimConfig) -> float:
    """Transmission term plus a quality term that blows up at poor SINR."""
    if sinr <= 0:
        raise ValueError("sinr must be positive")
    return alpha_trans(distance, config) * distance + alpha_sinr(sinr, config) / sinr


def make_link_stats(
    map_ident: int,
    distance: float,
    config: SimConfig,
    attached_count: int = 1,
) -> LinkStats:
    sinr = compute_sinr(distance, config)
    return LinkStats(
        map_ident=map_ident,
        distance=distance,
        sinr=sinr,
        bandwidth=link_bandwidth(sinr, attached_count, config),
        total_delay=path_delay(distance, sinr, config),
    )


def link_quality(distance: np.ndarray, config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """SNR and path delay of many links, equal to compute_sinr and path_delay bit for bit.

    float_power's float64 loop calls the C library's pow, as Python's `**`
    on floats does, so the path-loss gain matches compute_sinr's exactly.
    np.power does not: on hosts with AVX-512 it runs a vectorised pow that
    differs from libm's in the last place on some distances.
    """
    gain = np.float_power(np.maximum(distance, 1.0), -config.path_loss_exp)
    sinr = config.tx_power * gain / config.noise_power
    quality = config.b0 * np.maximum(1.0, config.sinr_threshold / sinr)
    return sinr, alpha_trans(distance, config) * distance + quality / sinr
