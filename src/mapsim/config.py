"""Run configuration with validation and JSON loading."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral, Real
from typing import TYPE_CHECKING, Any

from . import radio

if TYPE_CHECKING:
    from .pathing import AdmissionLimits

KMH_TO_MPS = 1000.0 / 3600.0

# a run longer than this is a mistyped dt or total_time, not a simulation
MAX_ROUNDS = 10**6
# the most identities a run may expect, clones included; a round's served x
# MAP grid holds up to identities**2 / 4 cells, so peak RSS at the cap is about
# 1.1 GB (66 MB at 4,000 identities and map_fraction 0.5, numpy 2.4, x n**2)
MAX_IDENTITIES = 2**14

STRATEGIES = (
    "blockchain-multipath",
    "independent-random",
    "distance-based",
    "sequence-based",
)


def speed_to_mps(kmh: float) -> float:
    """Convert a km/h reading to metres per second."""
    return kmh * KMH_TO_MPS


@dataclass(frozen=True)
class SimConfig:
    """Parameters for one simulation run.

    Distances are metres, times seconds, powers watts and bandwidths Mbps.
    Trust scores live on a 0..100 scale.
    """

    road_length: float = 10000.0
    vehicle_density: float = 0.02
    speed_min: float = 50.0
    speed_max: float = 80.0
    dt: float = 10.0
    total_time: float = 1000.0
    tx_power: float = 2.0
    path_loss_exp: float = 4.0
    noise_power: float = 1e-13
    sinr_threshold: float = 10.0
    bandwidth_min: float = 1.0
    b_cap: float = 2.0
    delay_threshold: float = 20.0
    a0: float = 0.05
    d_c: float = 500.0
    b0: float = 10.0
    max_paths: int = 2
    trust_threshold: float = 50.0
    trust_initial: float = 100.0
    handover_penalty: float = 8.0
    low_sinr_penalty: float = 5.0
    stability_reward: float = 2.0
    map_fraction: float = 0.10
    sybil_fraction: float = 0.10
    sybil_clones: int = 3
    sybil_handover_prob: float = 0.6
    sybil_low_sinr_prob: float = 0.8
    load_max: int = 4
    incumbent_retention: bool = True
    rng_seed: int = 42
    strategy: str = "blockchain-multipath"

    def __post_init__(self) -> None:
        _validate(self)

    def rounds(self) -> int:
        # tolerate float jitter in total_time / dt; partial rounds do not run
        return int((self.total_time + 1e-9) // self.dt)

    @cached_property
    def limits(self) -> AdmissionLimits:
        """The admission rule's threshold distances, found once per config."""
        from .pathing import AdmissionLimits  # pathing imports this module

        return AdmissionLimits(self)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def replace(self, **changes: Any) -> "SimConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimConfig":
        _require(isinstance(data, dict), "config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: Any) -> "SimConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _validate(cfg: SimConfig) -> None:
    # fields are annotated as strings under postponed evaluation
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "float":
            ok = isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
            _require(ok, f"{f.name} must be a finite number, got {value!r}")
            object.__setattr__(cfg, f.name, float(value))  # so no int reaches numpy arithmetic as int64
        elif f.type == "int":
            ok = isinstance(value, Integral) and not isinstance(value, bool)
            _require(ok, f"{f.name} must be an integer, got {value!r}")
        elif f.type == "bool":
            _require(isinstance(value, bool), f"{f.name} must be true or false, got {value!r}")
    _require(cfg.road_length > 0, "road_length must be positive")
    _require(cfg.vehicle_density >= 0, "vehicle_density must be non-negative")
    _require(0 <= cfg.speed_min <= cfg.speed_max, "speeds must satisfy 0 <= speed_min <= speed_max")
    _require(cfg.dt > 0, "dt must be positive")
    _require(cfg.total_time >= 0, "total_time must be non-negative")
    rounds = (cfg.total_time + 1e-9) // cfg.dt  # rounds() before its int(), which can overflow
    _require(rounds <= MAX_ROUNDS, f"total_time / dt gives {rounds:.3g} rounds, over {MAX_ROUNDS}")
    _require(cfg.tx_power > 0, "tx_power must be positive")
    _require(cfg.path_loss_exp > 0, "path_loss_exp must be positive")
    _require(cfg.noise_power > 0, "noise_power must be positive")
    _require(cfg.sinr_threshold > 0, "sinr_threshold must be positive")
    # half the road length is the farthest ring distance; an SNR that
    # underflows to zero there would make path_delay fail mid-run
    far_snr = radio.compute_sinr(cfg.road_length / 2, cfg)
    _require(far_snr > 0, "the SNR at half the road length underflows to zero")
    # the gain is 1 within 1 m, so tx_power / noise_power is the largest SNR
    # computed; an overflow to inf there would stop radio.link_quality mid-run
    _require(
        math.isfinite(radio.compute_sinr(1.0, cfg)),
        "the SNR within 1 m (tx_power / noise_power) overflows to infinity",
    )
    _require(cfg.bandwidth_min >= 0, "bandwidth_min must be non-negative")
    _require(cfg.b_cap > 0, "b_cap must be positive")
    _require(cfg.delay_threshold > 0, "delay_threshold must be positive")
    _require(cfg.a0 >= 0, "a0 must be non-negative")
    _require(cfg.d_c > 0, "d_c must be positive")
    _require(cfg.b0 >= 0, "b0 must be non-negative")
    # delay grows with distance, so it peaks at the farthest link; no run sums
    # more than 2**64 link delays (10**6 rounds of about 2**14 identities)
    far_delay = radio.path_delay(cfg.road_length / 2, far_snr, cfg)
    _require(
        math.isfinite(far_delay * 2**64),
        f"the link delay at half the road length, {far_delay:.3g} s, is too large to sum over a run",
    )
    _require(cfg.max_paths >= 1, "max_paths must be at least 1")
    _require(0 <= cfg.trust_threshold <= 100, "trust_threshold must lie in [0, 100]")
    _require(0 <= cfg.trust_initial <= 100, "trust_initial must lie in [0, 100]")
    _require(cfg.handover_penalty >= 0, "handover_penalty must be non-negative")
    _require(cfg.low_sinr_penalty >= 0, "low_sinr_penalty must be non-negative")
    _require(cfg.stability_reward >= 0, "stability_reward must be non-negative")
    _require(0 < cfg.map_fraction <= 1, "map_fraction must lie in (0, 1]")
    _require(0 <= cfg.sybil_fraction <= 1, "sybil_fraction must lie in [0, 1]")
    # one attacker's clones alone are sybil_clones identities; the expected
    # count is a float, so one too large for it is inf and fails the bound
    _require(0 <= cfg.sybil_clones <= MAX_IDENTITIES, f"sybil_clones must lie in 0..{MAX_IDENTITIES}")
    identities = cfg.road_length * cfg.vehicle_density * (1 + cfg.sybil_fraction * cfg.sybil_clones)
    fleet = "road_length x vehicle_density x (1 + sybil_fraction x sybil_clones)"
    _require(identities <= MAX_IDENTITIES, f"{fleet} gives {identities:.3g} identities, over {MAX_IDENTITIES}")
    _require(0 <= cfg.sybil_handover_prob <= 1, "sybil_handover_prob must lie in [0, 1]")
    _require(0 <= cfg.sybil_low_sinr_prob <= 1, "sybil_low_sinr_prob must lie in [0, 1]")
    _require(cfg.load_max >= 1, "load_max must be at least 1")
    # the election weighs load x trust in float64, which holds loads exactly only up to 2**53
    _require(cfg.load_max <= 2**53, f"load_max must be at most 2**53, got {cfg.load_max}")
    _require(cfg.rng_seed >= 0, "rng_seed must be non-negative")
    _require(cfg.strategy in STRATEGIES, f"strategy must be one of {list(STRATEGIES)}")
