"""Machine-speed calibration for the benchmark's timings.

On a shared machine the CPU speed can drift by half over tens of seconds
(seen on a 2-vCPU Intel Xeon VM), which no median over a run can hide. So a
fixed loop is timed right before and right after every timing sample, and
the sample is scaled by CAL_REF_S over the mean of the two. CAL_REF_S is
the loop's median time on that VM, idle, under Python 3.11.7: there the
scaled figures are wall-clock times. Raw times are reported next to them.

This module imports only built-in modules, so a calibration taken before
mapsim is imported leaves the whole of that import to be timed.
"""

import gc
import math
import time

CAL_LINKS = 400
CAL_REF_S = 0.0006


class _Link:
    """Stands in for a frozen dataclass: attributes set through object."""

    def __init__(self, ident: int, distance: float, capacity: float, delay: float) -> None:
        object.__setattr__(self, "ident", ident)
        object.__setattr__(self, "distance", distance)
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "delay", delay)


def calibrate() -> float:
    """Seconds the fixed loop takes now.

    The loop is a frozen copy of the kind of work that dominates a round
    (link-model float arithmetic, one small object per link, a sort of
    tuples) but never calls mapsim, so no change to the simulator changes
    its cost. The collector is paused so the cost does not depend on how
    big the heap is.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        links = []
        for i in range(CAL_LINKS):
            d = 1.0 + (i * 37.7) % 900.0
            snr = 2.0 * d**-4.0 / 1e-13
            delay = 0.05 * (1.0 + d / 500.0) * d + 10.0 * max(1.0, 10.0 / snr) / snr
            links.append((_Link(i, d, 2.0 * math.log2(1.0 + snr), delay).delay, d, i))
        links.sort()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def calibrate_median(times: int = 5) -> float:
    return sorted(calibrate() for _ in range(times))[times // 2]


def scaled(seconds: float, calibration_s: float) -> float:
    """seconds at the reference machine speed."""
    return seconds * CAL_REF_S / calibration_s
