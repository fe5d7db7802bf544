"""
Comparing the four attachment strategies
========================================

Same fleet, same seeds, four different ways to pick where a vehicle
attaches. The trust weighted multi-path scheme should show far fewer
handovers than random or distance chasing at a comparable delay. The
last column is the share of served vehicle-rounds that found no path:
the delay cutoff parks far vehicles, and their delay goes uncounted.
"""

from pathlib import Path

from mapsim import STRATEGIES, SimConfig, run_comparison

# a shorter horizon keeps the demo quick; three seeds each
config = SimConfig(total_time=500.0)
out = Path(__file__).parent / "out" / "comparison"

result = run_comparison(config, seeds=(1, 2, 3), strategies=STRATEGIES, out_dir=out)

header = (f"{'strategy':<22}{'avg handover':>14}{'max handover':>14}{'avg delay s':>14}"
          f"{'disconnected':>14}")
print(header)
print("-" * len(header))
for row in result["rows"]:
    print(f"{row['strategy']:<22}"
          f"{row['avg_handover_mean']:>14.2f}"
          f"{row['max_handover_mean']:>14.1f}"
          f"{row['avg_delay_s_mean']:>14.3f}"
          f"{row['disconnection_rate_mean']:>14.1%}")

print(f"\nper run artifacts, comparison.csv and comparison.svg in {out}")
