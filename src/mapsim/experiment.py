"""Multi seed, multi strategy comparison harness."""

from __future__ import annotations

from pathlib import Path
from statistics import fmean, stdev
from typing import Any, Iterable, Sequence

from .config import STRATEGIES, SimConfig
from .engine import run_simulation
from .report import write_run

COMPARE_METRICS = (
    "avg_handover", "max_handover", "min_handover", "avg_delay_s",
    "disconnection_rate", "zero_handover_vehicles",
)

_PALETTE = ("#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#b279a2")


def _mean_std(values: Sequence[float | None]) -> tuple[float | None, float | None]:
    """Mean and standard deviation over the runs that define the metric.

    A metric no run defines, such as the delay of an empty fleet, stays
    None rather than reading as zero.
    """
    vals = [float(v) for v in values if v is not None]
    if not vals:
        return None, None
    return fmean(vals), stdev(vals) if len(vals) > 1 else 0.0


def run_comparison(
    config: SimConfig,
    seeds: Iterable[int],
    strategies: Sequence[str] = STRATEGIES,
    out_dir: Any = None,
) -> dict:
    """Run every strategy under every seed; optionally write artifacts.

    Returns {"rows": aggregate per strategy, "runs": per run summaries}.
    """
    seeds = list(seeds)
    runs: dict[str, dict[int, dict]] = {}
    rows = []
    for strategy in strategies:
        runs[strategy] = {}
        for seed in seeds:
            cfg = config.replace(strategy=strategy, rng_seed=seed)
            report = run_simulation(cfg)
            runs[strategy][seed] = report.summary
            if out_dir is not None:
                write_run(Path(out_dir) / f"{strategy}_seed{seed}", report)
        row: dict[str, Any] = {"strategy": strategy}
        for metric in COMPARE_METRICS:
            row[f"{metric}_mean"], row[f"{metric}_std"] = _mean_std([runs[strategy][s][metric] for s in seeds])
        rows.append(row)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_comparison_csv(out / "comparison.csv", rows)
        write_comparison_svg(out / "comparison.svg", rows)
    return {"rows": rows, "runs": runs}


def write_comparison_csv(path: Any, rows: list[dict]) -> None:
    import csv

    columns = ["strategy"]
    for metric in COMPARE_METRICS:
        columns += [f"{metric}_mean", f"{metric}_std"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            cells = (row[c] for c in columns[1:])
            writer.writerow([row["strategy"]] + ["" if v is None else repr(float(v)) for v in cells])


def write_comparison_svg(path: Any, rows: list[dict]) -> None:
    """Grouped bar chart, one group per metric, bars normalised per group.

    Hand assembled SVG keeps the output dependency free and byte stable.
    Bars carry data-metric / data-strategy / data-value attributes so the
    numbers can be scraped back out of the file. A metric no run defined
    has no bar.
    """
    width, height = 960, 540
    margin_left, margin_top, margin_bottom = 60, 70, 90
    plot_w = width - margin_left - 40
    plot_h = height - margin_top - margin_bottom
    groups = COMPARE_METRICS
    series = [row["strategy"] for row in rows]
    group_w = plot_w / len(groups)
    bar_w = group_w * 0.8 / max(1, len(series))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="30" text-anchor="middle" font-family="sans-serif" '
        f'font-size="18">Strategy comparison (per metric, normalised)</text>',
    ]
    for gi, metric in enumerate(groups):
        values = [row[f"{metric}_mean"] for row in rows]
        top = max((abs(v) for v in values if v is not None), default=0.0) or 1.0
        gx = margin_left + gi * group_w
        for si, (row, v) in enumerate(zip(rows, values)):
            if v is None:
                continue
            v = float(v)
            h = plot_h * abs(v) / top
            x = gx + group_w * 0.1 + si * bar_w
            y = margin_top + plot_h - h
            color = _PALETTE[si % len(_PALETTE)]
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w * 0.9:.2f}" height="{h:.2f}" '
                f'fill="{color}" data-metric="{metric}" data-strategy="{row["strategy"]}" '
                f'data-value="{v!r}"/>'
            )
            parts.append(
                f'<text x="{x + bar_w * 0.45:.2f}" y="{y - 4:.2f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="9">{v:.6g}</text>'
            )
        parts.append(
            f'<text x="{gx + group_w / 2:.2f}" y="{margin_top + plot_h + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{metric}</text>'
        )
    for si, name in enumerate(series):
        lx = margin_left + si * (plot_w / max(1, len(series)))
        ly = height - 40
        color = _PALETTE[si % len(_PALETTE)]
        parts.append(f'<rect x="{lx:.2f}" y="{ly - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{lx + 16:.2f}" y="{ly}" font-family="sans-serif" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
