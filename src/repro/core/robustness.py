"""Multi-seed robustness sweeps over the headline metrics.

A single simulated ecosystem is one draw from the generative model; a
finding only counts as reproduced if it holds across seeds. This module
re-runs the scenario + crawl + analysis pipeline over a seed set and
summarizes each headline metric as mean / spread / worst case, so
benchmarks (and EXPERIMENTS.md) can report stability instead of one
lucky number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..simulation.config import ScenarioConfig
from ..simulation.scenario import run_scenario
from .report import HeadlineReport, build_report

__all__ = ["run_sweep"]


def _income_ratio(report: HeadlineReport) -> float:
    income = report.comparison.row("income_usd")
    return income.reregistered_value / max(1.0, income.control_value)


HEADLINE_METRICS: dict[str, Callable[[HeadlineReport], float]] = {
    "rereg_rate_among_expired": lambda r: r.summary.rereg_rate_among_expired,
    "income_ratio": _income_ratio,
    "listed_fraction": lambda r: r.resale.listed_fraction,
    "avg_misdirected_usd": lambda r: r.losses_with_coinbase.average_usd_per_tx,
    "profitable_fraction": lambda r: r.profit.profitable_fraction,
    "gini_of_catchers": lambda r: r.actors.gini(),
}


@dataclass(frozen=True, slots=True)
class MetricSummary:
    """One metric across seeds."""

    name: str
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        """Mean of the metric across seeds."""
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        """Sample standard deviation across seeds (0 below two values)."""
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def minimum(self) -> float:
        """Smallest observed value across seeds."""
        return min(self.values)

    @property
    def maximum(self) -> float:
        """Largest observed value across seeds."""
        return max(self.values)

    def within(self, low: float, high: float) -> bool:
        """True when every seed's value lies inside [low, high]."""
        return all(low <= value <= high for value in self.values)


@dataclass
class RobustnessSweep:
    """Results of one sweep: per-metric summaries plus the raw reports."""

    seeds: tuple[int, ...]
    metrics: dict[str, MetricSummary]
    reports: list[HeadlineReport]

    def summary_lines(self) -> list[str]:
        """Per-metric summary lines for the CLI sweep output."""
        lines = [f"robustness over seeds {list(self.seeds)}"]
        for summary in self.metrics.values():
            lines.append(
                f"  {summary.name:28s} mean={summary.mean:10.3f}"
                f" std={summary.std:8.3f}"
                f" range=[{summary.minimum:.3f}, {summary.maximum:.3f}]"
            )
        return lines


def run_sweep(
    base_config: ScenarioConfig,
    seeds: Sequence[int],
    metrics: dict[str, Callable[[HeadlineReport], float]] | None = None,
) -> RobustnessSweep:
    """Run the full pipeline once per seed and summarize the metrics."""
    if not seeds:
        raise ValueError("at least one seed is required")
    if metrics is None:
        metrics = HEADLINE_METRICS
    values: dict[str, list[float]] = {name: [] for name in metrics}
    reports: list[HeadlineReport] = []
    for seed in seeds:
        world = run_scenario(replace(base_config, seed=seed))
        dataset, _ = world.run_crawl()
        report = build_report(dataset, world.oracle)
        reports.append(report)
        for name, extractor in metrics.items():
            values[name].append(extractor(report))
    return RobustnessSweep(
        seeds=tuple(seeds),
        metrics={
            name: MetricSummary(name=name, values=tuple(metric_values))
            for name, metric_values in values.items()
        },
        reports=reports,
    )
