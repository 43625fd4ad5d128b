"""Headline report: every §4 number from one dataset, in one pass.

This is the library's "run the whole paper" entry point — benchmarks
and the quickstart example print it next to the published values. The
passes are orchestrated by
:class:`~repro.core.increport.IncrementalReportBuilder`;
:func:`build_report` is a fresh builder's cold refresh. Each analysis
pass runs inside its own tracer span (``analyze.<pass>``), so
``repro analyze --trace`` shows where the time goes, and headline
volumes are mirrored into the registry as ``analysis_*`` gauges.
:func:`report_json` is the canonical byte encoding the CI determinism
gate compares across stores and against the golden digests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..datasets.dataset import ENSDataset
from ..obs.exporters import sanitize_non_finite
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..oracle.ethusd import EthUsdOracle
from .actors import ActorConcentration
from .comparison import FeatureComparison
from .context import AnalysisContext, ScanAccess
from .dropcatch import DropcatchSummary
from .hijackable import HijackableReport
from .losses import LossReport
from .profit import ProfitReport
from .resale import ResaleReport
from .timing import DelayDistribution
from .typosquat import TyposquatReport

__all__ = ["HeadlineReport", "build_report", "canonical_json", "report_json"]


@dataclass
class HeadlineReport:
    """All §4 results for one dataset."""

    summary: DropcatchSummary
    delays: DelayDistribution
    actors: ActorConcentration
    comparison: FeatureComparison
    resale: ResaleReport
    losses_noncustodial: LossReport
    losses_with_coinbase: LossReport
    hijackable: HijackableReport
    profit: ProfitReport
    typosquat: TyposquatReport

    def lines(self) -> list[str]:
        """Human-readable report (one finding per line)."""
        income = self.comparison.row("income_usd")
        length = self.comparison.row("length")
        return [
            f"domains: {self.summary.total_domains}"
            f" | expired: {self.summary.expired_domains}"
            f" | re-registered: {self.summary.reregistered_domains}"
            f" ({self.summary.rereg_rate_among_expired:.1%} of expired)",
            f"re-registration events: {self.summary.reregistration_events}"
            f" | domains caught 2+ times: {self.summary.domains_caught_more_than_twice}",
            f"caught at premium: {self.delays.caught_at_premium}"
            f" | on premium-end day: {self.delays.caught_on_premium_end_day}"
            f" | shortly after: {self.delays.caught_shortly_after_premium}",
            f"unique catchers: {self.actors.unique_catchers}"
            f" | multi-catch addresses: {self.actors.addresses_with_multiple_catches}"
            f" | top-3: {[count for _, count in self.actors.top(3)]}",
            f"income (USD): re-registered {income.reregistered_value:,.0f}"
            f" vs control {income.control_value:,.0f}"
            f" (p={income.test.p_value:.2e})",
            f"length: {length.reregistered_value:.1f}"
            f" vs {length.control_value:.1f}",
            f"all Table-1 features significant: {self.comparison.all_significant}",
            f"resale: {self.resale.listed_fraction:.1%} listed,"
            f" {self.resale.sold_of_listed:.1%} of listings sold",
            f"misdirected txs: {self.losses_with_coinbase.misdirected_tx_count}"
            f" (non-custodial only: {self.losses_noncustodial.misdirected_tx_count})",
            f"avg misdirected USD/tx:"
            f" {self.losses_with_coinbase.average_usd_per_tx:,.0f}"
            f" (non-custodial: {self.losses_noncustodial.average_usd_per_tx:,.0f})",
            f"hijackable: {self.hijackable.domains_with_exposure} domains,"
            f" {self.hijackable.total_usd:,.0f} USD exposed",
            f"profitable catchers: {self.profit.profitable_fraction:.0%}"
            f" | avg profit: {self.profit.average_profit_usd:,.0f} USD",
            f"typosquat-of-popular catches: {len(self.typosquat.candidates)}"
            f" ({self.typosquat.candidate_fraction:.1%} of catches)",
        ]

    def as_dict(self) -> dict[str, Any]:
        """Every headline number as plain JSON-ready values.

        Built from the component reports' derived properties (the
        ``LossReport``/``HijackableReport`` objects hold an oracle, so
        ``dataclasses.asdict`` cannot serialize them); all collections
        are emitted in a deterministic order, which makes the canonical
        encoding (:func:`report_json`) byte-comparable across runs.
        """

        def _losses(report: LossReport) -> dict[str, Any]:
            return {
                "affected_domains": report.affected_domains,
                "misdirected_tx_count": report.misdirected_tx_count,
                "unique_senders": report.unique_senders,
                "average_usd_per_tx": report.average_usd_per_tx,
                "total_usd": report.total_usd,
            }

        return {
            "summary": {
                "total_domains": self.summary.total_domains,
                "expired_domains": self.summary.expired_domains,
                "reregistered_domains": self.summary.reregistered_domains,
                "reregistration_events": self.summary.reregistration_events,
                "domains_caught_more_than_twice": (
                    self.summary.domains_caught_more_than_twice
                ),
                "rereg_rate_among_expired": (
                    self.summary.rereg_rate_among_expired
                ),
            },
            "delays": {
                "count": self.delays.count,
                "caught_at_premium": self.delays.caught_at_premium,
                "caught_on_premium_end_day": (
                    self.delays.caught_on_premium_end_day
                ),
                "caught_shortly_after_premium": (
                    self.delays.caught_shortly_after_premium
                ),
                "delays_days": sorted(self.delays.delays_days),
            },
            "actors": {
                "unique_catchers": self.actors.unique_catchers,
                "addresses_with_multiple_catches": (
                    self.actors.addresses_with_multiple_catches
                ),
                "gini": self.actors.gini(),
                "catches_by_address": dict(
                    sorted(self.actors.catches_by_address.items())
                ),
            },
            "comparison": {
                "group_size_reregistered": (
                    self.comparison.group_size_reregistered
                ),
                "group_size_control": self.comparison.group_size_control,
                "all_significant": self.comparison.all_significant,
                "rows": [
                    {
                        "feature": row.feature,
                        "kind": row.kind,
                        "reregistered_value": row.reregistered_value,
                        "control_value": row.control_value,
                        "statistic": row.test.statistic,
                        "p_value": row.test.p_value,
                        "test_name": row.test.test_name,
                        "significant": row.significant,
                    }
                    for row in self.comparison.rows
                ],
            },
            "resale": {
                "reregistered_domains": self.resale.reregistered_domains,
                "listed_domains": self.resale.listed_domains,
                "sold_domains": self.resale.sold_domains,
                "listed_fraction": self.resale.listed_fraction,
                "sold_of_listed": self.resale.sold_of_listed,
                "average_sale_usd": self.resale.average_sale_usd,
                "sale_prices_usd": sorted(self.resale.sale_prices_usd),
            },
            "losses_noncustodial": _losses(self.losses_noncustodial),
            "losses_with_coinbase": _losses(self.losses_with_coinbase),
            "hijackable": {
                "domains_with_exposure": self.hijackable.domains_with_exposure,
                "total_txs": self.hijackable.total_txs,
                "total_usd": self.hijackable.total_usd,
            },
            "profit": {
                "catches": len(self.profit.catches),
                "profitable_fraction": self.profit.profitable_fraction,
                "average_profit_usd": self.profit.average_profit_usd,
            },
            "typosquat": {
                "catches_screened": self.typosquat.catches_screened,
                "popular_targets": self.typosquat.popular_targets,
                "candidate_fraction": self.typosquat.candidate_fraction,
                "candidates": [
                    {
                        "caught_label": candidate.caught_label,
                        "target_label": candidate.target_label,
                        "target_income_usd": candidate.target_income_usd,
                        "distance": candidate.distance,
                        "new_owner": candidate.new_owner,
                    }
                    for candidate in sorted(
                        self.typosquat.candidates,
                        key=lambda c: (c.caught_label, c.target_label),
                    )
                ],
            },
        }


def canonical_json(payload: Any) -> str:
    """Canonical JSON text for any JSON-ready payload.

    Sorted keys, compact separators, trailing newline, and non-finite
    floats rendered as ``null`` (``allow_nan=False`` guarantees no
    invalid token can ever slip through). :func:`report_json` and every
    ``repro serve`` JSON response use this one encoder, which is what
    makes HTTP bodies byte-comparable with CLI ``--json-out`` files.
    """
    return (
        json.dumps(
            sanitize_non_finite(payload),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
        + "\n"
    )


def report_json(report: HeadlineReport) -> str:
    """The canonical byte encoding of a report (sorted keys, compact).

    This exact string is what the CI determinism job compares between
    ``--store object`` and ``--store columnar`` runs and hashes against
    the committed golden digest — any formatting drift here is a
    determinism-gate break, not a cosmetic change. Non-finite floats
    (e.g. a NaN ``recovery_rate``-style ratio from an empty
    denominator) encode as ``null`` rather than invalid JSON.
    """
    return canonical_json(report.as_dict())


def build_report(
    dataset: ENSDataset,
    oracle: EthUsdOracle,
    seed: int = 0,
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    context: AnalysisContext | ScanAccess | None = None,
) -> HeadlineReport:
    """Run every analysis once over a shared analysis index.

    A fresh :class:`~repro.core.increport.IncrementalReportBuilder` and
    its cold :meth:`~repro.core.increport.IncrementalReportBuilder.refresh`.
    ``context`` defaults to a fresh :class:`AnalysisContext` wired to
    ``registry`` (cache hit/miss counters land in the metrics export);
    pass :class:`~repro.core.context.ScanAccess` to force the memo-free
    reference path — the output must be identical either way.
    """
    from .increport import IncrementalReportBuilder

    return IncrementalReportBuilder(
        dataset,
        oracle,
        seed,
        registry=registry,
        tracer=tracer,
        context=context,
    ).refresh()
