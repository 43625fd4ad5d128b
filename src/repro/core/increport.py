"""Incremental headline reports: O(delta) refresh, cold-rebuild bytes.

:class:`IncrementalReportBuilder` owns a long-lived
:class:`~repro.core.context.AnalysisContext` plus per-item memos for
every §4 pass, and re-derives a :class:`~repro.core.report.HeadlineReport`
after each batch of dataset deltas by recomputing only the items whose
dependency sets intersect the :class:`~repro.core.context.DeltaImpact`
the context reports from :meth:`sync`.

The memo units are the per-item functions the passes were refactored
around, each a pure function of an explicit dependency set:

* ``losses`` — :func:`~repro.core.losses.event_flows` per dropcatch
  event (deps: the event value, the owners' incoming histories);
* ``hijackable`` — :func:`~repro.core.hijackable.domain_windows` per
  domain (deps: the registration history, interval registrants'
  incoming histories);
* ``comparison`` — :func:`~repro.core.comparison.feature_row_for` per
  group member (deps: the registration history, the studied
  registrant's incoming history), with group membership and the
  statistical tail re-run only when it could move;
* ``typosquat`` — :func:`~repro.core.typosquat.target_income` per
  domain and :func:`~repro.core.typosquat.screen_event` per event,
  through the one indexed screen
  :func:`~repro.core.typosquat.screen_catches` (the screening memo is
  valid only against one target table, so it is dropped whenever the
  table's *value* changes).

This is the only place the §4 passes are orchestrated: a cold
:func:`~repro.core.report.build_report` is a fresh builder's first
:meth:`~IncrementalReportBuilder.refresh`. Dirtiness is conservative:
any item whose dependency set merely *might* have changed is
recomputed, so every refresh is byte-identical to a fresh builder over
the same dataset — the invariant the ``incremental-determinism`` CI job
locks down. When the context cannot link the dataset's delta chain
(out-of-band mutation, a store without a delta log,
:class:`~repro.core.context.ScanAccess`), the builder falls back to a
full rebuild through the same memo-filling code path: correctness
never depends on callers using the delta API, only speed does.

Every pass runs in its own ``analyze.<pass>`` tracer span, after an
``analyze.reregistrations`` span for the event list. A cold refresh
nests them under one ``analyze`` span; a refresh of a built report
nests them under ``delta.apply``, whose ``mode`` attribute says whether
it was ``incremental``, ``full`` (broken delta chain) or ``noop``.

The crawl cutoff (``dataset.crawl_timestamp``) is treated as fixed
between full rebuilds — streamed scenarios carry the final crawl
timestamp from the first batch, and any out-of-band change to it bumps
the dataset version, which breaks the delta chain and forces the full
rebuild anyway.
"""

from __future__ import annotations

from ..datasets.dataset import ENSDataset
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..oracle.ethusd import EthUsdOracle
from .actors import actor_concentration
from .comparison import (
    DomainFeatureRow,
    FeatureComparison,
    compare_rows,
    feature_row_for,
    studied_registrant,
)
from .context import AnalysisContext, DeltaImpact, ScanAccess
from .control import study_groups
from .dropcatch import ReRegistration, summarize
from .hijackable import HijackableReport, HijackableWindow, domain_windows
from .losses import LossReport, MisdirectedFlow, event_flows, loss_report
from .profit import ProfitReport, analyze_profit
from .report import HeadlineReport
from .resale import analyze_resale
from .timing import delay_distribution
from .typosquat import (
    TargetIndex,
    TyposquatCandidate,
    TyposquatReport,
    popular_target_rows,
    screen_catches,
    target_income,
)

__all__ = ["IncrementalReportBuilder"]

#: Full-rebuild impact sentinel: with ``None`` every dirty predicate
#: answers "recompute" and every memo has already been dropped.
_FULL = None


def _publish_gauges(
    registry: MetricsRegistry | None, events_count: int, report: HeadlineReport
) -> None:
    """Mirror headline volumes into ``analysis_output_count`` gauges."""
    if registry is None:
        return
    passes = registry.gauge(
        "analysis_output_count",
        "Headline volumes of the last analysis run",
        labels=("result",),
    )
    passes.labels(result="reregistration_events").set(events_count)
    passes.labels(result="misdirected_txs").set(
        report.losses_with_coinbase.misdirected_tx_count
    )
    passes.labels(result="hijackable_domains").set(
        report.hijackable.domains_with_exposure
    )
    passes.labels(result="typosquat_candidates").set(
        len(report.typosquat.candidates)
    )


class IncrementalReportBuilder:
    """Delta-aware report builder with per-item memoization.

    Build one per live dataset, call :meth:`refresh` after every batch
    of :meth:`~repro.datasets.dataset.ENSDataset.apply_delta` calls (or
    cold, to populate the memos); each call returns a report whose
    canonical JSON is byte-identical to a cold rebuild at that state.
    """

    def __init__(
        self,
        dataset: ENSDataset,
        oracle: EthUsdOracle,
        seed: int = 0,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        context: AnalysisContext | ScanAccess | None = None,
    ) -> None:
        self.dataset = dataset
        self.oracle = oracle
        self.seed = seed
        self._registry = registry
        self._tracer = tracer if tracer is not None else Tracer(registry=registry)
        self.context = (
            context
            if context is not None
            else AnalysisContext(dataset, oracle, registry=registry)
        )
        self._report: HeadlineReport | None = None
        self._last_events: list[ReRegistration] | None = None
        # losses: event -> flows, Coinbase senders included
        self._flow_memo: dict[ReRegistration, list[MisdirectedFlow]] = {}
        # hijackable: domain_id -> (dep addresses, windows)
        self._window_memo: dict[
            str, tuple[frozenset[str], list[HijackableWindow]]
        ] = {}
        # comparison: group ids + domain_id -> (dep address, row)
        self._groups: tuple[list[str], list[str]] | None = None
        self._row_memo: dict[str, tuple[str, DomainFeatureRow]] = {}
        # typosquat: domain_id -> (dep address | None, income | None),
        # the derived target table, and the per-event screen memo that
        # is only valid against exactly that table.
        self._income_memo: dict[str, tuple[str | None, float | None]] = {}
        self._targets: TargetIndex | None = None
        self._screen_memo: dict[ReRegistration, TyposquatCandidate | None] = {}

    def _reset_memos(self) -> None:
        """Drop every memo (full-rebuild fallback path)."""
        self._report = None
        self._last_events = None
        self._flow_memo.clear()
        self._window_memo.clear()
        self._groups = None
        self._row_memo.clear()
        self._income_memo.clear()
        self._targets = None
        self._screen_memo.clear()

    # -- refresh -----------------------------------------------------------

    def refresh(self) -> HeadlineReport:
        """Bring the report up to the live dataset state.

        The first call is a cold build under an ``analyze`` span. Later
        calls run under ``delta.apply``: O(delta + dirty items) when the
        dataset moved through logged deltas, a full (memo-repopulating)
        rebuild when the delta chain is broken, and the previous report
        object when nothing moved. The dataset's fingerprint is checked
        once, on entry (:meth:`AnalysisContext.synced`): no pass can
        move the dataset, so the passes' queries skip the check.
        """
        cold = self._report is None
        with self._tracer.span(
            "analyze" if cold else "delta.apply"
        ) as span, self.context.synced() as impact:
            if cold or impact is None:
                self._reset_memos()
                impact = _FULL
            elif impact.empty:
                span.attributes["mode"] = "noop"
                return self._report
            report = self._rebuild(impact)
            if not cold:
                span.attributes["mode"] = (
                    "incremental" if impact is not _FULL else "full"
                )
        self._report = report
        _publish_gauges(self._registry, len(self._last_events), report)
        return report

    def _rebuild(self, impact: DeltaImpact | None) -> HeadlineReport:
        """Recompute the dirty passes, reuse the rest by reference.

        ``previous`` is ``None`` exactly when ``impact`` is ``_FULL``,
        so every reuse branch below sits behind a dirty check that a
        full rebuild always fails.
        """
        span = self._tracer.span
        with span("analyze.reregistrations"):
            events = self.context.reregistrations()
        events_changed = events is not self._last_events
        previous = self._report
        # Summary, timing, actors and resale read the domain records and
        # the event list; resale also reads the market events. A
        # transactions-only delta skips all four.
        overview_dirty = (
            impact is _FULL
            or events_changed
            or impact.domains
            or impact.market_changed
        )
        dataset, oracle = self.dataset, self.oracle
        with span("analyze.summary"):
            summary = (
                summarize(dataset, events=events)
                if overview_dirty
                else previous.summary
            )
        with span("analyze.timing"):
            delays = (
                delay_distribution(dataset, events=events)
                if overview_dirty
                else previous.delays
            )
        with span("analyze.actors"):
            actors = (
                actor_concentration(dataset, events=events)
                if overview_dirty
                else previous.actors
            )
        with span("analyze.comparison"):
            comparison = self._comparison(impact, events, events_changed)
        with span("analyze.resale"):
            resale = (
                analyze_resale(dataset, oracle, events=events)
                if overview_dirty
                else previous.resale
            )
        with span("analyze.losses"):
            with_coinbase, noncustodial = self._losses(
                impact, events, events_changed
            )
        with span("analyze.hijackable"):
            hijackable = self._hijackable(impact)
        with span("analyze.profit"):
            profit = self._profit(with_coinbase, events)
        with span("analyze.typosquat"):
            typosquat = self._typosquat(impact, events, events_changed)
        self._last_events = events
        return HeadlineReport(
            summary=summary,
            delays=delays,
            actors=actors,
            comparison=comparison,
            resale=resale,
            losses_noncustodial=noncustodial,
            losses_with_coinbase=with_coinbase,
            hijackable=hijackable,
            profit=profit,
            typosquat=typosquat,
        )

    # -- passes ------------------------------------------------------------

    def _comparison(
        self,
        impact: DeltaImpact | None,
        events: list[ReRegistration],
        events_changed: bool,
    ) -> FeatureComparison:
        """Table 1 — memoized per-member feature rows, cheap stats tail.

        Rows are memoized for group members only, so the memo must be
        evicted against *every* impact — a domain can leave the control
        sample, have its registrant's history change while out, and be
        sampled back in later; checking only current members would
        serve its stale row.
        """
        if impact is not _FULL:
            stale = [
                domain_id
                for domain_id, (dep, _) in self._row_memo.items()
                if domain_id in impact.domains or dep in impact.addresses
            ]
            for domain_id in stale:
                del self._row_memo[domain_id]
        groups_dirty = (
            impact is _FULL
            or events_changed
            or impact.domains
            or self._groups is None
        )
        if groups_dirty:
            reregistered, control = study_groups(
                self.dataset, seed=self.seed, events=events
            )
            self._groups = (
                [domain.domain_id for domain in reregistered],
                [domain.domain_id for domain in control],
            )
        rereg_ids, control_ids = self._groups
        dirty_ids = [
            domain_id
            for domain_id in (*rereg_ids, *control_ids)
            if domain_id not in self._row_memo
        ]
        if not (groups_dirty or dirty_ids):
            return self._report.comparison
        for domain_id in dirty_ids:
            domain = self.dataset.domains[domain_id]
            row = feature_row_for(
                self.dataset, domain, self.oracle, context=self.context
            )
            self._row_memo[domain_id] = (studied_registrant(domain), row)
        rereg_rows = [self._row_memo[domain_id][1] for domain_id in rereg_ids]
        control_rows = [self._row_memo[domain_id][1] for domain_id in control_ids]
        return compare_rows(rereg_rows, control_rows)

    def _losses(
        self,
        impact: DeltaImpact | None,
        events: list[ReRegistration],
        events_changed: bool,
    ) -> tuple[LossReport, LossReport]:
        """Both loss variants (with Coinbase, non-custodial only) from
        memoized per-event flows; the previous objects when unchanged."""

        def _event_dirty(event: ReRegistration) -> bool:
            if event not in self._flow_memo:
                return True
            if impact is _FULL:
                return True
            return (
                event.previous_owner in impact.addresses
                or event.new_owner in impact.addresses
            )

        cutoff = self.dataset.crawl_timestamp or None
        any_dirty = False
        for event in events:
            if _event_dirty(event):
                any_dirty = True
                self._flow_memo[event] = event_flows(
                    event,
                    self.dataset,
                    self.context,
                    cutoff=cutoff,
                )
        if not (any_dirty or events_changed):
            previous = self._report
            return previous.losses_with_coinbase, previous.losses_noncustodial
        flows = [flow for event in events for flow in self._flow_memo[event]]
        return (
            loss_report(flows, self.oracle, include_coinbase=True),
            loss_report(flows, self.oracle, include_coinbase=False),
        )

    def _profit(
        self, losses: LossReport, events: list[ReRegistration]
    ) -> ProfitReport:
        """Catcher economics — recomputed exactly when the losses were."""
        previous = self._report
        if previous is not None and losses is previous.losses_with_coinbase:
            return previous.profit
        return analyze_profit(
            self.dataset,
            self.oracle,
            losses=losses,
            events=events,
            context=self.context,
        )

    def _hijackable(self, impact: DeltaImpact | None) -> HijackableReport:
        """Figure 7 — memoized per-domain exposure windows.

        One walk fills the dirty memo entries and collects every
        domain's windows in domain order.
        """
        cutoff = self.dataset.crawl_timestamp
        any_dirty = impact is _FULL
        windows: list[HijackableWindow] = []
        for domain in self.dataset.iter_domains():
            cached = self._window_memo.get(domain.domain_id)
            if (
                cached is None
                or impact is _FULL
                or domain.domain_id in impact.domains
                or not cached[0].isdisjoint(impact.addresses)
            ):
                any_dirty = True
                cached = (
                    frozenset(
                        registration.registrant
                        for registration in domain.registrations
                    ),
                    domain_windows(domain, self.context, cutoff=cutoff),
                )
                self._window_memo[domain.domain_id] = cached
            windows.extend(cached[1])
        if not any_dirty:
            return self._report.hijackable
        return HijackableReport(windows=windows, oracle=self.oracle)

    def _typosquat(
        self,
        impact: DeltaImpact | None,
        events: list[ReRegistration],
        events_changed: bool,
    ) -> TyposquatReport:
        """Typosquat screen — per-domain incomes, per-event matches.

        One walk fills the dirty income memo entries and collects every
        domain's ``(label, income)`` pair for the target table. The
        screening memo caches "event X matched target row Y" and is
        valid only against one target table, so it survives a refresh
        only when the recomputed table is value-equal to the previous
        one (e.g. an income moved but stayed on the same side of the
        popularity threshold).
        """
        incomes_dirty = impact is _FULL
        incomes: list[tuple[str, float | None]] = []
        for domain in self.dataset.iter_domains():
            cached = self._income_memo.get(domain.domain_id)
            if (
                cached is None
                or impact is _FULL
                or domain.domain_id in impact.domains
                or (cached[0] is not None and cached[0] in impact.addresses)
            ):
                incomes_dirty = True
                registrations = domain.registrations
                cached = (
                    registrations[0].registrant if registrations else None,
                    target_income(
                        self.dataset, domain, self.oracle, self.context
                    ),
                )
                self._income_memo[domain.domain_id] = cached
            incomes.append((domain.label_name, cached[1]))
        table_changed = False
        if incomes_dirty or self._targets is None:
            target_rows = popular_target_rows(incomes)
            if self._targets is None or target_rows != self._targets.rows:
                table_changed = True
                self._targets = TargetIndex(target_rows)
                self._screen_memo.clear()
        if not (table_changed or events_changed):
            return self._report.typosquat
        return screen_catches(events, self._targets, memo=self._screen_memo)
