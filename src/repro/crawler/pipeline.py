"""The Figure-1 data-collection pipeline.

Orchestrates the three crawler clients into the paper's end-to-end
collection flow:

1. enumerate all ENS domains + registration histories (subgraph),
2. derive the wallet-address universe (registrants + resolved wallets),
3. pull every wallet's transaction history (explorer API),
4. pull marketplace events for re-registered names (OpenSea API),
5. pull the custodial/Coinbase label lists (explorer labels),

and assembles a validated :class:`ENSDataset` plus a
:class:`CrawlReport` with the §3 coverage numbers.

The crawl is *staged and resumable*: progress advances in small work
units (subgraph pages, wallet histories, token event feeds) tracked in
a :class:`~repro.crawler.checkpoint.CrawlState`, and when a
:class:`~repro.crawler.checkpoint.CheckpointConfig` is supplied the
state — partial dataset, cursors, and a counter snapshot — is
persisted every ``every`` units plus at every stage boundary. A run
killed anywhere (including by an injected
:class:`~repro.faults.errors.CrawlKilled`) resumes from the newest
committed snapshot and produces a dataset and report byte-identical to
an uninterrupted run: work after the last checkpoint is simply redone,
and restored counters make the effort accounting cover the whole
crawl, not just the post-resume tail.

The report's effort fields are read back from the clients'
registry-backed counters — the registry is the source of truth, the
report a snapshot of it — and every report field is mirrored into the
pipeline registry as a ``crawl_*`` gauge so a single metrics export
carries the full §3 accounting.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

from ..datasets.dataset import ENSDataset
from ..explorer.labels import CATEGORY_COINBASE, CATEGORY_CUSTODIAL_EXCHANGE
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointConfig,
    CheckpointStore,
    CrawlState,
    STAGE_DOMAINS,
    STAGE_DONE,
    STAGE_LABELS,
    STAGE_MARKET_EVENTS,
    STAGE_TRANSACTIONS,
)
from .etherscan_client import EtherscanClient
from .opensea_client import OpenSeaClient
from .subgraph_client import SubgraphClient

__all__ = ["CrawlReport", "DataCollectionPipeline"]

_log = get_logger("crawler.pipeline")

@dataclass(frozen=True, slots=True)
class CrawlReport:
    """Coverage and effort statistics of one pipeline run (§3)."""

    domains_crawled: int
    domains_missing: int
    subdomains_total: int
    wallet_addresses: int
    transactions_crawled: int
    market_events_crawled: int
    subgraph_pages: int
    explorer_requests: int
    explorer_retries: int
    opensea_requests: int
    explorer_failures: int = 0

    @property
    def recovery_rate(self) -> float:
        """Fraction of ground-truth domains the crawl recovered.

        An empty universe (nothing crawled, nothing missing) is *not*
        perfect recovery — there was nothing to recover — so it returns
        ``float("nan")`` rather than a misleading ``1.0``.
        """
        total = self.domains_crawled + self.domains_missing
        return self.domains_crawled / total if total else math.nan

    def as_dict(self) -> dict[str, float | None]:
        """Every field plus the derived recovery rate, JSON-ready."""
        payload: dict[str, float | None] = dataclasses.asdict(self)
        rate = self.recovery_rate
        payload["recovery_rate"] = None if math.isnan(rate) else rate
        return payload


@dataclass
class DataCollectionPipeline:
    """Wires the three clients into one staged, resumable collection run."""

    subgraph_client: SubgraphClient
    etherscan_client: EtherscanClient
    opensea_client: OpenSeaClient
    registry: MetricsRegistry | None = None
    tracer: Tracer | None = None
    checkpoint: CheckpointConfig | None = None

    def __post_init__(self) -> None:
        if self.registry is None:
            self.registry = MetricsRegistry()
        if self.tracer is None:
            self.tracer = Tracer()
        self._checkpoint_writes = self.registry.counter(
            "checkpoint_writes_total", "Durable crawl snapshots committed"
        )
        self._checkpoint_resumes = self.registry.counter(
            "checkpoint_resumes_total", "Runs resumed from a snapshot"
        )
        self._checkpoint_stale = self.registry.counter(
            "checkpoint_stale_total",
            "Resume attempts that found no compatible snapshot",
        )
        self._store: CheckpointStore | None = None
        if self.checkpoint is not None:
            self._store = CheckpointStore(
                directory=self.checkpoint.directory,
                fingerprint=self.fingerprint(),
                keep_snapshots=self.checkpoint.keep_snapshots,
            )

    # -- checkpointing -----------------------------------------------------

    def fingerprint(self) -> str:
        """Compatibility fingerprint a snapshot must match to be resumed.

        Covers the checkpoint format version plus every configuration
        knob that changes cursor semantics: resuming a crawl whose page
        sizes changed would mis-place every cursor, so such snapshots
        are treated as stale.
        """
        return (
            f"v{CHECKPOINT_FORMAT_VERSION}"
            f":subgraph_page={self.subgraph_client.page_size}"
            f":explorer_page={self.etherscan_client.page_size}"
        )

    def _counter_snapshot(self) -> dict[str, Any]:
        """Counter state across every registry this run touches."""
        snapshot: dict[str, Any] = {}
        for name, registry in self._registries():
            snapshot[name] = registry.counter_snapshot()
        return snapshot

    def _restore_counters(self, snapshot: dict[str, Any]) -> None:
        for name, registry in self._registries():
            registry.restore_counters(snapshot.get(name, {}))

    def _registries(self) -> list[tuple[str, MetricsRegistry]]:
        assert self.registry is not None
        pairs = [
            ("pipeline", self.registry),
            ("subgraph", self.subgraph_client.registry),
            ("explorer", self.etherscan_client.registry),
            ("opensea", self.opensea_client.registry),
        ]
        # registries may be shared between clients; snapshot each object once
        unique: list[tuple[str, MetricsRegistry]] = []
        seen: list[MetricsRegistry] = []
        for name, registry in pairs:
            assert registry is not None
            if not any(registry is known for known in seen):
                seen.append(registry)
                unique.append((name, registry))
        return unique

    def _write_checkpoint(self, state: CrawlState) -> None:
        assert self._store is not None
        self._store.write(state, self._counter_snapshot())
        self._checkpoint_writes.inc()

    def _unit_done(self, state: CrawlState) -> None:
        """Account one unit of crawl work; checkpoint on the cadence."""
        state.units_done += 1
        if (
            self._store is not None
            and self.checkpoint is not None
            and state.units_done % self.checkpoint.every == 0
        ):
            self._write_checkpoint(state)

    def _stage_boundary(self, state: CrawlState) -> None:
        """Checkpoint at a stage transition (cursors reset here)."""
        if self._store is not None:
            self._write_checkpoint(state)

    def _initial_state(self) -> CrawlState:
        """A resumed state when asked for and compatible, else fresh."""
        if self._store is None or self.checkpoint is None or not self.checkpoint.resume:
            return CrawlState()
        loaded = self._store.load()
        if loaded is None:
            self._checkpoint_stale.inc()
            _log.info("crawl.resume_fresh", reason="no compatible snapshot")
            return CrawlState()
        state, counters = loaded
        self._restore_counters(counters)
        self._checkpoint_resumes.inc()
        _log.info(
            "crawl.resumed",
            stage=state.stage,
            units_done=state.units_done,
            domains=state.dataset.domain_count,
        )
        return state

    # -- the crawl ---------------------------------------------------------

    def run(self, crawl_timestamp: int | None = None) -> tuple[ENSDataset, CrawlReport]:
        """Execute the full pipeline; returns (dataset, report)."""
        tracer = self.tracer
        state = self._initial_state()
        dataset = state.dataset

        with tracer.span("crawl"):
            # 1. domains + registration history, one cursor page per unit
            with tracer.span("crawl.1_domains"):
                if state.stage == STAGE_DOMAINS:
                    while True:
                        page = self.subgraph_client.fetch_domains_page(
                            state.subgraph_cursor
                        )
                        if not page:
                            break
                        for domain in page:
                            dataset.add_domain(domain)
                        state.subgraph_cursor = page[-1].domain_id
                        self._unit_done(state)
                    state.stage = STAGE_TRANSACTIONS
                    self._stage_boundary(state)

            # 2. wallet universe (derived, deterministic — never persisted)
            with tracer.span("crawl.2_wallets"):
                wallets = sorted(dataset.wallet_addresses())

            # 3. transaction histories, one wallet per unit
            with tracer.span("crawl.3_transactions"):
                if state.stage == STAGE_TRANSACTIONS:
                    # one string per address across the crawled rows,
                    # seeded with the domain records' own; dropped on return
                    strings = {wallet: wallet for wallet in wallets}
                    for wallet in wallets[state.wallets_done :]:
                        dataset.add_transactions(
                            self.etherscan_client.fetch_transactions(
                                wallet, strings
                            )
                        )
                        state.wallets_done += 1
                        self._unit_done(state)
                    state.stage = STAGE_MARKET_EVENTS
                    self._stage_boundary(state)

            # 4. marketplace events for names with >1 registration cycle —
            #    the candidates of the re-sale analysis; one token per unit
            with tracer.span("crawl.4_market_events"):
                rereg_tokens = sorted(
                    domain.labelhash
                    for domain in dataset.iter_domains()
                    if len(domain.unique_registrants) > 1
                )
                if state.stage == STAGE_MARKET_EVENTS:
                    for token in rereg_tokens[state.tokens_done :]:
                        dataset.add_market_events(
                            self.opensea_client.fetch_token_events(token)
                        )
                        state.tokens_done += 1
                        self._unit_done(state)
                    state.stage = STAGE_LABELS
                    self._stage_boundary(state)

            # 5. label lists
            with tracer.span("crawl.5_labels"):
                if state.stage == STAGE_LABELS:
                    dataset.custodial_addresses = set(
                        self.etherscan_client.fetch_label_category(
                            CATEGORY_CUSTODIAL_EXCHANGE
                        )
                    )
                    dataset.coinbase_addresses = set(
                        self.etherscan_client.fetch_label_category(CATEGORY_COINBASE)
                    )
                    state.stage = STAGE_DONE
                    self._stage_boundary(state)

            with tracer.span("crawl.6_validate"):
                if crawl_timestamp is not None:
                    dataset.crawl_timestamp = crawl_timestamp
                dataset.validate()

            report = CrawlReport(
                domains_crawled=dataset.domain_count,
                domains_missing=len(
                    self.subgraph_client.endpoint.missing_domain_ids()
                ),
                subdomains_total=sum(
                    domain.subdomain_count for domain in dataset.iter_domains()
                ),
                wallet_addresses=len(wallets),
                transactions_crawled=dataset.transaction_count,
                market_events_crawled=len(dataset.market_events),
                subgraph_pages=self.subgraph_client.pages_fetched,
                explorer_requests=self.etherscan_client.requests_made,
                explorer_retries=self.etherscan_client.retries_performed,
                opensea_requests=self.opensea_client.requests_made,
                explorer_failures=self.etherscan_client.failures,
            )
            self._publish_report(report)
        _log.info(
            "crawl.finished",
            domains=report.domains_crawled,
            missing=report.domains_missing,
            transactions=report.transactions_crawled,
            explorer_requests=report.explorer_requests,
            explorer_retries=report.explorer_retries,
        )
        return dataset, report

    def _publish_report(self, report: CrawlReport) -> None:
        """Mirror every report field into the registry as crawl_* gauges."""
        assert self.registry is not None
        for name, value in dataclasses.asdict(report).items():
            self.registry.gauge(
                f"crawl_{name}", f"CrawlReport.{name} of the last pipeline run"
            ).set(value)
        rate = report.recovery_rate
        self.registry.gauge(
            "crawl_recovery_rate", "CrawlReport.recovery_rate of the last run"
        ).set(rate if not math.isnan(rate) else math.nan)
