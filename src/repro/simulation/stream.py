"""Streamed scenarios: one crawl, replayed as block-batched deltas.

:func:`stream_scenario` runs a full scenario + crawl, then slices the
crawled records into ``batches`` time-ordered
:class:`~repro.datasets.delta.DatasetDelta` values — the deterministic
input for everything incremental: the ``incremental-determinism`` CI
gate, the hypothesis interleaving property, the append benchmark, and
``repro dataset stream``.

Slicing rules (cutoffs are record-count quantiles of all record
timestamps, so batches are roughly even):

* batch 1 carries **every** domain record, its registrations filtered
  to the first cutoff — possibly none yet. This pins the domain
  insertion order of every replayed prefix to the crawl's order, which
  analyses that iterate domains (typosquat target table, comparison
  groups) observe.
* later batches re-emit (replace) the domains that gained a
  registration in their window, filtered to the window's end.
* transactions are stably time-sorted, then partitioned at the
  cutoffs. The replayed transaction list is therefore the stable
  time-sort of the crawl's — not the crawl's raw per-address append
  order — but every analysis reads transactions through the
  :class:`~repro.core.context.AnalysisContext` time-sorted views,
  where a stable sort of an already stably-sorted list is the
  identity, so reports over the replayed dataset are byte-identical
  to reports over the crawl (the stream test asserts exactly this).
* market events are partitioned the same way (the simulated market
  appends chronologically, so their order is preserved outright).

Replaying every delta onto :meth:`ScenarioStream.empty_dataset`
reconstructs the full analysis state; replaying a prefix gives the
canonical intermediate state the determinism gate cold-rebuilds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace

from ..datasets.dataset import ENSDataset
from ..datasets.delta import DatasetDelta
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..oracle.ethusd import EthUsdOracle
from .config import ScenarioConfig
from .scenario import run_scenario

__all__ = ["stream_scenario"]


@dataclass(frozen=True)
class ScenarioStream:
    """A finished scenario's records, packaged as an ordered delta feed."""

    config: ScenarioConfig
    crawl_timestamp: int
    coinbase_addresses: frozenset[str]
    custodial_addresses: frozenset[str]
    oracle: EthUsdOracle
    cutoffs: tuple[int, ...]
    deltas: tuple[DatasetDelta, ...]

    @property
    def batches(self) -> int:
        """Number of deltas in the feed."""
        return len(self.deltas)

    def empty_dataset(self) -> ENSDataset:
        """A fresh base dataset carrying only the crawl-level facts.

        The crawl timestamp and the exchange label sets are known from
        the start of a stream (they are crawl configuration, not
        streamed records), so every replayed prefix analyses against
        the same cutoff the finished dataset uses.
        """
        return ENSDataset(
            coinbase_addresses=set(self.coinbase_addresses),
            custodial_addresses=set(self.custodial_addresses),
            crawl_timestamp=self.crawl_timestamp,
        )

    def replay(self, upto: int | None = None) -> ENSDataset:
        """Cold-rebuild the canonical state after ``upto`` deltas.

        ``upto=None`` replays the whole feed. This is the reference
        state the incremental determinism gate compares against.
        """
        dataset = self.empty_dataset()
        count = len(self.deltas) if upto is None else upto
        for delta in self.deltas[:count]:
            dataset.apply_delta(delta)
        return dataset


def stream_scenario(
    config: ScenarioConfig | None = None,
    batches: int = 8,
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> ScenarioStream:
    """Run a scenario + crawl and slice the records into delta batches.

    Deterministic given ``(config, batches)``: same cutoffs, same
    per-batch record sequences, every time.
    """
    if batches < 1:
        raise ValueError(f"batches must be >= 1, got {batches}")
    world = run_scenario(config, registry=registry, tracer=tracer)
    dataset, _ = world.run_crawl()
    config = world.config

    times: list[int] = []
    for domain in dataset.iter_domains():
        times.extend(r.registration_date for r in domain.registrations)
    times.extend(tx.timestamp for tx in dataset.transactions)
    times.extend(event.timestamp for event in dataset.market_events)
    times.sort()

    cutoffs: list[int] = []
    for k in range(1, batches + 1):
        if times:
            index = min(len(times) - 1, (k * len(times)) // batches - 1)
            cutoffs.append(times[max(0, index)])
        else:
            cutoffs.append(dataset.crawl_timestamp)
    # the final batch must cover everything up to the crawl cutoff
    cutoffs[-1] = max(cutoffs[-1], dataset.crawl_timestamp)

    txs = sorted(dataset.transactions, key=lambda tx: tx.timestamp)
    tx_stamps = [tx.timestamp for tx in txs]
    events = sorted(dataset.market_events, key=lambda event: event.timestamp)
    event_stamps = [event.timestamp for event in events]

    deltas: list[DatasetDelta] = []
    previous = None
    tx_lo = event_lo = 0
    for k, cutoff in enumerate(cutoffs, start=1):
        tx_hi = bisect_right(tx_stamps, cutoff)
        event_hi = bisect_right(event_stamps, cutoff)
        domains = []
        for domain in dataset.iter_domains():
            gained = any(
                (previous is None or r.registration_date > previous)
                and r.registration_date <= cutoff
                for r in domain.registrations
            )
            if k == 1 or gained:
                domains.append(
                    replace(
                        domain,
                        registrations=[
                            r
                            for r in domain.registrations
                            if r.registration_date <= cutoff
                        ],
                    )
                )
        deltas.append(
            DatasetDelta(
                domains=tuple(domains),
                transactions=tuple(txs[tx_lo:tx_hi]),
                market_events=tuple(events[event_lo:event_hi]),
                label=f"batch-{k}/{batches}@{cutoff}",
            )
        )
        tx_lo, event_lo, previous = tx_hi, event_hi, cutoff

    return ScenarioStream(
        config=config,
        crawl_timestamp=dataset.crawl_timestamp,
        coinbase_addresses=frozenset(dataset.coinbase_addresses),
        custodial_addresses=frozenset(dataset.custodial_addresses),
        oracle=world.oracle,
        cutoffs=tuple(cutoffs),
        deltas=tuple(deltas),
    )
