"""Incremental ingestion: a single-block delta must beat a cold rebuild.

The tentpole claim of the delta pipeline, measured: after a warm
:class:`~repro.core.increport.IncrementalReportBuilder` has built the
report once, appending one block's worth of records
(:meth:`~repro.datasets.dataset.ENSDataset.apply_delta`) and refreshing
must cost O(delta + dirty items), not O(dataset). The gate asserts a
``>= 10x`` speedup over ``build_report`` from scratch at 3,200 domains.
Both sides are timed in the same process, so the ratio holds on any
machine; a slower commit shows up in ``perfbench``'s
``incremental.apply_ms``, not here.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.core import IncrementalReportBuilder, build_report
from repro.datasets.delta import DatasetDelta
from repro.simulation import ScenarioConfig, stream_scenario

INCREMENTAL_DOMAINS = 3_200

#: The acceptance floor: one appended block refreshes at least this many
#: times faster than rebuilding the report from scratch.
MIN_SPEEDUP = 10.0

# Populated as the benches run; read by the cross-bench speedup gate.
_MEANS: dict[str, float] = {}


@pytest.fixture(scope="module")
def stream():
    """The block-batched scenario stream shared by both benches."""
    return stream_scenario(
        ScenarioConfig(n_domains=INCREMENTAL_DOMAINS, seed=7), batches=4
    )


@pytest.fixture(scope="module")
def live(stream):
    """(dataset, warm builder): the full stream replayed + one cold refresh."""
    dataset = stream.replay()
    builder = IncrementalReportBuilder(dataset, stream.oracle, seed=0)
    builder.refresh()
    return dataset, builder


def _micro_delta(dataset, index: int) -> DatasetDelta:
    """One single-block append: a fresh tx between existing addresses.

    Cloned from the newest crawled transaction (so the sender is a real
    registrant and the refresh dirties its loss/hijackable memos — the
    representative case, not a no-op) with a unique hash, the next
    block, and a strictly later timestamp.
    """
    template = dataset.transactions[-1]
    return DatasetDelta(
        transactions=(
            dataclasses.replace(
                template,
                tx_hash=f"0xbench{index:058x}",
                block_number=template.block_number + 1 + index,
                timestamp=template.timestamp + 1 + index,
            ),
        ),
        label=f"bench-block-{index}",
    )


def test_cold_rebuild(benchmark, stream, live) -> None:
    """Baseline: the full report built from scratch, no warm state."""
    dataset, _ = live

    def _cold():
        return build_report(dataset, stream.oracle, seed=0)

    report = benchmark.pedantic(_cold, rounds=2, iterations=1)
    _MEANS["cold"] = benchmark.stats.stats.mean
    assert report.summary.total_domains == len(dataset.domains)


def test_single_delta_refresh(benchmark, stream, live) -> None:
    """One block applied + incrementally refreshed; gated >= 10x faster."""
    dataset, builder = live
    indices = itertools.count()

    def _apply_and_refresh():
        dataset.apply_delta(_micro_delta(dataset, next(indices)))
        return builder.refresh()

    report = benchmark.pedantic(_apply_and_refresh, rounds=10, iterations=1)
    _MEANS["delta"] = benchmark.stats.stats.mean
    assert report.summary.total_domains == len(dataset.domains)

    cold = _MEANS.get("cold")
    if cold is None:
        pytest.skip("cold-rebuild bench did not run; no ratio to gate")
    speedup = cold / _MEANS["delta"]
    print(
        f"\nincremental ingestion ({len(dataset.domains)} domains):"
        f" cold {cold:.3f}s, single-block refresh"
        f" {_MEANS['delta'] * 1e3:.1f}ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"single-block delta refresh is only {speedup:.1f}x faster than a"
        f" cold rebuild (floor {MIN_SPEEDUP:.0f}x) — the O(delta) cache"
        " patching has regressed toward a full rebuild"
    )
