"""Index scaling: the shared AnalysisContext vs the memo-free reference.

The tentpole claim of the perf work is that `build_report` stops being
O(analyses x events x senders x txs) once every analysis reads the
shared index. These cases measure that directly at several dataset
scales and — crucially — assert at every scale that the indexed report
is byte-identical to the `ScanAccess` reference, so no speedup can be
bought with a silent behaviour change.

Scales default to the issue's {200, 800, 3200}; set
``REPRO_BENCH_SCALES`` (comma-separated) to trim the sweep, e.g.
``REPRO_BENCH_SCALES=200,800`` for the CI perf-smoke job.

The columnar sweep (:data:`COLUMNAR_SCALES`, 200 and 50,000 domains)
measures the :mod:`repro.datasets.columnar` container at
dropcatch-census scale: encode throughput, mmap open latency (which
must stay O(1) in dataset size — the directory parse touches a few
hundred bytes regardless of payload), and the Python-heap footprint of
an opened columnar store against the equivalent object graph. The 50k
point is the acceptance scale: ~50k domains is the order of the
paper's released dropcatch dataset.
"""

from __future__ import annotations

import os
import tracemalloc

import pytest

from repro.core import AnalysisContext, ScanAccess, build_report
from repro.datasets import ColumnarDataset, encode_dataset, write_columnar
from repro.datasets.dataset import ENSDataset
from repro.datasets.schema import (
    DomainRecord,
    MarketEventRecord,
    RegistrationRecord,
    TxRecord,
)
from repro.obs.runledger import wall_now
from repro.simulation import ScenarioConfig, run_scenario

DEFAULT_SCALES = "200,800,3200"

#: Columnar sweep: a small store and the paper's dropcatch-census scale.
COLUMNAR_SCALES = (200, 50_000)

#: Address-pool modulus: a prime so address reuse spreads across domains.
_ADDRESS_POOL = 9973


def _scales() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_SCALES", DEFAULT_SCALES)
    return [int(part) for part in raw.split(",") if part.strip()]


def _address(slot: int) -> str:
    return f"0x{slot % _ADDRESS_POOL:040x}"


def build_synthetic_dataset(n_domains: int) -> ENSDataset:
    """A deterministic dataset at ``n_domains`` scale, no RNG, no hashing.

    Shapes mirror the crawler's output statistics coarsely: ~1.33
    registrations and 3 transactions per domain, one market event per
    four domains, addresses drawn from a shared pool so the string
    pool's interning has realistic hit rates. Generation is pure
    arithmetic so a 50k build costs seconds, not minutes.
    """
    dataset = ENSDataset(crawl_timestamp=1_700_000_000)
    domains: dict[str, DomainRecord] = {}
    transactions: list[TxRecord] = []
    events: list[MarketEventRecord] = []
    for i in range(n_domains):
        domain_id = f"0x{i:064x}"
        created = 1_500_000_000 + i * 60
        registrations = [
            RegistrationRecord(
                registration_id=f"reg-{i}-{j}",
                registrant=_address(i * 7 + j),
                registration_date=created + j * 86_400,
                expiry_date=created + (j + 1) * 31_536_000,
                cost_wei=(i + j + 1) * 10**15,
                base_cost_wei=(i + j + 1) * 10**14,
                premium_wei=(i % 11) * 10**13,
            )
            for j in range(1 + (i % 3 == 0))
        ]
        domains[domain_id] = DomainRecord(
            domain_id=domain_id,
            name=f"bench-{i}.eth",
            label_name=f"bench-{i}",
            labelhash=f"0x{i ^ 0xABCDEF:064x}",
            created_at=created,
            owner=_address(i),
            resolved_address=_address(i) if i % 3 else None,
            subdomain_count=i % 5,
            registrations=registrations,
        )
        for k in range(3):
            serial = i * 3 + k
            transactions.append(
                TxRecord(
                    tx_hash=f"0xt{serial:063x}",
                    block_number=10_000_000 + serial,
                    timestamp=created + k * 13,
                    from_address=_address(serial),
                    to_address=_address(serial + 1),
                    value_wei=(serial % 1000) * 10**14,
                    is_error=serial % 17 == 0,
                )
            )
        if i % 4 == 0:
            events.append(
                MarketEventRecord(
                    token_id=domain_id,
                    event_type="listing" if i % 8 else "sale",
                    timestamp=created + 3600,
                    maker=_address(i),
                    taker=_address(i + 1) if i % 8 == 0 else None,
                    price_wei=(i + 1) * 10**15,
                )
            )
    dataset.domains = domains
    dataset.transactions = transactions
    dataset.market_events = events
    dataset.coinbase_addresses = {_address(s) for s in range(0, 64)}
    dataset.custodial_addresses = {_address(s) for s in range(64, 128)}
    return dataset


@pytest.fixture(scope="module", params=_scales(), ids=lambda n: f"{n}d")
def sized_world(request):
    """(dataset, oracle) at one sweep scale, built once per module."""
    world = run_scenario(ScenarioConfig(n_domains=request.param, seed=7))
    dataset, _ = world.run_crawl()
    return dataset, world.oracle


def test_report_indexed(benchmark, sized_world) -> None:
    dataset, oracle = sized_world
    report = benchmark.pedantic(build_report, args=(dataset, oracle), rounds=3)
    assert report.summary.total_domains == dataset.domain_count


def test_report_scan_reference(benchmark, sized_world) -> None:
    """The memo-free path: every query scans its address's whole incoming
    history, as the store groups it, or the raw log. The floor to beat."""
    dataset, oracle = sized_world

    def _scan_report():
        return build_report(
            dataset, oracle, context=ScanAccess(dataset, oracle)
        )

    report = benchmark.pedantic(_scan_report, rounds=1)
    assert report.summary.total_domains == dataset.domain_count


def test_warm_context_window_queries(benchmark, sized_world) -> None:
    """Steady-state query cost once the index is built: bisect slices."""
    dataset, oracle = sized_world
    context = AnalysisContext(dataset, oracle)
    wallets = sorted(dataset.wallet_addresses())[:512]
    context.incoming_window(wallets[0], None, None)  # build the index

    def _sweep() -> int:
        total = 0
        for wallet in wallets:
            total += len(context.incoming_window(wallet, 0, 2**40))
        return total

    total = benchmark(_sweep)
    assert total >= 0


def test_indexed_output_identical_to_scan(sized_world) -> None:
    """No speedup may change a single rendered line at any scale."""
    dataset, oracle = sized_world
    indexed = build_report(dataset, oracle)
    reference = build_report(
        dataset, oracle, context=ScanAccess(dataset, oracle)
    )
    assert indexed.lines() == reference.lines()
    assert (
        indexed.losses_with_coinbase.flows
        == reference.losses_with_coinbase.flows
    )
    assert indexed.typosquat == reference.typosquat


# --- columnar store ----------------------------------------------------------


@pytest.fixture(scope="module")
def columnar_files(tmp_path_factory):
    """{scale: (object dataset, packed .rcol path)} for the whole sweep."""
    root = tmp_path_factory.mktemp("rcol")
    out = {}
    for n in COLUMNAR_SCALES:
        dataset = build_synthetic_dataset(n)
        path = root / f"bench-{n}.rcol"
        write_columnar(dataset, path)
        out[n] = (dataset, path)
    return out


@pytest.fixture(scope="module", params=COLUMNAR_SCALES, ids=lambda n: f"{n}d")
def columnar_world(request, columnar_files):
    dataset, path = columnar_files[request.param]
    return request.param, dataset, path


def test_columnar_pack(benchmark, columnar_world) -> None:
    """Object graph -> RCOL bytes: the encode throughput at each scale."""
    n, dataset, _ = columnar_world
    blob = benchmark.pedantic(encode_dataset, args=(dataset,), rounds=3)
    assert blob[:4] == b"RCOL"


def test_columnar_mmap_load(benchmark, columnar_world) -> None:
    """mmap open + directory parse: must not scale with the payload."""
    n, _, path = columnar_world

    def _open() -> int:
        return ColumnarDataset.open(path).domain_count

    count = benchmark.pedantic(_open, rounds=5)
    assert count == n


def test_columnar_load_is_o1(columnar_files) -> None:
    """Opening 50k domains costs the same order as opening 200.

    Best-of-five wall times, with a small floor so a sub-10ms small
    open (pure noise territory) cannot fail a still-O(1) large open.
    """
    small, large = COLUMNAR_SCALES

    def best_of(path) -> float:
        times = []
        for _ in range(5):
            start = wall_now()
            ColumnarDataset.open(path).domain_count
            times.append(wall_now() - start)
        return min(times)

    t_small = best_of(columnar_files[small][1])
    t_large = best_of(columnar_files[large][1])
    assert t_large <= 2 * max(t_small, 0.01), (
        f"open({large}d)={t_large:.4f}s vs"
        f" open({small}d)={t_small:.4f}s — mmap open is scaling"
        " with the payload"
    )


def _heap_peak(build):
    """(result, peak Python-heap bytes) of running ``build``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_columnar_peak_memory_at_scale(columnar_files) -> None:
    """The opened store's heap footprint is >=3x below the object graph.

    tracemalloc sees Python-heap allocations only — which is exactly
    the claim: column data lives in the mmap (kernel page cache), not
    in per-process row objects. The object-graph side rebuilds the dataset so both sides
    are measured as fresh allocations.
    """
    scale = max(COLUMNAR_SCALES)
    _, path = columnar_files[scale]

    def _open_and_scan():
        store = ColumnarDataset.open(path)
        # Touch every row of the hot columns end to end: any hidden
        # materialization would land in the heap and count here.
        checksum = sum(store.col("tx_ts")) + sum(store.col("ev_ts"))
        checksum += sum(store.col("dom_created"))
        return store, checksum

    (_store, _checksum), columnar_peak = _heap_peak(_open_and_scan)
    _dataset, object_peak = _heap_peak(
        lambda: build_synthetic_dataset(scale)
    )
    ratio = object_peak / max(columnar_peak, 1)
    assert ratio >= 3.0, (
        f"object graph peaked at {object_peak / 2**20:.1f} MiB vs columnar"
        f" {columnar_peak / 2**20:.1f} MiB — only {ratio:.1f}x apart"
    )


def test_columnar_report_identical_to_object() -> None:
    """Store choice may not change a single rendered report line."""
    world = run_scenario(ScenarioConfig(n_domains=200, seed=7))
    dataset, _ = world.run_crawl()
    columnar = ColumnarDataset.from_dataset(dataset)
    assert (
        build_report(columnar, world.oracle).lines()
        == build_report(dataset, world.oracle).lines()
    )
