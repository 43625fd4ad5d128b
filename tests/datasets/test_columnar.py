"""The columnar store: round trips, views, immutability, persistence."""

from __future__ import annotations

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_report
from repro.crawler import dataset_digest
from repro.datasets import (
    ColumnarDataset,
    ColumnarFormatError,
    ColumnarImmutableError,
    DatasetIntegrityError,
    ENSDataset,
    encode_dataset,
    write_columnar,
)
from repro.oracle import EthUsdOracle
from repro.simulation import ScenarioConfig, run_scenario

from ..core.helpers import (
    make_dataset,
    make_domain,
    make_registration,
    make_sale_event,
    make_tx,
)
from .test_dataset import read_incoming, scan_incoming
from .test_roundtrip_properties import _domain, _market_event, _tx


def _small_dataset() -> ENSDataset:
    domains = [
        make_domain("gold", [make_registration("0xaa", 100, 465)]),
        make_domain(
            "silver",
            [
                make_registration("0xbb", 120, 485),
                make_registration("0xcc", 500, 865, ordinal=1),
            ],
        ),
    ]
    txs = [
        make_tx("0xaa", "0xbb", 130),
        make_tx("0xbb", "0xcc", 140, is_error=True),
        make_tx("0xcc", "0xaa", 150),
    ]
    events = [
        make_sale_event("gold", "listing", 200, "0xaa"),
        make_sale_event("gold", "sale", 210, "0xaa", taker="0xbb"),
    ]
    dataset = make_dataset(domains, txs, events)
    dataset.coinbase_addresses = {"0xcoinbase"}
    dataset.custodial_addresses = {"0xkraken"}
    return dataset


def _assert_equivalent(store: ColumnarDataset, dataset: ENSDataset) -> None:
    """Record-for-record equality plus stable iteration order."""
    assert store.crawl_timestamp == dataset.crawl_timestamp
    assert store.coinbase_addresses == frozenset(dataset.coinbase_addresses)
    assert store.custodial_addresses == frozenset(dataset.custodial_addresses)
    assert list(store.domains) == list(dataset.domains)
    for domain_id, domain in dataset.domains.items():
        assert store.domains[domain_id] == domain
    assert list(store.transactions) == list(dataset.transactions)
    assert list(store.market_events) == list(dataset.market_events)


class TestRoundTrip:
    def test_hand_built_dataset(self) -> None:
        dataset = _small_dataset()
        _assert_equivalent(ColumnarDataset.from_dataset(dataset), dataset)

    def test_mmap_round_trip(self, tmp_path) -> None:
        dataset = _small_dataset()
        path = write_columnar(dataset, tmp_path / "d.rcol")
        store = ColumnarDataset.open(path)
        _assert_equivalent(store, dataset)
        assert store.path == str(path)
        assert store.nbytes == path.stat().st_size

    def test_encode_is_deterministic(self) -> None:
        dataset = _small_dataset()
        assert encode_dataset(dataset) == encode_dataset(dataset)

    def test_digest_matches_object_store(self) -> None:
        dataset = _small_dataset()
        store = ColumnarDataset.from_dataset(dataset)
        assert dataset_digest(store) == dataset_digest(dataset)

    @given(
        domains=st.lists(_domain, max_size=4, unique_by=lambda d: d.domain_id),
        txs=st.lists(_tx, max_size=6, unique_by=lambda t: t.tx_hash),
        events=st.lists(_market_event, max_size=4),
        crawl_timestamp=st.integers(min_value=0, max_value=2_100_000_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_generated_round_trip(self, domains, txs, events, crawl_timestamp):
        dataset = ENSDataset(crawl_timestamp=crawl_timestamp)
        for domain in domains:
            dataset.add_domain(domain)
        dataset.add_transactions(txs)
        dataset.add_market_events(events)
        _assert_equivalent(
            ColumnarDataset.from_bytes(encode_dataset(dataset)), dataset
        )


class TestViews:
    def test_domain_by_name_and_row(self) -> None:
        dataset = _small_dataset()
        store = ColumnarDataset.from_dataset(dataset)
        assert store.domain_by_name("gold.eth") == dataset.domain_by_name(
            "gold.eth"
        )
        assert store.domain_by_name("nope.eth") is None
        assert store.domain_row("0xdomain-gold") == 0
        assert store.domain_row("0xmissing") is None

    def test_direction_indexes_match_object_store(self) -> None:
        dataset = _small_dataset()
        store = ColumnarDataset.from_dataset(dataset)
        for address in ("0xaa", "0xbb", "0xcc", "0xnobody"):
            assert store.incoming_entry(address) == dataset.incoming_entry(address)

    def test_incoming_entry_parallel_lists(self) -> None:
        dataset = _small_dataset()
        store = ColumnarDataset.from_dataset(dataset)
        for address in ("0xaa", "0xbb", "0xcc", "0xnobody"):
            # the errored 0xbb -> 0xcc transfer is dropped
            assert read_incoming(store, address) == scan_incoming(dataset, address)

    def test_ordered_by_timestamp(self) -> None:
        store = ColumnarDataset.from_dataset(_small_dataset())
        order, stamps = store.ordered_by_timestamp("market_events")
        assert stamps == sorted(stamps)
        assert [store.event_at(row).timestamp for row in order] == stamps
        with pytest.raises(ValueError):
            store.ordered_by_timestamp("domains")

    def test_wallet_and_registrant_addresses(self) -> None:
        dataset = _small_dataset()
        store = ColumnarDataset.from_dataset(dataset)
        assert store.wallet_addresses() == dataset.wallet_addresses()
        assert {"0xaa", "0xbb", "0xcc"} <= store.wallet_addresses()

    def test_record_column_slicing(self) -> None:
        dataset = _small_dataset()
        store = ColumnarDataset.from_dataset(dataset)
        assert store.transactions[-1] == dataset.transactions[-1]
        assert store.transactions[1:] == dataset.transactions[1:]
        with pytest.raises(IndexError):
            store.transactions[len(dataset.transactions)]

    def test_validate_passes(self) -> None:
        ColumnarDataset.from_dataset(_small_dataset()).validate()


class TestImmutability:
    def test_mutators_raise(self) -> None:
        store = ColumnarDataset.from_dataset(_small_dataset())
        with pytest.raises(ColumnarImmutableError):
            store.add_domain(
                make_domain("new", [make_registration("0xdd", 1, 366)])
            )
        with pytest.raises(ColumnarImmutableError):
            store.add_transactions([])
        with pytest.raises(ColumnarImmutableError):
            store.add_market_events([])

    def test_version_is_constant(self) -> None:
        store = ColumnarDataset.from_dataset(_small_dataset())
        assert store.version == 0


class TestFormatErrors:
    def test_bad_magic(self) -> None:
        blob = bytearray(encode_dataset(_small_dataset()))
        blob[:4] = b"NOPE"
        with pytest.raises(ColumnarFormatError):
            ColumnarDataset.from_bytes(bytes(blob))

    def test_unknown_version(self) -> None:
        blob = bytearray(encode_dataset(_small_dataset()))
        blob[4] = 0xFF
        with pytest.raises(ColumnarFormatError):
            ColumnarDataset.from_bytes(bytes(blob))

    def test_truncated_buffer(self) -> None:
        blob = encode_dataset(_small_dataset())
        with pytest.raises(ColumnarFormatError):
            ColumnarDataset.from_bytes(blob[: len(blob) // 2])

    def test_empty_buffer(self) -> None:
        with pytest.raises(ColumnarFormatError):
            ColumnarDataset.from_bytes(b"")

    def test_negative_value_rejected_at_write(self, tmp_path) -> None:
        dataset = _small_dataset()
        dataset.transactions = [
            make_tx("0xaa", "0xbb", 130, value_wei=-1, tx_hash="0xneg")
        ]
        with pytest.raises(ColumnarFormatError, match="value_wei"):
            write_columnar(dataset, tmp_path / "d.rcol")
        assert list(tmp_path.iterdir()) == []

    def test_invalid_utf8_in_pool_is_a_format_error(self) -> None:
        blob = encode_dataset(_small_dataset())
        start, _ = _pool_blob_span(blob)
        corrupt = bytearray(blob)
        corrupt[start] = 0xFF  # never valid in UTF-8
        store = ColumnarDataset.from_bytes(bytes(corrupt))
        with pytest.raises(ColumnarFormatError, match="UTF-8"):
            store.validate()


def _with_meta(blob: bytes, edit) -> bytes:
    """``blob`` with its meta JSON rewritten in place by ``edit``.

    The meta section is the container's last; the compact rewrite keeps
    its byte length (padding with spaces), so the directory stays valid
    and only the counts lie.
    """
    size = ColumnarDataset.from_bytes(blob).stats()["sections"]["meta"]["bytes"]
    old = blob[-size:]
    meta = json.loads(old)
    edit(meta)
    new = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    assert len(new) <= len(old)
    return blob[:-size] + new.ljust(len(old))


class TestMetaCounts:
    """The meta row counts must match the columns they describe."""

    @pytest.mark.parametrize(
        "key,delta",
        [
            ("transactions", 5),
            ("transactions", -1),
            ("domains", 1),
            ("registrations", 2),
            ("marketEvents", -1),
            ("poolStrings", 3),
        ],
    )
    def test_miscounted_family_is_rejected_at_open(self, key, delta) -> None:
        blob, _, _ = _scenario_rcol()

        def miscount(meta: dict) -> None:
            meta["counts"][key] += delta

        corrupt = _with_meta(blob, miscount)
        with pytest.raises(ColumnarFormatError, match="meta counts"):
            ColumnarDataset.from_bytes(corrupt)

    def test_unreadable_counts_are_rejected(self) -> None:
        blob, _, _ = _scenario_rcol()

        def garble(meta: dict) -> None:
            meta["counts"]["domains"] = "x"

        with pytest.raises(ColumnarFormatError, match="meta counts"):
            ColumnarDataset.from_bytes(_with_meta(blob, garble))

    def test_true_counts_open_and_analyse(self) -> None:
        blob, _, _ = _scenario_rcol()
        store = ColumnarDataset.from_bytes(_with_meta(blob, lambda meta: None))
        assert len(store.transactions) == len(list(store.transactions))
        store.validate()


def _pool_blob_span(blob: bytes) -> tuple[int, int]:
    """Byte range of the ``pool_blob`` section: the pooled strings in id
    order, which the pool's own public reads give back."""
    store = ColumnarDataset.from_bytes(blob)
    pooled = "".join(
        store.pool_str(pool_id) for pool_id in range(store.pool_size)
    ).encode("utf-8")
    assert len(pooled) == store.stats()["sections"]["pool_blob"]["bytes"]
    start = blob.index(pooled)
    return start, start + len(pooled)


@functools.cache
def _scenario_rcol() -> tuple[bytes, int, int]:
    """A small crawled world's RCOL bytes and its pool's byte range."""
    world = run_scenario(ScenarioConfig(n_domains=60, seed=3))
    dataset, _ = world.run_crawl()
    blob = encode_dataset(dataset)
    return (blob, *_pool_blob_span(blob))


class TestPoolCorruption:
    """A flipped byte in the string pool is input the program does not
    control: it ends in a typed error or in a report, never a traceback."""

    @given(
        offset=st.integers(min_value=0, max_value=2**32),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_flipped_pool_byte_is_typed_or_harmless(self, offset, mask) -> None:
        blob, start, stop = _scenario_rcol()
        corrupt = bytearray(blob)
        corrupt[start + offset % (stop - start)] ^= mask
        try:
            store = ColumnarDataset.from_bytes(bytes(corrupt))
            store.validate()
            build_report(store, EthUsdOracle())
        except (ColumnarFormatError, DatasetIntegrityError):
            pass


class TestPersistenceAndSharing:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path) -> None:
        write_columnar(_small_dataset(), tmp_path / "d.rcol")
        assert [p.name for p in tmp_path.iterdir()] == ["d.rcol"]


class TestGoldenReport:
    """The satellite acceptance check: store choice never shows in output."""

    def test_build_report_byte_identity(self) -> None:
        world = run_scenario(ScenarioConfig(n_domains=60, seed=3))
        dataset, _ = world.run_crawl()
        object_report = build_report(dataset, world.oracle)
        columnar_report = build_report(
            ColumnarDataset.from_dataset(dataset), world.oracle
        )
        assert columnar_report.lines() == object_report.lines()
        assert "\n".join(columnar_report.lines()) == "\n".join(
            object_report.lines()
        )
