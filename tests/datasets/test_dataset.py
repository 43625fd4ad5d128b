"""Dataset model: the transaction reads, integrity checks, record round
trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IncrementalReportBuilder
from repro.datasets import dataset as dataset_module
from repro.datasets import (
    ColumnarDataset,
    DatasetIntegrityError,
    DomainRecord,
    ENSDataset,
    MarketEventRecord,
    RegistrationRecord,
    TxRecord,
)
from repro.datasets.dataset import group_incoming
from repro.simulation import ScenarioConfig, stream_scenario

from ..core.helpers import (
    DAY,
    make_dataset,
    make_domain,
    make_registration,
    make_sale_event,
    make_tx,
)


def scan_incoming(
    dataset: ENSDataset, address: str
) -> tuple[list[int], list[int], list[str], list[TxRecord]]:
    """``address``'s incoming history by its definition: a literal scan of
    ``dataset.transactions`` for error-free transfers to it, stable-sorted
    by timestamp (equal stamps keep insertion order)."""
    txs = sorted(
        (
            tx
            for tx in dataset.transactions
            if tx.to_address == address and not tx.is_error
        ),
        key=lambda tx: tx.timestamp,
    )
    return (
        [tx.timestamp for tx in txs],
        [tx.value_wei for tx in txs],
        [tx.from_address for tx in txs],
        txs,
    )


def read_incoming(
    store, address: str
) -> tuple[list[int], list[int], list[str], list[TxRecord]]:
    """``store.incoming_entry(address)`` with its rows read through
    ``tx_at``, comparable with :func:`scan_incoming`."""
    stamps, values, senders, rows = store.incoming_entry(address)
    return stamps, values, senders, [store.tx_at(row) for row in rows]


def _both_stores(dataset: ENSDataset) -> list:
    return [dataset, ColumnarDataset.from_dataset(dataset)]


class TestIndexes:
    def test_incoming_sorted_and_filtered(self) -> None:
        txs = [
            make_tx("0xa", "0xb", 300),
            make_tx("0xa", "0xb", 100),
            make_tx("0xa", "0xb", 200, is_error=True),  # errored: dropped
            make_tx("0xc", "0xb", 300, value_wei=7),  # ties the first tx
        ]
        dataset = make_dataset([], txs)
        for store in _both_stores(dataset):
            stamps, values, senders, _ = store.incoming_entry("0xb")
            assert stamps == [100 * DAY, 300 * DAY, 300 * DAY]
            assert senders == ["0xa", "0xa", "0xc"]  # insertion order kept
            assert values == [10**18, 10**18, 7]
            for address in ("0xa", "0xb", "0xc"):
                assert read_incoming(store, address) == scan_incoming(
                    dataset, address
                )

    def test_unknown_address_reads_empty(self) -> None:
        dataset = make_dataset([], [make_tx("0xa", "0xb", 100)])
        for store in _both_stores(dataset):
            assert store.incoming_entry("0xnobody") == ([], [], [], [])
            assert store.incoming_entry("0xa") == ([], [], [], [])

    def test_entry_lists_are_the_callers_own(self) -> None:
        dataset = make_dataset([], [make_tx("0xa", "0xb", 100)])
        for store in _both_stores(dataset):
            store.incoming_entry("0xb")[3].append(99)
            assert store.incoming_entry("0xb")[3] == [0]

    def test_ordered_by_timestamp_agrees_across_stores(self) -> None:
        dataset = make_dataset(
            [],
            [
                make_tx("0xa", "0xb", day, value_wei=row + 1)
                for row, day in enumerate((300, 100, 300, 200))
            ],
            [
                make_sale_event("gold", "listing", 210, "0xaa"),
                make_sale_event("gold", "sale", 200, "0xaa", taker="0xbb"),
            ],
        )
        obj, col = _both_stores(dataset)
        for kind in ("transactions", "market_events"):
            assert obj.ordered_by_timestamp(kind) == col.ordered_by_timestamp(kind)
        assert obj.ordered_by_timestamp("transactions") == (
            [1, 3, 0, 2],
            [100 * DAY, 200 * DAY, 300 * DAY, 300 * DAY],
        )
        for store in (obj, col):
            with pytest.raises(ValueError):
                store.ordered_by_timestamp("domains")

    def test_duplicate_hashes_dropped_on_add(self) -> None:
        tx = make_tx("0xa", "0xb", 100)
        dataset = ENSDataset()
        dataset.add_transactions([tx])
        dataset.add_transactions([tx])
        assert dataset.transaction_count == 1

    def test_dedup_across_many_batches(self) -> None:
        # dedup state persists batch-to-batch (no per-call set rebuild)
        dataset = ENSDataset()
        for batch in range(5):
            dataset.add_transactions(
                [
                    make_tx("0xa", "0xb", day)
                    for day in range(100, 100 + 2 * (batch + 1))
                ]
            )
        assert dataset.transaction_count == 10
        assert [tx.timestamp for tx in dataset.transactions] == sorted(
            set(tx.timestamp for tx in dataset.transactions)
        )

    def test_dedup_survives_direct_list_replacement(self) -> None:
        first = make_tx("0xa", "0xb", 100)
        second = make_tx("0xa", "0xb", 200)
        dataset = ENSDataset()
        dataset.add_transactions([first])
        dataset.transactions = [second]  # legacy direct assignment
        dataset.add_transactions([first, second])
        assert dataset.transaction_count == 2

    def test_version_bumped_by_every_mutator(self) -> None:
        dataset = ENSDataset()
        v0 = dataset.version
        dataset.add_domain(make_domain("d", [make_registration("0xr", 100, 465)]))
        dataset.add_transactions([make_tx("0xa", "0xb", 100)])
        dataset.add_market_events([])
        assert dataset.version == v0 + 3

    def test_index_rebuilt_after_append(self) -> None:
        dataset = make_dataset([], [make_tx("0xa", "0xb", 200)])
        assert read_incoming(dataset, "0xb") == scan_incoming(dataset, "0xb")
        dataset.add_transactions(
            [make_tx("0xc", "0xb", 100), make_tx("0xd", "0xb", 200)]
        )
        _, _, senders, rows = dataset.incoming_entry("0xb")
        assert senders == ["0xc", "0xa", "0xd"]
        assert rows == [1, 0, 2]
        assert read_incoming(dataset, "0xb") == scan_incoming(dataset, "0xb")

    def test_wallet_addresses_cover_registrants_and_resolved(self) -> None:
        domain = make_domain("d", [make_registration("0xreg", 100, 465)])
        domain.resolved_address = "0xwallet"
        dataset = make_dataset([domain])
        assert dataset.wallet_addresses() == {"0xreg", "0xwallet"}


_BATCHES = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),  # hash: repeats dedup
            st.sampled_from(["0xa", "0xb", "0xc"]),  # recipient
            st.integers(min_value=1, max_value=6),  # day: many equal stamps
            st.booleans(),  # is_error
        ),
        max_size=12,
    ),
    min_size=1,
    max_size=6,
)


class TestIncomingAcrossAppends:
    @given(_BATCHES)
    @settings(max_examples=60, deadline=None)
    def test_kept_index_equals_a_regroup(self, batches) -> None:
        """A built index kept across appends reads as a fresh
        ``group_incoming`` over the whole log."""
        dataset = ENSDataset()
        dataset.incoming_entry("0xa")  # build the index before appending
        for batch in batches:
            dataset.add_transactions(
                make_tx("0xs", to, day, value_wei=n, tx_hash=f"0x{n}", is_error=error)
                for n, to, day, error in batch
            )
            regrouped = make_dataset([], list(dataset.transactions))
            for address in ("0xa", "0xb", "0xc"):
                assert dataset.incoming_entry(address) == regrouped.incoming_entry(
                    address
                )

    def test_resync_drops_the_index(self) -> None:
        dataset = make_dataset([], [make_tx("0xa", "0xb", 200)])
        dataset.incoming_entry("0xb")
        dataset.transactions.append(make_tx("0xc", "0xb", 100))  # unlogged
        dataset.add_transactions([make_tx("0xd", "0xb", 150)])
        assert read_incoming(dataset, "0xb") == scan_incoming(dataset, "0xb")

    def test_refresh_groups_no_more_than_the_delta(self, monkeypatch) -> None:
        """Serving a delta regroups at most that delta's rows, not the log."""
        grouped: list[int] = []

        def counted(recipients, stamps, errors):
            grouped.append(len(recipients))
            return group_incoming(recipients, stamps, errors)

        monkeypatch.setattr(dataset_module, "group_incoming", counted)
        stream = stream_scenario(ScenarioConfig(n_domains=50, seed=4), batches=4)
        dataset = stream.empty_dataset()
        dataset.apply_delta(stream.deltas[0])
        builder = IncrementalReportBuilder(dataset, stream.oracle, seed=0)
        builder.refresh()
        assert grouped, "the report read no incoming history"
        for delta in stream.deltas[1:]:
            grouped.clear()
            dataset.apply_delta(delta)
            builder.refresh()
            assert sum(grouped) <= len(delta.transactions)


class TestNameIndex:
    def test_lookup_without_scan(self) -> None:
        dataset = make_dataset(
            [make_domain("a", [make_registration("0xr", 100, 465)])]
        )
        assert dataset.domain_by_name("a.eth").label_name == "a"
        assert dataset.domain_by_name("missing.eth") is None

    def test_index_kept_current_by_add_domain(self) -> None:
        dataset = make_dataset(
            [make_domain("a", [make_registration("0xr", 100, 465)])]
        )
        dataset.domain_by_name("a.eth")  # build the index
        dataset.add_domain(
            make_domain("b", [make_registration("0xs", 200, 565)])
        )
        assert dataset.domain_by_name("b.eth").label_name == "b"

    def test_index_invalidated_by_version_bump(self) -> None:
        dataset = make_dataset(
            [make_domain("a", [make_registration("0xr", 100, 465)])]
        )
        assert dataset.domain_by_name("a.eth") is not None
        replacement = make_domain("b", [make_registration("0xs", 200, 565)])
        dataset.domains = {replacement.domain_id: replacement}
        assert dataset.domain_by_name("a.eth") is None
        assert dataset.domain_by_name("b.eth").label_name == "b"

    def test_replacing_a_domain_rebuilds_the_index(self) -> None:
        original = make_domain("a", [make_registration("0xr", 100, 465)])
        dataset = make_dataset([original])
        dataset.domain_by_name("a.eth")
        renamed = make_domain(
            "renamed",
            [make_registration("0xr", 100, 465)],
            domain_id=original.domain_id,
        )
        dataset.add_domain(renamed)
        assert dataset.domain_by_name("a.eth") is None
        assert dataset.domain_by_name("renamed.eth") is renamed

    def test_duplicate_names_resolve_first_wins(self) -> None:
        first = make_domain(
            "dup", [make_registration("0xr", 100, 465)], domain_id="0xone"
        )
        second = make_domain(
            "dup", [make_registration("0xs", 200, 565)], domain_id="0xtwo"
        )
        dataset = make_dataset([first])
        dataset.domain_by_name("dup.eth")  # warm index, then extend it
        dataset.add_domain(second)
        assert dataset.domain_by_name("dup.eth") is first


def _without_registrations() -> ENSDataset:
    domain = make_domain("d", [make_registration("0xa", 100, 465)])
    domain.registrations = []
    dataset = ENSDataset()
    dataset.add_domain(domain)
    return dataset


def _out_of_order_registrations() -> ENSDataset:
    domain = make_domain("d", [
        make_registration("0xa", 600, 965, ordinal=0),
        make_registration("0xb", 100, 465, ordinal=1),
    ])
    dataset = ENSDataset()
    dataset.add_domain(domain)
    return dataset


def _with_bad_registration(
    *, start: int, end: int, cost: int, base: int, premium: int
) -> ENSDataset:
    bad = RegistrationRecord(
        registration_id="r", registrant="0xa",
        registration_date=start, expiry_date=end,
        cost_wei=cost, base_cost_wei=base, premium_wei=premium,
    )
    domain = make_domain("d", [make_registration("0xa", 100, 465)])
    domain.registrations = [bad]
    dataset = ENSDataset()
    dataset.add_domain(domain)
    return dataset


def _inverted_expiry() -> ENSDataset:
    return _with_bad_registration(start=1000, end=500, cost=0, base=0, premium=0)


def _cost_split_mismatch() -> ENSDataset:
    return _with_bad_registration(start=100, end=500, cost=10, base=3, premium=4)


def _overlapping_label_sets() -> ENSDataset:
    dataset = make_dataset(
        [make_domain("d", [make_registration("0xa", 100, 465)])]
    )
    dataset.coinbase_addresses = {"0xboth"}
    dataset.custodial_addresses = {"0xboth"}
    return dataset


def _duplicate_transactions() -> ENSDataset:
    """Two hashes repeat; the first one seen again is ``0xsecond``."""
    dataset = make_dataset(
        [make_domain("d", [make_registration("0xa", 100, 465)])]
    )
    first = make_tx("0xs", "0xa", 200, tx_hash="0xfirst")
    second = make_tx("0xs", "0xa", 201, tx_hash="0xsecond")
    # add_transactions drops duplicates; replacing the list does not
    dataset.transactions = [first, second, second, first]
    return dataset


#: Every invalid dataset with the message its first failure must carry.
_INVALID = [
    pytest.param(_without_registrations, "no registrations", id="no-registrations"),
    pytest.param(_out_of_order_registrations, "out of order", id="out-of-order"),
    pytest.param(_inverted_expiry, "expires", id="inverted-expiry"),
    pytest.param(_cost_split_mismatch, "cost", id="cost-split"),
    pytest.param(_overlapping_label_sets, "both", id="overlapping-labels"),
    pytest.param(
        _duplicate_transactions,
        "duplicate transaction 0xsecond$",
        id="duplicate-transaction",
    ),
]


class TestValidation:
    def test_valid_dataset_passes(self) -> None:
        dataset = make_dataset(
            [make_domain("d", [make_registration("0xa", 100, 465)])],
            [make_tx("0xs", "0xa", 200)],
        )
        dataset.validate()

    def test_domain_without_registrations_rejected(self) -> None:
        with pytest.raises(DatasetIntegrityError, match="no registrations"):
            _without_registrations().validate()

    def test_out_of_order_registrations_rejected(self) -> None:
        with pytest.raises(DatasetIntegrityError, match="out of order"):
            _out_of_order_registrations().validate()

    def test_inverted_expiry_rejected(self) -> None:
        with pytest.raises(DatasetIntegrityError, match="expires"):
            _inverted_expiry().validate()

    def test_cost_split_mismatch_rejected(self) -> None:
        with pytest.raises(DatasetIntegrityError, match="cost"):
            _cost_split_mismatch().validate()

    def test_overlapping_label_sets_rejected(self) -> None:
        with pytest.raises(DatasetIntegrityError, match="both"):
            _overlapping_label_sets().validate()

    def test_negative_value_rejected(self) -> None:
        dataset = make_dataset(
            [make_domain("d", [make_registration("0xa", 100, 465)])],
            [make_tx("0xs", "0xa", 200, value_wei=-1, tx_hash="0xneg")],
        )
        with pytest.raises(DatasetIntegrityError, match="negative value in 0xneg"):
            dataset.validate()


class TestValidationParity:
    """The columnar store checks the same invariants off its columns and
    fails with the object store's message."""

    @pytest.mark.parametrize("build,message", _INVALID)
    def test_both_stores_raise_the_same_first_failure(self, build, message) -> None:
        dataset = build()
        with pytest.raises(DatasetIntegrityError, match=message) as from_objects:
            dataset.validate()
        columnar = ColumnarDataset.from_dataset(dataset)
        with pytest.raises(DatasetIntegrityError) as from_columns:
            columnar.validate()
        assert str(from_columns.value) == str(from_objects.value)


class TestRecordRoundTrips:
    def test_domain_record(self) -> None:
        domain = make_domain("d", [make_registration("0xa", 100, 465)])
        assert DomainRecord.from_dict(domain.as_dict()).as_dict() == domain.as_dict()

    def test_tx_record(self) -> None:
        tx = make_tx("0xa", "0xb", 100)
        assert TxRecord.from_dict(tx.as_dict()) == tx

    def test_tx_from_api_row(self) -> None:
        tx = TxRecord.from_api_row({
            "hash": "0xh", "blockNumber": "12", "timeStamp": "3400",
            "from": "0xa", "to": "0xb", "value": "999", "isError": "0",
        })
        assert tx.block_number == 12
        assert tx.value_wei == 999
        assert not tx.is_error

    def test_market_event_round_trip(self) -> None:
        event = MarketEventRecord(
            token_id="0xt", event_type="sale", timestamp=5,
            maker="0xm", taker=None, price_wei=7,
        )
        assert MarketEventRecord.from_dict(event.as_dict()) == event

    def test_unique_registrants_order(self) -> None:
        domain = make_domain("d", [
            make_registration("0xa", 100, 465, ordinal=0),
            make_registration("0xb", 600, 965, ordinal=1),
            make_registration("0xa", 1100, 1465, ordinal=2),
        ])
        assert domain.unique_registrants == ["0xa", "0xb"]
