"""Incremental report builder: byte-identity with cold rebuilds.

The contract under test is absolute: after *any* sequence of appends
routed through :meth:`ENSDataset.apply_delta`, a warm
:meth:`IncrementalReportBuilder.refresh` must return a report whose
canonical JSON is byte-identical to ``build_report`` run cold over an
equivalently constructed dataset. The hypothesis property drives random
interleavings of domain upserts, transaction batches, market events,
and refresh points; the unit tests pin the memo-correctness hazards
found while building it (stale rows for items that left and re-entered
the comparison groups, out-of-band mutations, dataset identity).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IncrementalReportBuilder, build_report
from repro.core.report import report_json
from repro.datasets import ENSDataset
from repro.datasets.delta import DatasetDelta
from repro.obs import Tracer
from repro.oracle import EthUsdOracle

from .helpers import (
    DAY,
    make_dataset,
    make_domain,
    make_registration,
    make_sale_event,
    make_tx,
)

_ADDRESSES = tuple(f"0x{c}" for c in "abcdef")
_LABELS = ("gold", "silver", "bronze", "copper", "iron", "lead", "zinc")
_CRAWL_DAY = 2_000


def _registration(data: tuple[int, int, int, int], ordinal: int):
    address_i, start, length, premium_eth = data
    return make_registration(
        _ADDRESSES[address_i],
        start,
        start + length,
        ordinal=ordinal,
        premium=premium_eth * 10**17,
    )


# One domain op: a label index plus 1-2 registration tuples. Re-using a
# label later in the sequence upserts the domain with an extended
# history (registrations stay append-only and chronological because
# starts are drawn increasing per op index; see _apply_domain_op).
_registration_data = st.tuples(
    st.integers(0, len(_ADDRESSES) - 1),  # registrant
    st.integers(1, 1_500),  # start day
    st.integers(30, 400),  # duration days
    st.integers(0, 3),  # premium (0.1 ETH units)
)

_tx_data = st.tuples(
    st.integers(0, len(_ADDRESSES) - 1),  # sender
    st.integers(0, len(_ADDRESSES) - 1),  # receiver
    st.integers(1, _CRAWL_DAY),  # day
    st.integers(0, 5),  # value (0.5 ETH units)
)

_event_data = st.tuples(
    st.integers(0, len(_LABELS) - 1),
    st.sampled_from(("listing", "sale")),
    st.integers(1, _CRAWL_DAY),
    st.integers(0, len(_ADDRESSES) - 1),
)

_step = st.tuples(
    st.lists(
        st.tuples(
            st.integers(0, len(_LABELS) - 1),
            st.lists(_registration_data, min_size=1, max_size=2),
        ),
        max_size=2,
    ),
    st.lists(_tx_data, max_size=4),
    st.lists(_event_data, max_size=2),
    st.booleans(),  # refresh after this step?
)


def _build_step_delta(
    step, histories: dict[str, list], tx_serial: int
) -> tuple[DatasetDelta, int]:
    """Materialize one generated step into a valid DatasetDelta.

    ``histories`` accumulates each label's registration list so an
    upsert always *extends* the previous record (the append-only
    contract of :meth:`ENSDataset.apply_delta`); new registrations are
    shifted past the last known expiry to keep histories chronological.
    """
    domain_ops, tx_ops, event_ops, _ = step
    domains = []
    for label_i, registrations in domain_ops:
        label = _LABELS[label_i]
        history = histories.setdefault(label, [])
        for data in registrations:
            previous_end = (
                history[-1].expiry_date // DAY if history else 0
            )
            address_i, start, length, premium = data
            start = previous_end + 1 + start
            history.append(
                _registration(
                    (address_i, start, length, premium), len(history)
                )
            )
        domains.append(make_domain(label, list(history)))
    txs = []
    for sender_i, receiver_i, day, value in tx_ops:
        tx_serial += 1
        txs.append(
            make_tx(
                _ADDRESSES[sender_i],
                _ADDRESSES[receiver_i],
                day,
                value_wei=value * 5 * 10**17,
                tx_hash=f"0xhyp-{tx_serial}",
            )
        )
    events = [
        make_sale_event(_LABELS[label_i], kind, day, _ADDRESSES[maker_i])
        for label_i, kind, day, maker_i in event_ops
    ]
    return (
        DatasetDelta(
            domains=tuple(domains),
            transactions=tuple(txs),
            market_events=tuple(events),
        ),
        tx_serial,
    )


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=6))
def test_any_interleaving_matches_cold_rebuild(steps) -> None:
    """The property: incremental == cold at every refresh point."""
    oracle = EthUsdOracle()
    live = ENSDataset(crawl_timestamp=_CRAWL_DAY * DAY)
    builder = IncrementalReportBuilder(live, oracle, seed=0)
    builder.refresh()
    histories: dict[str, list] = {}
    tx_serial = 0
    applied: list[DatasetDelta] = []
    for step in steps:
        delta, tx_serial = _build_step_delta(step, histories, tx_serial)
        live.apply_delta(delta)
        applied.append(delta)
        if not step[3]:
            continue
        incremental = report_json(builder.refresh())
        cold_dataset = ENSDataset(crawl_timestamp=_CRAWL_DAY * DAY)
        for replay in applied:
            cold_dataset.apply_delta(replay)
        cold = report_json(build_report(cold_dataset, oracle, seed=0))
        assert incremental == cold
    # final state always compared, even when no step asked for a refresh
    incremental = report_json(builder.refresh())
    cold_dataset = ENSDataset(crawl_timestamp=_CRAWL_DAY * DAY)
    for replay in applied:
        cold_dataset.apply_delta(replay)
    assert incremental == report_json(build_report(cold_dataset, oracle, seed=0))


class TestBuilderSemantics:
    def _dataset(self) -> ENSDataset:
        return make_dataset(
            [
                make_domain(
                    "gold",
                    [
                        make_registration("0xa", 10, 400),
                        make_registration("0xb", 500, 900, ordinal=1),
                    ],
                ),
                make_domain("silver", [make_registration("0xc", 20, 500)]),
            ],
            [make_tx("0xd", "0xb", 510)],
        )

    def test_noop_refresh_returns_same_report_object(self) -> None:
        dataset = self._dataset()
        builder = IncrementalReportBuilder(dataset, EthUsdOracle(), seed=0)
        first = builder.refresh()
        assert builder.refresh() is first

    def test_cold_and_delta_refreshes_trace_every_pass(self) -> None:
        dataset = self._dataset()
        tracer = Tracer()
        builder = IncrementalReportBuilder(
            dataset, EthUsdOracle(), seed=0, tracer=tracer
        )
        builder.refresh()
        dataset.apply_delta(
            DatasetDelta(transactions=(make_tx("0xe", "0xb", 511),))
        )
        builder.refresh()
        cold, delta = tracer.roots
        assert cold.name == "analyze"
        assert delta.name == "delta.apply"
        assert delta.attributes["mode"] == "incremental"
        passes = ["analyze.reregistrations"] + [
            f"analyze.{name}"
            for name in (
                "summary", "timing", "actors", "comparison", "resale",
                "losses", "hijackable", "profit", "typosquat",
            )
        ]
        for root in (cold, delta):
            assert [child.name for child in root.children] == passes

    def test_out_of_band_mutation_falls_back_to_full_rebuild(self) -> None:
        dataset = self._dataset()
        oracle = EthUsdOracle()
        builder = IncrementalReportBuilder(dataset, oracle, seed=0)
        builder.refresh()
        dataset.add_transactions([make_tx("0xe", "0xb", 511)])  # unlogged
        refreshed = report_json(builder.refresh())
        cold_dataset = self._dataset()
        cold_dataset.add_transactions([make_tx("0xe", "0xb", 511)])
        assert refreshed == report_json(
            build_report(cold_dataset, oracle, seed=0)
        )
