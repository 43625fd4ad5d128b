"""The conservative misdirected-funds detector (§4.4).

For every dropcatch (domain ``d``: ``a1`` lost it, ``a2`` caught it),
a *common sender* ``c`` evidences misdirection when:

1. ``c`` sent funds to ``a1`` while ``a1`` held ``d`` (at least one
   payment within the actual ownership window);
2. every ``c → a1`` payment precedes the first ``c → a2`` payment, and
   none follow it ("never again to a1" — residual-window payments to
   ``a1`` are allowed, matching the paper's profittrailer example);
3. ``c`` only ever paid ``a2`` while ``a2`` held ``d`` (no prior
   relationship with the catcher);
4. ``c`` is not ``a1``/``a2`` and passes the custodial filter:
   non-Coinbase exchange addresses are always excluded (many users
   share them), Coinbase addresses are included only in the
   ``include_coinbase`` variant.

The output is per-(domain, c) loss records plus the §4.4 aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datasets.dataset import ENSDataset
from ..datasets.schema import TxRecord
from ..oracle.ethusd import EthUsdOracle
from .context import AnalysisContext
from .dropcatch import ReRegistration

__all__ = [
    "MisdirectedFlow",
    "LossReport",
    "detect_losses",
    "event_flows",
    "loss_report",
]


@dataclass(frozen=True, slots=True)
class MisdirectedFlow:
    """One common-sender misdirection: c's payments to a2 via domain d."""

    domain_id: str
    name: str | None
    previous_owner: str            # a1
    new_owner: str                 # a2
    sender: str                    # c
    sender_is_coinbase: bool
    txs_to_previous: int           # c → a1 payments (all windows)
    txs_to_new: tuple[TxRecord, ...]  # c → a2 payments while a2 held d

    @property
    def tx_count(self) -> int:
        """Number of misdirected transactions in this flow."""
        return len(self.txs_to_new)

    def usd_total(self, oracle: EthUsdOracle) -> float:
        """USD value of the flow's transactions at send-time rates."""
        return sum(
            oracle.wei_to_usd(tx.value_wei, tx.timestamp) for tx in self.txs_to_new
        )


@dataclass
class LossReport:
    """Aggregated §4.4 numbers for one detector run."""

    flows: list[MisdirectedFlow]
    oracle: EthUsdOracle
    include_coinbase: bool

    _usd_cache: list[float] | None = field(default=None, repr=False)

    @property
    def affected_domains(self) -> int:
        """Number of distinct domains with misdirected flows."""
        return len({flow.domain_id for flow in self.flows})

    @property
    def misdirected_tx_count(self) -> int:
        """Total misdirected transactions across flows."""
        return sum(flow.tx_count for flow in self.flows)

    @property
    def unique_senders(self) -> int:
        """Number of distinct senders across flows."""
        return len({flow.sender for flow in self.flows})

    def usd_amounts(self) -> list[float]:
        """Per-transaction misdirected USD values (Figure 8's series)."""
        if self._usd_cache is None:
            self._usd_cache = [
                self.oracle.wei_to_usd(tx.value_wei, tx.timestamp)
                for flow in self.flows
                for tx in flow.txs_to_new
            ]
        return self._usd_cache

    @property
    def average_usd_per_tx(self) -> float:
        """Mean USD per misdirected transaction (0 when empty)."""
        amounts = self.usd_amounts()
        return sum(amounts) / len(amounts) if amounts else 0.0

    @property
    def total_usd(self) -> float:
        """Total USD misdirected across all flows."""
        return sum(self.usd_amounts())

    def scatter_points(self) -> list[tuple[int, int, bool]]:
        """(txs c→a1, txs c→a2, is_coinbase) triples — Figures 9/11."""
        return [
            (flow.txs_to_previous, flow.tx_count, flow.sender_is_coinbase)
            for flow in self.flows
        ]


def detect_losses(
    dataset: ENSDataset,
    oracle: EthUsdOracle,
    include_coinbase: bool = True,
    events: list[ReRegistration] | None = None,
    require_prior_relationship: bool = True,
    enforce_never_again: bool = True,
    context: AnalysisContext | None = None,
) -> LossReport:
    """Run the conservative detector over every dropcatch.

    ``require_prior_relationship`` and ``enforce_never_again`` relax
    individual predicates for the ablation benchmarks; both default to
    the paper's strict behaviour.

    ``context`` is the shared analysis index (any object implementing
    its query protocol, e.g. :class:`~repro.core.context.ScanAccess`);
    one is built on the fly when omitted. The payment lists it serves
    are timestamp-sorted, which lets the window predicates read the
    endpoints instead of scanning: condition 3 holds iff the first and
    last ``c → a2`` payments sit inside the holding window, and "never
    again to a1" holds iff the last ``c → a1`` payment precedes the
    first ``c → a2`` one.
    """
    access = context if context is not None else AnalysisContext(dataset, oracle)
    if events is None:
        events = access.reregistrations()
    cutoff = dataset.crawl_timestamp or None
    flows: list[MisdirectedFlow] = []
    for event in events:
        flows.extend(
            event_flows(
                event,
                dataset,
                access,
                cutoff=cutoff,
                require_prior_relationship=require_prior_relationship,
                enforce_never_again=enforce_never_again,
            )
        )
    return loss_report(flows, oracle, include_coinbase=include_coinbase)


def loss_report(
    flows: list[MisdirectedFlow], oracle: EthUsdOracle, *, include_coinbase: bool
) -> LossReport:
    """One variant's report from the Coinbase-inclusive ``flows``.

    The detector treats a Coinbase sender like any other except for
    this variant filter, so the non-custodial flows are exactly the
    flows whose sender is not a Coinbase address.
    """
    if not include_coinbase:
        flows = [flow for flow in flows if not flow.sender_is_coinbase]
    return LossReport(flows=flows, oracle=oracle, include_coinbase=include_coinbase)


def event_flows(
    event: ReRegistration,
    dataset: ENSDataset,
    access: AnalysisContext,
    *,
    cutoff: int | None,
    require_prior_relationship: bool = True,
    enforce_never_again: bool = True,
) -> list[MisdirectedFlow]:
    """The misdirected flows of one dropcatch event, in sender order,
    Coinbase senders included (:func:`loss_report` drops them for the
    non-custodial variant).

    The per-event unit of :func:`detect_losses`: its result depends
    only on the event itself, the custodial label sets, and the
    *incoming* histories of ``previous_owner``/``new_owner`` — the
    dependency set incremental rebuilds key their memo on.
    """
    a1, a2 = event.previous_owner, event.new_owner
    if a1 == a2:
        return []
    hold_start = event.next.registration_date
    hold_end = event.next.expiry_date
    if cutoff is not None:
        hold_end = min(hold_end, cutoff)
    flows: list[MisdirectedFlow] = []
    # Only senders that paid both a1 and a2 can be common senders, so
    # neither history is scanned per event: condition 3 below rejects a
    # sender whose payments to a2 fall outside a2's holding window.
    for candidate in sorted(access.payers(a1) & access.payers(a2)):
        if candidate in (a1, a2):
            continue
        if candidate in dataset.custodial_addresses:
            continue  # non-Coinbase custodial: always filtered
        # The conditions read timestamps only; a record is built only
        # for a flow that is kept.
        c_to_a2 = access.payments(candidate, a2)
        first_to_a2 = c_to_a2.stamps[0]
        # condition 3: no payments to a2 outside its holding window
        if first_to_a2 < hold_start or c_to_a2.stamps[-1] > hold_end:
            continue
        to_a1 = access.payments(candidate, a1).stamps
        # condition 1: a payment during a1's actual ownership
        if require_prior_relationship and not any(
            event.previous.registration_date
            <= stamp
            <= event.previous.expiry_date
            for stamp in to_a1
        ):
            continue
        # condition 2: never again to a1
        if enforce_never_again and to_a1[-1] >= first_to_a2:
            continue
        flows.append(
            MisdirectedFlow(
                domain_id=event.domain_id,
                name=event.name,
                previous_owner=a1,
                new_owner=a2,
                sender=candidate,
                sender_is_coinbase=candidate in dataset.coinbase_addresses,
                txs_to_previous=len(to_a1),
                txs_to_new=tuple(c_to_a2.txs()),
            )
        )
    return flows
