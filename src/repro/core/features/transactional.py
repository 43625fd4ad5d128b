"""Transactional features of a domain's previous owner (Table 1).

For a registration period ``[registration_date, expiry_date]`` held by
wallet ``a``, the paper measures the traffic *into* ``a`` during that
window: total USD income (converted per-transaction at that day's
close), distinct senders, and transaction count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...datasets.dataset import ENSDataset
from ...datasets.schema import RegistrationRecord
from ...oracle.ethusd import EthUsdOracle
from ..context import AnalysisContext

__all__ = ["extract_transactional"]


@dataclass(frozen=True, slots=True)
class TransactionalFeatures:
    """The transactional columns of Table 1 for one registration period."""

    income_usd: float
    num_unique_senders: int
    num_transactions: int


def extract_transactional(
    dataset: ENSDataset,
    registration: RegistrationRecord,
    oracle: EthUsdOracle,
    window_end: int | None = None,
    context: AnalysisContext | None = None,
) -> TransactionalFeatures:
    """Income profile of ``registration``'s wallet during its tenure.

    ``window_end`` defaults to the registration's expiry; pass a later
    timestamp to include the residual-resolution window. Callers that
    extract features for many registrations should pass the shared
    ``context`` so repeated wallets hit the cached per-address index.
    """
    wallet = registration.registrant
    start = registration.registration_date
    end = window_end if window_end is not None else registration.expiry_date
    access = context if context is not None else AnalysisContext(dataset, oracle)
    income = 0.0
    senders: set[str] = set()
    count = 0
    for tx in access.incoming_window(wallet, start, end):
        income += oracle.wei_to_usd(tx.value_wei, tx.timestamp)
        senders.add(tx.from_address)
        count += 1
    return TransactionalFeatures(
        income_usd=income,
        num_unique_senders=len(senders),
        num_transactions=count,
    )
