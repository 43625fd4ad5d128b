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
    context: AnalysisContext | None = None,
) -> TransactionalFeatures:
    """Income profile of ``registration``'s wallet during its tenure,
    from registration to expiry (both inclusive).

    Callers that extract features for many registrations should pass
    the shared ``context`` so repeated wallets hit the cached
    per-address index.
    """
    access = context if context is not None else AnalysisContext(dataset, oracle)
    window = access.incoming_window(
        registration.registrant,
        registration.registration_date,
        registration.expiry_date,
    )
    # A left-to-right loop, not sum(): from Python 3.12 sum() of floats
    # is compensated, which would move the report bytes across versions.
    income = 0.0
    for value, stamp in zip(window.values, window.stamps):
        income += oracle.wei_to_usd(value, stamp)
    return TransactionalFeatures(
        income_usd=income,
        num_unique_senders=len(set(window.senders)),
        num_transactions=len(window),
    )
