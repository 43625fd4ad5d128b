"""Agent and plan records used by the scenario engine.

These are data carriers — the behavioural logic (when an agent acts,
with what probability) lives in :mod:`repro.simulation.scenario` so the
whole decision flow reads top-to-bottom in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.types import Address
from .names import GeneratedName

__all__ = [
    "SenderProfile",
    "DomainScript",
    "DropcatcherAgent",
    "TrueCatch",
    "GroundTruth",
    "SENDER_RETAIL",
    "SENDER_COINBASE",
    "SENDER_CUSTODIAL",
]

SENDER_RETAIL = "retail"
SENDER_COINBASE = "coinbase"
SENDER_CUSTODIAL = "custodial"  # non-Coinbase exchange


@dataclass(slots=True)
class SenderProfile:
    """One paying counterparty of a domain."""

    address: Address
    kind: str                    # retail / coinbase / custodial
    uses_ens: bool               # resolves the name vs pasting the address
    schedule_days: list[int]     # absolute day numbers of planned payments
    amounts_usd: list[float]     # one amount per scheduled payment


@dataclass(slots=True)
class DomainScript:
    """Everything pre-planned about one domain's life."""

    index: int
    name: GeneratedName
    owner: Address
    registration_day: int        # absolute day number
    duration_days: int
    is_migrated: bool
    wealth: float                # scales payment amounts
    senders: list[SenderProfile] = field(default_factory=list)

    # filled in while the scenario runs
    income_usd: float = 0.0      # received while the original owner held it
    expired: bool = False
    caught: bool = False


@dataclass(slots=True)
class DropcatcherAgent:
    """A speculator re-registering expired names."""

    address: Address
    is_whale: bool
    weight: float                # selection weight (whales dominate)
    catch_count: int = 0
    spent_wei: int = 0


@dataclass(frozen=True, slots=True)
class TrueCatch:
    """Ground truth for one dropcatch (for detector validation)."""

    label: str
    previous_owner: str
    new_owner: str
    expiry_timestamp: int
    catch_timestamp: int
    cost_wei: int
    premium_wei: int
    paid_premium: bool


@dataclass(slots=True)
class GroundTruth:
    """What actually happened, independent of any crawler/detector."""

    catches: list[TrueCatch] = field(default_factory=list)
    owner_recoveries: list[str] = field(default_factory=list)  # labels
    misdirected_tx_hashes: set[str] = field(default_factory=set)
    hijackable_tx_hashes: set[str] = field(default_factory=set)
    expired_labels: list[str] = field(default_factory=list)
    listed_labels: list[str] = field(default_factory=list)
    sold_labels: list[str] = field(default_factory=list)
