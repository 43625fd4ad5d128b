"""Record types of the assembled study dataset.

These are the crawler's *output* shapes — plain, serializable records
decoupled from live chain/subgraph objects, in the spirit of the
JSON/CSV dumps the paper released. All analysis code consumes these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "RegistrationRecord",
    "DomainRecord",
    "TxRecord",
    "MarketEventRecord",
    "ResolutionRecord",
]


@dataclass(frozen=True, slots=True)
class RegistrationRecord:
    """One registration period of a domain."""

    registration_id: str
    registrant: str
    registration_date: int
    expiry_date: int
    cost_wei: int
    base_cost_wei: int
    premium_wei: int

    def as_dict(self) -> dict[str, Any]:
        """JSONL-ready mapping (subgraph-style camelCase keys)."""
        return {
            "registrationId": self.registration_id,
            "registrant": self.registrant,
            "registrationDate": self.registration_date,
            "expiryDate": self.expiry_date,
            "costWei": self.cost_wei,
            "baseCostWei": self.base_cost_wei,
            "premiumWei": self.premium_wei,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RegistrationRecord":
        """Rebuild from an ``as_dict`` mapping."""
        return cls(
            registration_id=data["registrationId"],
            registrant=data["registrant"],
            registration_date=data["registrationDate"],
            expiry_date=data["expiryDate"],
            cost_wei=data["costWei"],
            base_cost_wei=data["baseCostWei"],
            premium_wei=data["premiumWei"],
        )


@dataclass(slots=True)
class DomainRecord:
    """A crawled ENS domain with its full registration history."""

    domain_id: str               # namehash hex
    name: str | None             # None when the subgraph never saw the label
    label_name: str | None
    labelhash: str
    created_at: int
    owner: str
    resolved_address: str | None
    subdomain_count: int
    registrations: list[RegistrationRecord] = field(default_factory=list)

    @property
    def unique_registrants(self) -> list[str]:
        """Distinct registrants in chronological order of first appearance."""
        seen: list[str] = []
        for registration in self.registrations:
            if registration.registrant not in seen:
                seen.append(registration.registrant)
        return seen

    def as_dict(self) -> dict[str, Any]:
        """JSONL-ready mapping (subgraph-style camelCase keys)."""
        return {
            "domainId": self.domain_id,
            "name": self.name,
            "labelName": self.label_name,
            "labelhash": self.labelhash,
            "createdAt": self.created_at,
            "owner": self.owner,
            "resolvedAddress": self.resolved_address,
            "subdomainCount": self.subdomain_count,
            "registrations": [r.as_dict() for r in self.registrations],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DomainRecord":
        """Rebuild from an ``as_dict`` mapping."""
        return cls(
            domain_id=data["domainId"],
            name=data["name"],
            label_name=data["labelName"],
            labelhash=data["labelhash"],
            created_at=data["createdAt"],
            owner=data["owner"],
            resolved_address=data["resolvedAddress"],
            subdomain_count=data["subdomainCount"],
            registrations=[
                RegistrationRecord.from_dict(r) for r in data["registrations"]
            ],
        )


@dataclass(frozen=True, slots=True)
class TxRecord:
    """One crawled Ethereum transaction."""

    tx_hash: str
    block_number: int
    timestamp: int
    from_address: str
    to_address: str
    value_wei: int
    is_error: bool

    def as_dict(self) -> dict[str, Any]:
        """JSONL-ready mapping (Etherscan-style keys)."""
        return {
            "hash": self.tx_hash,
            "blockNumber": self.block_number,
            "timestamp": self.timestamp,
            "from": self.from_address,
            "to": self.to_address,
            "valueWei": self.value_wei,
            "isError": self.is_error,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TxRecord":
        """Rebuild from an ``as_dict`` mapping."""
        return cls(
            tx_hash=data["hash"],
            block_number=data["blockNumber"],
            timestamp=data["timestamp"],
            from_address=data["from"],
            to_address=data["to"],
            value_wei=data["valueWei"],
            is_error=data["isError"],
        )

    @classmethod
    def from_api_row(
        cls, row: dict[str, object], strings: dict[str, str] | None = None
    ) -> "TxRecord":
        """Parse an Etherscan txlist row (stringly typed).

        With a ``strings`` table, each ``from``/``to`` text is replaced
        by the table's equal string (added when missing), so the records
        of one crawl hold one string per address.
        """
        sender, recipient = str(row["from"]), str(row["to"])
        if strings is not None:
            sender = strings.setdefault(sender, sender)
            recipient = strings.setdefault(recipient, recipient)
        return cls(
            tx_hash=str(row["hash"]),
            block_number=int(str(row["blockNumber"])),
            timestamp=int(str(row["timeStamp"])),
            from_address=sender,
            to_address=recipient,
            value_wei=int(str(row["value"])),
            is_error=str(row["isError"]) == "1",
        )


@dataclass(frozen=True, slots=True)
class MarketEventRecord:
    """One crawled marketplace event."""

    token_id: str
    event_type: str
    timestamp: int
    maker: str
    taker: str | None
    price_wei: int

    def as_dict(self) -> dict[str, Any]:
        """JSONL-ready mapping (OpenSea-style keys)."""
        return {
            "tokenId": self.token_id,
            "eventType": self.event_type,
            "timestamp": self.timestamp,
            "maker": self.maker,
            "taker": self.taker,
            "priceWei": self.price_wei,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MarketEventRecord":
        """Rebuild from an ``as_dict`` mapping."""
        return cls(
            token_id=data["tokenId"],
            event_type=data["eventType"],
            timestamp=data["timestamp"],
            maker=data["maker"],
            taker=data["taker"],
            price_wei=data["priceWei"],
        )

    @classmethod
    def from_api_row(cls, row: dict[str, object]) -> "MarketEventRecord":
        """Build from a raw OpenSea API event row."""
        taker = row.get("taker")
        return cls(
            token_id=str(row["tokenId"]),
            event_type=str(row["eventType"]),
            timestamp=int(str(row["timestamp"])),
            maker=str(row["maker"]),
            taker=str(taker) if taker is not None else None,
            price_wei=int(str(row["priceWei"])),
        )


@dataclass(frozen=True, slots=True)
class ResolutionRecord:
    """One wallet-side ENS resolution that preceded a payment.

    This is the *vendor log* the paper could not obtain (§6: wallet
    providers declined to share resolution data). The simulation emits
    it for every ENS-routed payment, enabling the authoritative loss
    quantification the paper names as future work — and measuring how
    conservative the on-chain-only heuristic really is.
    """

    name: str                    # the ENS name the sender typed
    sender: str                  # who initiated the payment
    resolved_to: str             # the address the wallet resolved
    timestamp: int
    tx_hash: str                 # the resulting on-chain transaction

    def as_dict(self) -> dict[str, Any]:
        """JSONL-ready mapping of this resolution."""
        return {
            "name": self.name,
            "sender": self.sender,
            "resolvedTo": self.resolved_to,
            "timestamp": self.timestamp,
            "txHash": self.tx_hash,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ResolutionRecord":
        """Rebuild from an ``as_dict`` mapping."""
        return cls(
            name=data["name"],
            sender=data["sender"],
            resolved_to=data["resolvedTo"],
            timestamp=data["timestamp"],
            tx_hash=data["txHash"],
        )
