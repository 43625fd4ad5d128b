"""Digital-wallet resolution behaviour (Appendix B / Table 2).

Models the send-flow of the seven ENS-supporting wallets the paper
tested. Every one of them resolves a name by querying the registry and
resolver — and none of them consults the registrar's expiry before
showing the user a destination address. :class:`WalletProfile` captures
that behaviour; :func:`survey_wallets` reproduces Table 2 against a
live deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.types import Address
from ..ens.deployment import ENSDeployment
from ..ens.namehash import labelhash
from ..ens.normalize import registrable_label
from ..ens.premium import GRACE_PERIOD_DAYS

__all__ = ["WalletProfile", "STOCK_WALLETS", "survey_wallets"]

_GRACE_SECONDS = GRACE_PERIOD_DAYS * 86_400


@dataclass(frozen=True, slots=True)
class ResolutionOutcome:
    """What a wallet shows the user before they hit send."""

    wallet: str
    name: str
    resolved_address: Address | None
    name_is_expired: bool
    name_recently_reregistered: bool
    warning_shown: bool

    @property
    def would_send_blind(self) -> bool:
        """User gets an address for a risky name with no warning."""
        return (
            self.resolved_address is not None
            and (self.name_is_expired or self.name_recently_reregistered)
            and not self.warning_shown
        )


@dataclass(frozen=True, slots=True)
class WalletProfile:
    """One wallet's ENS behaviour."""

    name: str
    version: str
    custodial: bool
    # stock wallets resolve blindly; the countermeasure flips these
    checks_expiry: bool = False
    checks_recent_reregistration: bool = False
    reregistration_warning_window_days: int = 90

    def resolve(self, ens: ENSDeployment, ens_name: str) -> ResolutionOutcome:
        """Run this wallet's send-flow resolution for ``ens_name``."""
        resolved = ens.resolve(ens_name)
        label = registrable_label(ens_name)
        expires = ens.chain.view(
            ens.base.address, "name_expires", label_hash=labelhash(label)
        )
        now = ens.chain.now
        is_expired = expires != 0 and now > expires
        recently_reregistered = False
        if expires != 0 and not is_expired:
            # registered now — was it caught recently? The registrar's
            # current expiry minus its registration length approximates the
            # registration date; wallets can read the registration event.
            events = ens.chain.logs_of(ens.controller.address, "NameRegistered")
            for log in reversed(events):
                if log.param("label") == label:
                    window = self.reregistration_warning_window_days * 86_400
                    recently_reregistered = now - log.timestamp <= window and (
                        log.param("premium") > 0
                        or self._had_previous_owner(ens, label, log.timestamp)
                    )
                    break
        warning = (self.checks_expiry and is_expired) or (
            self.checks_recent_reregistration and recently_reregistered
        )
        return ResolutionOutcome(
            wallet=f"{self.name} {self.version}",
            name=ens_name,
            resolved_address=resolved,
            name_is_expired=is_expired,
            name_recently_reregistered=recently_reregistered,
            warning_shown=warning,
        )

    @staticmethod
    def _had_previous_owner(ens: ENSDeployment, label: str, before: int) -> bool:
        events = ens.chain.logs_of(ens.controller.address, "NameRegistered")
        return any(
            log.param("label") == label and log.timestamp < before
            for log in events
        )

    def display_name(self, ens: ENSDeployment, address: Address) -> str:
        """What the wallet shows for a counterparty address.

        Uses forward-verified reverse resolution (like every real
        wallet): the claimed name only when it resolves back, otherwise
        the abbreviated hex address. After a dropcatch the old owner's
        display name silently reverts to hex — the one UI-visible trace
        of the ownership change.
        """
        verified = ens.primary_name(address)
        if verified is not None:
            return verified
        hex_form = address.hex
        return f"{hex_form[:6]}…{hex_form[-4:]}"


# The seven wallets of Table 2, as-shipped: no expiry checks anywhere.
STOCK_WALLETS: tuple[WalletProfile, ...] = (
    WalletProfile("Metamask", "11.13.1", custodial=False),
    WalletProfile("Coinbase", "05/2024", custodial=True),
    WalletProfile("Trust Wallet", "2.9.2", custodial=False),
    WalletProfile("Bitcoin.com", "8.22.1", custodial=False),
    WalletProfile("Alpha Wallet", "3.72", custodial=False),
    WalletProfile("Atomic Wallet", "1.29.5", custodial=False),
    WalletProfile("Rainbow Wallet", "1.4.81", custodial=False),
)


def survey_wallets(
    ens: ENSDeployment,
    ens_name: str,
    wallets: tuple[WalletProfile, ...] = STOCK_WALLETS,
) -> list[ResolutionOutcome]:
    """Table 2: resolve one (expired) name through every wallet."""
    return [wallet.resolve(ens, ens_name) for wallet in wallets]
