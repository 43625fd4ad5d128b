"""Deploys and wires the full ENS contract suite onto a chain.

Gives callers a single handle with the registry, base registrar,
controller, and public resolver deployed and cross-authorized exactly
like mainnet (base owns the ``eth`` node; the controller is the base's
only minter), plus convenience helpers that wrap the two-transaction
commit-reveal flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.chain import Blockchain
from ..chain.errors import InvalidName
from ..chain.transaction import Receipt
from ..chain.types import Address, Wei, ZERO_ADDRESS
from ..oracle.ethusd import EthUsdOracle
from .namehash import ETH_NODE, ROOT_NODE, labelhash, namehash
from .normalize import registrable_label
from .pricing import RentPriceOracle
from .registrar import (
    MIN_COMMITMENT_AGE_SECONDS,
    BaseRegistrar,
    RegistrarController,
)
from .registry import ENSRegistry
from .resolver import PublicResolver
from .reverse import ReverseRegistrar

__all__ = ["ENSDeployment"]


@dataclass
class ENSDeployment:
    """Handle to a deployed ENS instance."""

    chain: Blockchain
    registry: ENSRegistry
    base: BaseRegistrar
    controller: RegistrarController
    resolver: PublicResolver
    reverse: ReverseRegistrar
    pricing: RentPriceOracle
    deployer: Address

    @classmethod
    def deploy(
        cls,
        chain: Blockchain,
        pricing: RentPriceOracle | None = None,
        eth_usd: EthUsdOracle | None = None,
    ) -> "ENSDeployment":
        """Deploy registry → resolver → base → controller and wire them."""
        if pricing is None:
            pricing = RentPriceOracle(eth_usd=eth_usd or EthUsdOracle())
        deployer = Address.derive("ens:deployer")
        chain.fund(deployer, 10**18)  # gas money for wiring transactions

        registry = ENSRegistry(Address.derive("ens:registry"), chain)
        chain.deploy(registry)
        registry.bootstrap_root(deployer)

        resolver = PublicResolver(
            Address.derive("ens:resolver"), chain, registry.address
        )
        chain.deploy(resolver)

        base = BaseRegistrar(Address.derive("ens:base-registrar"), chain, registry)
        chain.deploy(base)

        controller = RegistrarController(
            Address.derive("ens:controller"),
            chain,
            base,
            registry,
            pricing,
            resolver.address,
        )
        chain.deploy(controller)

        reverse = ReverseRegistrar(
            Address.derive("ens:reverse-registrar"), chain, registry.address
        )
        chain.deploy(reverse)

        # Hand the 'eth' node to the base registrar and authorize the
        # controller — the mainnet deployment wiring.
        receipt = chain.call(
            deployer,
            registry.address,
            "set_subnode_owner",
            node=ROOT_NODE,
            label=labelhash("eth"),
            owner=base.address,
        )
        if not receipt.success:
            raise RuntimeError(f"eth node handover failed: {receipt.error}")
        receipt = chain.call(
            deployer, base.address, "set_controller", controller=controller.address
        )
        if not receipt.success:
            raise RuntimeError(f"controller wiring failed: {receipt.error}")
        # reverse namespace: root → 'reverse' (deployer) → 'addr' (registrar)
        receipt = chain.call(
            deployer,
            registry.address,
            "set_subnode_owner",
            node=ROOT_NODE,
            label=labelhash("reverse"),
            owner=deployer,
        )
        if not receipt.success:
            raise RuntimeError(f"reverse node creation failed: {receipt.error}")
        receipt = chain.call(
            deployer,
            registry.address,
            "set_subnode_owner",
            node=namehash("reverse"),
            label=labelhash("addr"),
            owner=reverse.address,
        )
        if not receipt.success:
            raise RuntimeError(f"addr.reverse handover failed: {receipt.error}")
        return cls(
            chain=chain,
            registry=registry,
            base=base,
            controller=controller,
            resolver=resolver,
            reverse=reverse,
            pricing=pricing,
            deployer=deployer,
        )

    # -- registration helpers ----------------------------------------------

    def rent_price(self, label: str, duration: int) -> Wei:
        """Quoted registration price (base + live premium) in wei."""
        return self.chain.view(
            self.controller.address, "rent_price", label=label, duration=duration
        )

    def available(self, label: str) -> bool:
        """Whether ``label`` can currently be registered (controller view)."""
        return self.chain.view(self.controller.address, "available", label=label)

    def name_expires(self, label: str) -> int:
        """Expiry timestamp of ``label`` (registrar view).

        Reads the registrar's own state directly, as ``chain.view(base,
        "name_expires", ...)`` would, without the dispatch.
        """
        return self.base.name_expires(
            self.chain.view_context(), labelhash(registrable_label(label))
        )

    def register(
        self,
        sender: Address,
        label: str,
        duration: int,
        value: Wei | None = None,
        owner: Address | None = None,
        set_addr_to: Address | None = None,
        secret: bytes = b"s",
    ) -> Receipt:
        """Commit, wait out the commitment age, and register.

        ``value=None`` sends the exact quoted price. The helper advances
        chain time by the 60-second minimum commitment age — negligible
        against the day-granularity simulation clock.
        """
        label = registrable_label(label)
        owner = owner or sender
        commitment = RegistrarController.make_commitment(label, owner, secret)
        receipt = self.chain.call(
            sender, self.controller.address, "commit", commitment=commitment
        )
        if not receipt.success:
            return receipt
        self.chain.advance_time(MIN_COMMITMENT_AGE_SECONDS)
        if value is None:
            value = self.rent_price(label, duration)
        return self.chain.call(
            sender,
            self.controller.address,
            "register",
            value=value,
            label=label,
            owner=owner,
            duration=duration,
            secret=secret,
            set_addr_to=set_addr_to,
        )

    def renew(
        self, sender: Address, label: str, duration: int, value: Wei | None = None
    ) -> Receipt:
        """Renew ``label`` for ``duration``; exact payment when value=None."""
        label = registrable_label(label)
        if value is None:
            value = self.pricing.renewal_price_wei(label, duration, self.chain.now)
        return self.chain.call(
            sender,
            self.controller.address,
            "renew",
            value=value,
            label=label,
            duration=duration,
        )

    def transfer(self, sender: Address, label: str, to: Address) -> Receipt:
        """Transfer a live name's NFT to another address."""
        return self.chain.call(
            sender,
            self.base.address,
            "transfer_from",
            to=to,
            label_hash=labelhash(registrable_label(label)),
        )

    def set_address_record(
        self, sender: Address, name: str, addr: Address
    ) -> Receipt:
        """Point ``name`` at ``addr`` via the public resolver."""
        node = namehash(name)
        receipt = self.chain.call(
            sender,
            self.registry.address,
            "set_resolver",
            node=node,
            resolver=self.resolver.address,
        )
        if not receipt.success:
            return receipt
        return self.chain.call(
            sender, self.resolver.address, "set_addr", node=node, addr=addr
        )

    # -- resolution (the wallet path) ------------------------------------------

    def resolve(self, name: str) -> Address | None:
        """Resolve ``name`` the way wallets do: registry → resolver → addr.

        Deliberately performs **no expiry check** — this is the exact
        behaviour the paper shows all seven wallets share (Appendix B),
        and the reason expired names silently keep resolving.

        The registry hop reads the deployed registry directly. The
        resolver hop stays a ``chain.view``: a record may point at any
        address, and one with no contract raises
        :class:`~repro.chain.errors.UnknownAccount`.
        """
        node = namehash(name)
        resolver_address = self.registry.resolver(self.chain.view_context(), node)
        if resolver_address == ZERO_ADDRESS:
            return None
        addr = self.chain.view(resolver_address, "addr", node=node)
        if addr == ZERO_ADDRESS:
            return None
        return addr

    # -- reverse resolution -----------------------------------------------

    def set_reverse_name(self, sender: Address, name: str) -> Receipt:
        """Claim ``sender``'s reverse record and point it at ``name``."""
        return self.chain.call(sender, self.reverse.address, "set_name", name=name)

    def reverse_name(self, address: Address) -> str | None:
        """Raw (unverified) reverse record of an address."""
        name = self.chain.view(self.reverse.address, "name_of", addr=address)
        return name or None

    def primary_name(self, address: Address) -> str | None:
        """Forward-verified reverse name — the display name clients show.

        Returns the reverse record only if the claimed name forward-
        resolves back to the same address. After a dropcatch the old
        owner's claim fails this check (the name now resolves to the
        catcher), so verifying clients silently stop showing it. A claim
        that does not normalise names no node, so it verifies nothing.
        """
        claimed = self.reverse_name(address)
        if claimed is None:
            return None
        try:
            forward = self.resolve(claimed)
        except InvalidName:
            return None
        return claimed if forward == address else None
