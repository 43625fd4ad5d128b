"""The .eth registrar: BaseRegistrar (NFT + expiries) and Controller.

Mirrors the post-2020-migration mainnet architecture:

* :class:`BaseRegistrar` owns the ``eth`` node in the registry, tracks
  each second-level name as an NFT (token id = labelhash as uint256)
  with an expiry date and a 90-day grace period, and only lets its
  registered controller mint/renew.
* :class:`RegistrarController` is the public entry point: commit-reveal
  registration, USD-denominated pricing with the 21-day Dutch-auction
  premium for recently-released names, renewals, and refunds of
  overpayment.

Every mechanism the paper's analysis depends on lives here: expiries,
grace, the premium window (§4.1 timing mass), registration cost split
into base + premium (Fig 10's cost side), and ownership-transfer events
(the subgraph's re-registration signal).
"""

from __future__ import annotations

from hashlib import blake2b

from ..chain.chain import Blockchain
from ..chain.contract import CallContext, Contract
from ..chain.errors import (
    NameNotRegistered,
    NameUnavailable,
    NotOwner,
    PaymentTooLow,
    Revert,
)
from ..chain.types import SECONDS_PER_DAY, Address, Hash32, Wei, ZERO_ADDRESS
from .namehash import ETH_NODE, labelhash
from .normalize import registrable_label
from .premium import GRACE_PERIOD_DAYS
from .pricing import RentPriceOracle
from .registry import ENSRegistry

__all__ = [
    "BaseRegistrar",
    "RegistrarController",
    "GRACE_PERIOD_SECONDS",
]

GRACE_PERIOD_SECONDS = GRACE_PERIOD_DAYS * SECONDS_PER_DAY
MIN_REGISTRATION_DURATION = 28 * SECONDS_PER_DAY

MIN_COMMITMENT_AGE_SECONDS = 60
MAX_COMMITMENT_AGE_SECONDS = 24 * 3600


class Registration:
    """Mutable per-token registrar state."""

    __slots__ = ("owner", "expires")

    def __init__(self, owner: Address, expires: int) -> None:
        self.owner = owner
        self.expires = expires


class BaseRegistrar(Contract):
    """ERC-721-style ownership plus expiry bookkeeping for .eth 2LDs."""

    def __init__(
        self, address: Address, chain: Blockchain, registry: ENSRegistry
    ) -> None:
        super().__init__(address, chain)
        self._registry = registry
        self._registrations: dict[Hash32, Registration] = {}
        self._controller: Address | None = None
        self._approvals: dict[Hash32, Address] = {}  # token → approved operator

    # -- deployment wiring ----------------------------------------------------

    def set_controller(self, ctx: CallContext, controller: Address) -> None:
        """One-shot controller registration (deployment only)."""
        self.require(self._controller is None, "controller already set")
        self._controller = controller
        self.emit("ControllerAdded", controller=controller)

    def _only_controller(self, ctx: CallContext) -> None:
        if ctx.sender != self._controller:
            raise NotOwner(f"{ctx.sender} is not the registrar controller")

    # -- views ------------------------------------------------------------------

    def available(self, ctx: CallContext, label_hash: Hash32) -> bool:
        """A name is available if never registered or past expiry + grace."""
        registration = self._registrations.get(label_hash)
        if registration is None:
            return True
        return ctx.timestamp > registration.expires + GRACE_PERIOD_SECONDS

    def name_expires(self, ctx: CallContext, label_hash: Hash32) -> int:
        """Expiry timestamp, or 0 for never-registered names."""
        registration = self._registrations.get(label_hash)
        return registration.expires if registration else 0

    def owner_of(self, ctx: CallContext, label_hash: Hash32) -> Address:
        """Current NFT owner; reverts for expired-past-grace names."""
        registration = self._registrations.get(label_hash)
        if registration is None:
            raise NameNotRegistered(f"token {label_hash} was never registered")
        if ctx.timestamp > registration.expires + GRACE_PERIOD_SECONDS:
            raise NameNotRegistered(f"token {label_hash} has expired")
        return registration.owner

    def registrant_of_record(self, ctx: CallContext, label_hash: Hash32) -> Address:
        """Last registrant regardless of expiry (registry-style residue)."""
        registration = self._registrations.get(label_hash)
        return registration.owner if registration else ZERO_ADDRESS

    # -- controller-only mutations -----------------------------------------------

    def register_name(
        self, ctx: CallContext, label_hash: Hash32, owner: Address, duration: int
    ) -> int:
        """Mint/remint a name for ``owner``; returns the new expiry."""
        self._only_controller(ctx)
        self.require(duration > 0, "duration must be positive")
        if not self.available(ctx, label_hash):
            raise NameUnavailable(f"token {label_hash} is not available")
        expires = ctx.timestamp + duration
        self._registrations[label_hash] = Registration(owner=owner, expires=expires)
        self._approvals.pop(label_hash, None)  # a re-mint voids old approvals
        # Registrations always read as mints (from = 0x0): an expired
        # token is burned and re-minted, so indexers can tell catch-up
        # registrations from mid-registration hand-overs.
        self.emit(
            "Transfer", from_address=ZERO_ADDRESS, to_address=owner, token=label_hash
        )
        self.emit("NameRegistered", token=label_hash, owner=owner, expires=expires)
        # Hand the registry subnode to the controller so it can wire the
        # resolver before passing ownership to the registrant.
        self.internal_call(
            ctx,
            self._registry.address,
            "set_subnode_owner",
            node=ETH_NODE,
            label=label_hash,
            owner=ctx.sender,
        )
        return expires

    def renew_name(self, ctx: CallContext, label_hash: Hash32, duration: int) -> int:
        """Extend a live-or-in-grace registration; returns the new expiry."""
        self._only_controller(ctx)
        registration = self._registrations.get(label_hash)
        if registration is None:
            raise NameNotRegistered(f"token {label_hash} was never registered")
        self.require(
            ctx.timestamp <= registration.expires + GRACE_PERIOD_SECONDS,
            "name is past its grace period; it must be re-registered",
        )
        registration.expires += duration
        self.emit(
            "NameRenewed", token=label_hash, expires=registration.expires
        )
        return registration.expires

    def migrate_registration(
        self,
        ctx: CallContext,
        label_hash: Hash32,
        owner: Address,
        expires: int,
    ) -> None:
        """Seed a legacy (pre-2020 auction registrar) registration.

        Models the 2019/2020 contract migration: names carried over from
        the auction registrar arrive with a fixed renewal deadline (the
        paper's Figure-2 expiration spike in mid-2020). Controller-gated
        like all minting.
        """
        self._only_controller(ctx)
        self.require(
            label_hash not in self._registrations,
            "cannot migrate over an existing registration",
        )
        self._registrations[label_hash] = Registration(owner=owner, expires=expires)
        self.emit(
            "Transfer", from_address=ZERO_ADDRESS, to_address=owner, token=label_hash
        )
        self.emit("NameMigrated", token=label_hash, owner=owner, expires=expires)
        self.internal_call(
            ctx,
            self._registry.address,
            "set_subnode_owner",
            node=ETH_NODE,
            label=label_hash,
            owner=owner,
        )

    # -- public mutations -----------------------------------------------------------

    def approve(self, ctx: CallContext, to: Address, label_hash: Hash32) -> None:
        """ERC-721 approval: let ``to`` transfer this one token."""
        registration = self._registrations.get(label_hash)
        if registration is None:
            raise NameNotRegistered(f"token {label_hash} was never registered")
        if ctx.sender != registration.owner:
            raise NotOwner(f"{ctx.sender} does not own token {label_hash}")
        self._approvals[label_hash] = to
        self.emit("Approval", owner=ctx.sender, approved=to, token=label_hash)

    def get_approved(self, ctx: CallContext, label_hash: Hash32) -> Address:
        """Approved transfer address for ``label_hash`` (zero if none)."""
        return self._approvals.get(label_hash, ZERO_ADDRESS)

    def transfer_from(
        self, ctx: CallContext, to: Address, label_hash: Hash32
    ) -> None:
        """Transfer a live name's NFT (and its registry node) to ``to``.

        The caller must be the owner or the token's approved operator
        (ERC-721 semantics — marketplaces settle through approvals).
        """
        registration = self._registrations.get(label_hash)
        if registration is None:
            raise NameNotRegistered(f"token {label_hash} was never registered")
        approved = self._approvals.get(label_hash)
        if ctx.sender != registration.owner and ctx.sender != approved:
            raise NotOwner(
                f"{ctx.sender} is neither owner nor approved for {label_hash}"
            )
        self.require(
            ctx.timestamp <= registration.expires + GRACE_PERIOD_SECONDS,
            "cannot transfer an expired name",
        )
        previous_owner = registration.owner
        registration.owner = to
        self._approvals.pop(label_hash, None)  # approvals clear on transfer
        self.emit(
            "Transfer", from_address=previous_owner, to_address=to, token=label_hash
        )
        self.internal_call(
            ctx,
            self._registry.address,
            "set_subnode_owner",
            node=ETH_NODE,
            label=label_hash,
            owner=to,
        )


class RegistrarController(Contract):
    """Public registration endpoint: commit-reveal, pricing, refunds."""

    def __init__(
        self,
        address: Address,
        chain: Blockchain,
        base: BaseRegistrar,
        registry: ENSRegistry,
        pricing: RentPriceOracle,
        default_resolver: Address,
    ) -> None:
        super().__init__(address, chain)
        self._base = base
        self._registry = registry
        self._pricing = pricing
        self._default_resolver = default_resolver
        self._commitments: dict[bytes, int] = {}

    # -- pricing views ------------------------------------------------------------

    def _seconds_since_release(self, ctx: CallContext, label_hash: Hash32) -> int | None:
        """Elapsed time since grace ended, or None if never registered."""
        expires = self._base.name_expires(ctx, label_hash)
        if expires == 0:
            return None
        released_at = expires + GRACE_PERIOD_SECONDS
        if ctx.timestamp <= released_at:
            return None  # still registered or in grace — no premium quote
        return ctx.timestamp - released_at

    def rent_price(self, ctx: CallContext, label: str, duration: int) -> Wei:
        """Quote base + premium in wei for registering ``label`` now."""
        label = registrable_label(label)
        since_release = self._seconds_since_release(ctx, labelhash(label))
        return self._pricing.total_price_wei(
            label, duration, ctx.timestamp, since_release
        )

    def premium_price_wei(self, ctx: CallContext, label: str) -> Wei:
        """Current premium component alone (0 outside the auction window)."""
        label = registrable_label(label)
        since_release = self._seconds_since_release(ctx, labelhash(label))
        usd = self._pricing.premium_usd(since_release)
        return self._pricing.eth_usd.usd_to_wei(usd, ctx.timestamp)

    def available(self, ctx: CallContext, label: str) -> bool:
        """Whether ``label`` is valid and open for registration."""
        try:
            label = registrable_label(label)
        except Revert:
            return False
        return self._base.available(ctx, labelhash(label))

    # -- commit-reveal ---------------------------------------------------------------

    @staticmethod
    def make_commitment(label: str, owner: Address, secret: bytes) -> bytes:
        """Commitment digest binding label, future owner, and a secret."""
        body = b"|".join([label.encode("utf-8"), owner.raw, secret])
        return blake2b(b"commit:" + body, digest_size=32).digest()

    def commit(self, ctx: CallContext, commitment: bytes) -> None:
        """Record a commitment; must age ≥60s before the reveal."""
        existing = self._commitments.get(commitment)
        if existing is not None:
            self.require(
                ctx.timestamp - existing > MAX_COMMITMENT_AGE_SECONDS,
                "an unexpired identical commitment exists",
            )
        self._commitments[commitment] = ctx.timestamp
        self.emit("CommitmentMade", commitment=commitment)

    def _consume_commitment(
        self, ctx: CallContext, label: str, owner: Address, secret: bytes
    ) -> None:
        commitment = self.make_commitment(label, owner, secret)
        committed_at = self._commitments.get(commitment)
        self.require(committed_at is not None, "commitment not found")
        assert committed_at is not None
        age = ctx.timestamp - committed_at
        self.require(
            age >= MIN_COMMITMENT_AGE_SECONDS,
            f"commitment too new ({age}s old, needs {MIN_COMMITMENT_AGE_SECONDS}s)",
        )
        self.require(
            age <= MAX_COMMITMENT_AGE_SECONDS,
            f"commitment expired ({age}s old, max {MAX_COMMITMENT_AGE_SECONDS}s)",
        )
        del self._commitments[commitment]

    # -- registration / renewal ---------------------------------------------------------

    def register(
        self,
        ctx: CallContext,
        label: str,
        owner: Address,
        duration: int,
        secret: bytes,
        set_addr_to: Address | None = None,
    ) -> int:
        """Register ``label``.eth for ``owner``; returns the expiry.

        Requires an aged commitment, availability, and payment covering
        base rent plus any live premium; overpayment is refunded. When
        ``set_addr_to`` is given, the controller wires the default
        resolver and points the name at that wallet before handing the
        node over — the common wallet flow.
        """
        label = registrable_label(label)
        self.require(
            duration >= MIN_REGISTRATION_DURATION,
            f"duration below the {MIN_REGISTRATION_DURATION}s minimum",
        )
        self._consume_commitment(ctx, label, owner, secret)

        label_hash = labelhash(label)
        since_release = self._seconds_since_release(ctx, label_hash)
        base_wei, premium_wei = self._pricing.price_components_wei(
            label, duration, ctx.timestamp, since_release
        )
        total_wei = base_wei + premium_wei
        if ctx.value < total_wei:
            raise PaymentTooLow(
                f"sent {ctx.value} wei, registration costs {total_wei}"
            )

        expires = self._base.register_name(
            self._as_base_caller(ctx), label_hash, owner, duration
        )

        # The base handed the registry node to us; wire records, then
        # pass node ownership to the registrant.
        from ..chain.crypto.keccak import keccak_256

        node = Hash32(keccak_256(ETH_NODE.raw + label_hash.raw))
        if set_addr_to is not None:
            self.internal_call(
                ctx,
                self._registry.address,
                "set_resolver",
                node=node,
                resolver=self._default_resolver,
            )
            self.internal_call(
                ctx,
                self._default_resolver,
                "set_addr",
                node=node,
                addr=set_addr_to,
            )
        self.internal_call(
            ctx, self._registry.address, "set_owner", node=node, owner=owner
        )

        if ctx.value > total_wei:
            self.pay(ctx.sender, ctx.value - total_wei)

        self.emit(
            "NameRegistered",
            label=label,
            label_hash=label_hash,
            owner=owner,
            base_cost=base_wei,
            premium=premium_wei,
            expires=expires,
        )
        return expires

    def renew(self, ctx: CallContext, label: str, duration: int) -> int:
        """Renew ``label``.eth (allowed through grace); returns new expiry."""
        label = registrable_label(label)
        self.require(duration > 0, "duration must be positive")
        cost = self._pricing.renewal_price_wei(label, duration, ctx.timestamp)
        if ctx.value < cost:
            raise PaymentTooLow(f"sent {ctx.value} wei, renewal costs {cost}")
        expires = self._base.renew_name(
            self._as_base_caller(ctx), labelhash(label), duration
        )
        if ctx.value > cost:
            self.pay(ctx.sender, ctx.value - cost)
        self.emit(
            "NameRenewed",
            label=label,
            label_hash=labelhash(label),
            cost=cost,
            expires=expires,
        )
        return expires

    def migrate_legacy_name(
        self, ctx: CallContext, label: str, owner: Address, expires: int
    ) -> None:
        """Deployment-time seeding of auction-registrar carryover names."""
        label = registrable_label(label)
        self._base.migrate_registration(
            self._as_base_caller(ctx), labelhash(label), owner, expires
        )

    def _as_base_caller(self, ctx: CallContext) -> CallContext:
        """Context for calling the base with this controller as sender."""
        return CallContext(
            sender=self.address,
            value=0,
            timestamp=ctx.timestamp,
            block_number=ctx.block_number,
        )
