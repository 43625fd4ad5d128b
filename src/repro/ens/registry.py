"""The ENS registry contract.

The registry is ENS's root of trust: a flat map from namehash nodes to
``(owner, resolver, ttl)`` records. Everything else — registrars,
resolvers — hangs off it. Crucially for the paper, the registry record
of an *expired* .eth name is not cleared: the old resolver (and its
address record) stays in place until someone re-registers the name,
which is exactly why expired names keep resolving (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.contract import CallContext, Contract
from ..chain.errors import NotOwner
from ..chain.types import Address, Hash32, ZERO_ADDRESS

__all__ = ["ENSRegistry"]


@dataclass(slots=True)
class RegistryRecord:
    """One node's registry entry."""

    owner: Address = ZERO_ADDRESS
    resolver: Address = ZERO_ADDRESS
    ttl: int = 0


class ENSRegistry(Contract):
    """Node → record store with owner-gated mutation.

    Events mirror the mainnet registry: ``Transfer`` (owner change),
    ``NewOwner`` (subnode creation), ``NewResolver``.
    """

    def __init__(self, address: Address, chain) -> None:
        super().__init__(address, chain)
        self._records: dict[Hash32, RegistryRecord] = {}
        # The root node is owned by the deployer; deployment hands the
        # 'eth' node to the registrar.
        self._records[Hash32(b"\x00" * 32)] = RegistryRecord()

    # -- internal helpers ----------------------------------------------------

    def _record(self, node: Hash32) -> RegistryRecord:
        record = self._records.get(node)
        if record is None:
            record = RegistryRecord()
            self._records[node] = record
        return record

    def _authorize(self, ctx: CallContext, node: Hash32) -> None:
        record = self._records.get(node)
        owner = record.owner if record else ZERO_ADDRESS
        if ctx.sender != owner:
            raise NotOwner(f"{ctx.sender} does not own node {node}")

    def bootstrap_root(self, owner: Address) -> None:
        """Deployment hook: assign the root node before public use."""
        self._records[Hash32(b"\x00" * 32)].owner = owner

    # -- mutating entry points -------------------------------------------------

    def set_owner(self, ctx: CallContext, node: Hash32, owner: Address) -> None:
        """Transfer a node the caller owns."""
        self._authorize(ctx, node)
        self._record(node).owner = owner
        self.emit("Transfer", node=node, owner=owner)

    def set_subnode_owner(
        self, ctx: CallContext, node: Hash32, label: Hash32, owner: Address
    ) -> Hash32:
        """Create/reassign ``label`` under ``node`` (caller owns ``node``)."""
        self._authorize(ctx, node)
        from ..chain.crypto.keccak import keccak_256

        subnode = Hash32(keccak_256(node.raw + label.raw))
        self._record(subnode).owner = owner
        self.emit("NewOwner", node=node, label=label, owner=owner)
        return subnode

    def set_resolver(self, ctx: CallContext, node: Hash32, resolver: Address) -> None:
        """Point a node the caller owns at a resolver contract."""
        self._authorize(ctx, node)
        self._record(node).resolver = resolver
        self.emit("NewResolver", node=node, resolver=resolver)

    # -- views -----------------------------------------------------------------

    def owner(self, ctx: CallContext, node: Hash32) -> Address:
        """Owner of ``node`` (zero address when unset)."""
        record = self._records.get(node)
        return record.owner if record else ZERO_ADDRESS

    def resolver(self, ctx: CallContext, node: Hash32) -> Address:
        """Resolver of ``node`` (zero address when unset)."""
        record = self._records.get(node)
        return record.resolver if record else ZERO_ADDRESS

    def record_exists(self, ctx: CallContext, node: Hash32) -> bool:
        """Whether ``node`` has a record with a non-zero owner."""
        record = self._records.get(node)
        return record is not None and record.owner != ZERO_ADDRESS
