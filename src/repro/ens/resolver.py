"""The public resolver contract.

Stores the actual name → address (and text) records, keyed by namehash
node. Mutation is gated on *current registry ownership* of the node —
which means an expired name's record stays frozen at whatever the old
owner set, and keeps being served to wallets, until a re-registrant
takes registry ownership and overwrites it. This is the design decision
§4.4 of the paper identifies as the root of the hijack risk.
"""

from __future__ import annotations

from ..chain.contract import CallContext, Contract
from ..chain.errors import NotOwner
from ..chain.types import Address, Hash32, ZERO_ADDRESS

__all__ = ["PublicResolver"]


class PublicResolver(Contract):
    """addr/text record store gated on registry node ownership."""

    def __init__(self, address: Address, chain, registry_address: Address) -> None:
        super().__init__(address, chain)
        self._registry_address = registry_address
        self._addresses: dict[Hash32, Address] = {}
        self._texts: dict[Hash32, dict[str, str]] = {}

    def _authorize(self, ctx: CallContext, node: Hash32) -> None:
        owner = self.chain.view(self._registry_address, "owner", node=node)
        if ctx.sender != owner:
            raise NotOwner(
                f"{ctx.sender} does not own node {node} in the registry"
            )

    # -- mutating entry points ---------------------------------------------

    def set_addr(self, ctx: CallContext, node: Hash32, addr: Address) -> None:
        """Point ``node`` at a wallet address (caller must own the node)."""
        self._authorize(ctx, node)
        self._addresses[node] = addr
        self.emit("AddrChanged", node=node, addr=addr)

    def clear_addr(self, ctx: CallContext, node: Hash32) -> None:
        """Remove the address record for ``node``."""
        self._authorize(ctx, node)
        if node in self._addresses:
            del self._addresses[node]
            self.emit("AddrChanged", node=node, addr=ZERO_ADDRESS)

    def set_text(self, ctx: CallContext, node: Hash32, key: str, text: str) -> None:
        """Set a text record (avatar, url, com.twitter, ...).

        The record content parameter is named ``text`` (not ``value``) to
        avoid colliding with the wei ``value`` of :meth:`Blockchain.call`.
        """
        self._authorize(ctx, node)
        self._texts.setdefault(node, {})[key] = text
        self.emit("TextChanged", node=node, key=key, text=text)

    # -- views ----------------------------------------------------------------

    def addr(self, ctx: CallContext, node: Hash32) -> Address:
        """Resolve a node; unset records resolve to the zero address."""
        return self._addresses.get(node, ZERO_ADDRESS)

    def text(self, ctx: CallContext, node: Hash32, key: str) -> str:
        """ERC-634 text record for ``node``/``key`` (empty when unset)."""
        return self._texts.get(node, {}).get(key, "")
