"""Reverse resolution: the ``addr.reverse`` registrar.

ENS supports address → name lookups so wallets can display "alice.eth"
instead of a hex address: each address owns the node
``<hex-address>.addr.reverse`` and points a name record at its chosen
name. Correct clients (and our wallet profiles) must *forward-verify*
the claim — resolve the returned name and check it maps back to the
address — since anyone can claim any string.

This matters for the paper's threat model: after a dropcatch, the old
owner's reverse record still names the domain, but forward verification
now fails (the name resolves to the catcher), so a verifying client
stops displaying it — one of the few places the ownership change is
actually observable.
"""

from __future__ import annotations

from ..chain.contract import CallContext, Contract
from ..chain.types import Address, Hash32
from .namehash import child_node, labelhash, namehash

__all__ = ["ReverseRegistrar", "reverse_node_of"]

ADDR_REVERSE_NODE = namehash("addr.reverse")


def reverse_node_of(address: Address) -> Hash32:
    """The ``<hex>.addr.reverse`` node for an address (EIP-181)."""
    return child_node(ADDR_REVERSE_NODE, labelhash(address.raw.hex()))


class ReverseRegistrar(Contract):
    """Lets every address manage its own reverse record.

    The registrar owns ``addr.reverse`` in the registry; ``set_name``
    claims the caller's subnode and stores the name. Records are kept
    in-contract (the deployed NameResolver pattern collapsed into one
    contract — the query surface is identical).
    """

    def __init__(self, address: Address, chain, registry_address: Address) -> None:
        super().__init__(address, chain)
        self._registry_address = registry_address
        self._names: dict[Hash32, str] = {}

    def set_name(self, ctx: CallContext, name: str) -> Hash32:
        """Claim the caller's reverse node and point it at ``name``."""
        node = reverse_node_of(ctx.sender)
        # claim the subnode in the registry for the caller
        self.internal_call(
            ctx,
            self._registry_address,
            "set_subnode_owner",
            node=ADDR_REVERSE_NODE,
            label=labelhash(ctx.sender.raw.hex()),
            owner=ctx.sender,
        )
        self._names[node] = name
        self.emit("ReverseClaimed", addr=ctx.sender, node=node, name=name)
        return node

    def clear_name(self, ctx: CallContext) -> None:
        """Remove the caller's reverse record."""
        node = reverse_node_of(ctx.sender)
        if node in self._names:
            del self._names[node]
            self.emit("ReverseCleared", addr=ctx.sender, node=node)

    # -- views -----------------------------------------------------------

    def name(self, ctx: CallContext, node: Hash32) -> str:
        """The name record of a reverse node ('' when unset)."""
        return self._names.get(node, "")

    def name_of(self, ctx: CallContext, addr: Address) -> str:
        """Convenience: the reverse name claimed by ``addr``."""
        return self._names.get(reverse_node_of(addr), "")
