"""Contract runtime: Python objects living at chain addresses.

A :class:`Contract` subclass exposes methods decorated plainly as Python
methods; the chain invokes them through :meth:`Contract.invoke` with a
:class:`CallContext` carrying sender, value, and timestamp — the three
pieces of EVM context ENS contracts actually read (``msg.sender``,
``msg.value``, ``block.timestamp``). Methods emit events via
``self.emit(...)``; reverts propagate as :class:`~repro.chain.errors.Revert`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple

from .errors import Revert
from .types import Address, Wei

if TYPE_CHECKING:
    from .chain import Blockchain

__all__ = ["CallContext", "Contract"]


class CallContext(NamedTuple):
    """Per-call EVM context visible to contract code (a named tuple)."""

    sender: Address
    value: Wei
    timestamp: int
    block_number: int


class Contract:
    """Base class for simulated contracts.

    Subclasses define public methods taking ``ctx: CallContext`` as the
    first argument. State lives in ordinary attributes; the chain treats
    a reverted call as atomic by snapshotting is *not* done — contracts
    must raise before mutating (all ENS contracts here validate first,
    then mutate, which preserves atomicity without copy-on-write).
    """

    def __init__(self, address: Address, chain: "Blockchain") -> None:
        self.address = address
        self.chain = chain

    # -- dispatch ---------------------------------------------------------

    def invoke(self, ctx: CallContext, method: str, kwargs: dict[str, Any]) -> Any:
        """Dispatch a payload method call; unknown methods revert."""
        handler = getattr(self, method, None)
        if handler is None or method.startswith("_") or not callable(handler):
            raise Revert(f"{type(self).__name__} has no method {method!r}")
        return handler(ctx, **kwargs)

    # -- helpers for contract code ---------------------------------------

    def emit(self, event: str, **params: Any) -> None:
        """Emit an event log attributed to this contract."""
        self.chain.emit_log(self.address, event, params)

    def pay(self, recipient: Address, amount: Wei) -> None:
        """Transfer wei held by this contract to ``recipient``."""
        self.chain.transfer_internal(self.address, recipient, amount)

    def require(self, condition: bool, message: str) -> None:
        """Revert with ``message`` unless ``condition`` holds."""
        if not condition:
            raise Revert(message)

    def internal_call(
        self, ctx: CallContext, target: Address, method: str, **kwargs: Any
    ) -> Any:
        """Call another contract with this contract as ``msg.sender``.

        Mirrors an EVM message call: the callee sees the caller contract's
        address as sender while block context carries over. Reverts
        propagate to the outer call (and roll back the transaction there).
        """
        callee = self.chain.contracts.get(target)
        if callee is None:
            raise Revert(f"no contract deployed at {target}")
        inner_ctx = CallContext(
            sender=self.address,
            value=0,
            timestamp=ctx.timestamp,
            block_number=ctx.block_number,
        )
        return callee.invoke(inner_ctx, method, kwargs)
