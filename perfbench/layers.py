"""Per-layer attribution for the traced run.

Two halves:

* :func:`self_times` — pure arithmetic over a span tree: a span's self
  time is its duration minus its children's durations, and each span is
  charged to the layer its name maps to. Importable without the program
  under test.
* :func:`install` — wraps the public entry points of the simulation
  substrate (chain, keccak, ENS, indexer, explorer, marketplace) at their
  import sites, so each call opens a span on the benchmark's tracer. The
  program's own spans (``scenario.*``, ``crawl.*``, ``analyze.*``,
  ``columnar.*``, ``serve.warmup``, ``delta.apply``) land on the same
  tracer, so one tree holds both and nests them correctly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from typing import Any, Callable, Iterable

#: Span-name prefixes → layer, first match wins. Wrapper spans are named
#: ``<layer>.<function>``; the rest are the program's own span names.
LAYER_PREFIXES = (
    ("unit", "untraced"),
    ("startup", "startup"),
    ("scenario", "simulation"),
    ("crawl", "crawler"),
    ("shard.", "crawler"),
    ("chain.", "chain"),
    ("keccak", "keccak"),
    ("ens.", "ens"),
    ("indexer.", "indexer"),
    ("explorer.", "explorer"),
    ("marketplace.", "marketplace"),
    ("columnar.", "datasets"),
    ("datasets.", "datasets"),
    ("analyze", "core"),
    ("core.", "core"),
    ("delta.apply", "incremental"),
    ("incremental.", "incremental"),
    ("serve.", "serve"),
)


def layer_of(name: str) -> str:
    """The layer a span name is charged to (``other`` if none matches)."""
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


def self_times(roots: Iterable[Any]) -> tuple[dict[str, float], dict[str, float]]:
    """Self time per layer and per span name over span trees.

    A span is anything with ``name``, ``duration`` and ``children``.
    Self time is the duration minus the children's durations, so summed
    over a tree the self times equal the root's duration.
    """
    by_layer: dict[str, float] = defaultdict(float)
    by_name: dict[str, float] = defaultdict(float)
    stack = list(roots)
    while stack:
        span = stack.pop()
        own = (span.duration or 0.0) - sum(
            child.duration or 0.0 for child in span.children
        )
        by_layer[layer_of(span.name)] += own
        by_name[span.name] += own
        stack.extend(span.children)
    return dict(by_layer), dict(by_name)


# -- wrappers ---------------------------------------------------------------


def spanned(tracer: Any, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped so each call runs inside a ``name`` span."""
    span = tracer.span

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with span(name):
            return fn(*args, **kwargs)

    return wrapper


class _Wrapper:
    """Cheap spans around substrate calls.

    A wrapped call appends a :class:`~repro.obs.tracing.Span` beneath the
    innermost open wrapper span, or else beneath the tracer's current
    (program) span, so wrapper and program spans form one tree. Tens of
    thousands of substrate calls happen per scenario, so this avoids the
    per-call generator of ``Tracer.span``; substrate code opens no
    program spans, so the two stacks never interleave.
    """

    def __init__(self, tracer: Any) -> None:
        from repro.obs.tracing import Span

        self.tracer = tracer
        self.stack: list[Any] = []
        self.span_type = Span

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer, stack, span_type = self.tracer, self.stack, self.span_type
        clock = tracer.clock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            node = span_type(name, clock())
            parent = stack[-1] if stack else tracer.current
            (tracer.roots if parent is None else parent.children).append(node)
            stack.append(node)
            try:
                return fn(*args, **kwargs)
            finally:
                node.end = clock()
                stack.pop()

        return wrapper

    def wrap_methods(self, cls: type, layer: str, names: tuple[str, ...] = ()) -> None:
        """Wrap ``names`` of ``cls``, or every public plain method."""
        for attr, value in list(vars(cls).items()):
            wanted = attr in names if names else not attr.startswith("_")
            if wanted and inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                setattr(cls, attr, self.wrap(f"{layer}.{attr}", value))


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module global that names ``original``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Counts:
    """Call counts the wrappers gather beside their spans."""

    def __init__(self) -> None:
        self.keccak_calls = 0
        self.keccak_repeats = 0
        self.normalize_calls = 0
        self._keccak_seen: set[bytes] = set()

    def keccak(self, data: Any) -> None:
        self.keccak_calls += 1
        key = bytes(data)
        if key in self._keccak_seen:
            self.keccak_repeats += 1
        else:
            self._keccak_seen.add(key)


def install(tracer: Any) -> Counts:
    """Wrap the substrate's entry points; returns the shared counts.

    Wrapped: the chain's transaction entry points, every contract call
    (charged to the contract's layer), keccak at each import site, the
    ENS deployment's public methods, the indexer's log handler and query
    endpoint, and the explorer and marketplace services. ``normalize_name``
    is counted, not spanned. Call after the program's modules are
    imported and before any world is built (the indexer subscribes its
    bound log handler at construction).
    """
    from repro.chain.chain import Blockchain
    from repro.chain.contract import Contract
    from repro.ens.deployment import ENSDeployment
    from repro.explorer.api import EtherscanAPI
    from repro.explorer.database import ExplorerDatabase
    from repro.indexer.endpoint import SubgraphEndpoint
    from repro.indexer.subgraph import ENSSubgraph
    from repro.marketplace.api import OpenSeaAPI
    from repro.marketplace.market import OpenSeaMarket

    # ``repro.ens`` re-exports functions under its submodules' names
    keccak_module = importlib.import_module("repro.chain.crypto.keccak")
    normalize_module = importlib.import_module("repro.ens.normalize")
    counts = Counts()
    wrapper = _Wrapper(tracer)

    wrapper.wrap_methods(Blockchain, "chain", ("transfer", "call"))
    wrapper.wrap_methods(ENSDeployment, "ens")
    wrapper.wrap_methods(ENSSubgraph, "indexer", ("_on_log",))
    wrapper.wrap_methods(SubgraphEndpoint, "indexer")
    wrapper.wrap_methods(ExplorerDatabase, "explorer")
    wrapper.wrap_methods(EtherscanAPI, "explorer")
    wrapper.wrap_methods(OpenSeaMarket, "marketplace")
    wrapper.wrap_methods(OpenSeaAPI, "marketplace")

    invoke = Contract.invoke
    by_layer = {
        layer: wrapper.wrap(f"{layer}.contract", invoke)
        for layer in ("ens", "marketplace", "chain")
    }

    def layered_invoke(self: Any, ctx: Any, method: str, kwargs: dict) -> Any:
        module = type(self).__module__
        layer = module.split(".")[1] if module.startswith("repro.") else "chain"
        return by_layer.get(layer, by_layer["chain"])(self, ctx, method, kwargs)

    Contract.invoke = layered_invoke  # type: ignore[method-assign]

    keccak = keccak_module.keccak_256

    def counted_keccak(data: Any) -> bytes:
        counts.keccak(data)
        return keccak(data)

    _replace_everywhere(keccak, wrapper.wrap("keccak", counted_keccak))

    normalize = normalize_module.normalize_name

    def counted_normalize(name: str) -> str:
        counts.normalize_calls += 1
        return normalize(name)

    _replace_everywhere(normalize, counted_normalize)
    return counts
