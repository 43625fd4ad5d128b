"""Regression gate: a scenario computes each Keccak-256 digest once.

ENS derives every node as ``keccak(parent ‖ labelhash)``; the memoized
:func:`repro.ens.namehash.child_node` is the one place that computes it.
A call site that hashes the same bytes again (a bypass of the memo)
shows up here as a repeated input. The scenario hashes its labels and
their ``.eth`` nodes in batches at setup, so both entry points are
counted: no input may be hashed twice across the two together.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.obs import Span, Tracer, global_registry
from repro.simulation import ScenarioConfig, run_scenario

# ``repro.ens`` and ``repro.chain.crypto`` re-export functions under
# their submodules' names, so attribute access would not reach the modules
keccak_module = importlib.import_module("repro.chain.crypto.keccak")
namehash_module = importlib.import_module("repro.ens.namehash")


class _PhaseTracer(Tracer):
    """A tracer that knows which spans are open right now."""

    def __init__(self) -> None:
        super().__init__()
        self.open: list[str] = []

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        self.open.append(name)
        try:
            with super().span(name, **attributes) as node:
                yield node
        finally:
            self.open.pop()


class _Recorder:
    """Every keccak input, counted, and which entry point hashed it."""

    def __init__(self, tracer: _PhaseTracer) -> None:
        self.tracer = tracer
        self.inputs: Counter[bytes] = Counter()
        self.batched: list[bytes] = []
        self.serial_in_event_loop: list[bytes] = []


@pytest.fixture()
def recorder(monkeypatch) -> _Recorder:
    # start from empty memos, as a fresh process does, so earlier tests
    # cannot hide a bypass by having computed its digests already
    for memo in (
        namehash_module.labelhash,
        namehash_module.child_node,
        namehash_module.namehash,
        namehash_module._namehash_normalized,
    ):
        memo.cache_clear()
    serial = keccak_module.keccak_256
    batched = keccak_module.keccak_256_many
    seen = _Recorder(_PhaseTracer())

    def counted(data):
        seen.inputs[bytes(data)] += 1
        if "scenario.event_loop" in seen.tracer.open:
            seen.serial_in_event_loop.append(bytes(data))
        return serial(data)

    def counted_many(messages):
        messages = [bytes(message) for message in messages]
        seen.batched.extend(messages)
        seen.inputs.update(messages)
        return batched(messages)

    # rebind every repro module global that names either entry point
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is serial:
                monkeypatch.setattr(module, attr, counted)
            elif value is batched:
                monkeypatch.setattr(module, attr, counted_many)
    return seen


def test_no_input_bytes_are_hashed_twice(recorder: _Recorder) -> None:
    digests_before = global_registry().value("keccak_digests_total")
    run_scenario(ScenarioConfig(n_domains=60, seed=1), tracer=recorder.tracer)
    digests = global_registry().value("keccak_digests_total") - digests_before

    assert recorder.inputs, "the scenario hashed nothing: keccak was not wrapped"
    assert recorder.batched, "the setup warm-up hashed nothing in a batch"
    repeated = {data.hex(): n for data, n in recorder.inputs.items() if n > 1}
    assert not repeated, f"{len(repeated)} inputs hashed more than once"
    # every digest the program computed went through a wrapped entry point
    assert digests == sum(recorder.inputs.values())


def test_event_loop_hashes_only_in_batches(recorder: _Recorder) -> None:
    """Subdomain events hash their labels and nodes in one batch per
    event; nothing in the event loop calls the one-message entry point."""
    world = run_scenario(
        ScenarioConfig(n_domains=120, seed=5), tracer=recorder.tracer
    )
    assert world.registry.value(
        "scenario_events_total", kind="subdomains"
    ), "the scenario created no subdomains: the event loop hashed nothing"
    assert recorder.serial_in_event_loop == []
