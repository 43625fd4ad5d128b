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

from repro.obs import global_registry
from repro.simulation import ScenarioConfig, run_scenario

# ``repro.ens`` and ``repro.chain.crypto`` re-export functions under
# their submodules' names, so attribute access would not reach the modules
keccak_module = importlib.import_module("repro.chain.crypto.keccak")
namehash_module = importlib.import_module("repro.ens.namehash")


def test_no_input_bytes_are_hashed_twice(monkeypatch) -> None:
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
    inputs: Counter[bytes] = Counter()
    batched_inputs: list[bytes] = []

    def counted(data):
        inputs[bytes(data)] += 1
        return serial(data)

    def counted_many(messages):
        messages = [bytes(message) for message in messages]
        batched_inputs.extend(messages)
        inputs.update(messages)
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

    digests_before = global_registry().value("keccak_digests_total")
    run_scenario(ScenarioConfig(n_domains=60, seed=1))
    digests = global_registry().value("keccak_digests_total") - digests_before

    assert inputs, "the scenario hashed nothing: keccak was not wrapped"
    assert batched_inputs, "the setup warm-up hashed nothing in a batch"
    repeated = {data.hex(): n for data, n in inputs.items() if n > 1}
    assert not repeated, f"{len(repeated)} inputs hashed more than once"
    # every digest the program computed went through a wrapped entry point
    assert digests == sum(inputs.values())
