"""Regression gate: a scenario computes each Keccak-256 digest once.

ENS derives every node as ``keccak(parent ‖ labelhash)``; the memoized
:func:`repro.ens.namehash.child_node` is the one place that computes it.
A call site that hashes the same bytes again (a bypass of the memo)
shows up here as a repeated input.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter

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
    original = keccak_module.keccak_256
    inputs: Counter[bytes] = Counter()

    def counted(data):
        inputs[bytes(data)] += 1
        return original(data)

    # rebind every repro module global that names keccak_256
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)

    run_scenario(ScenarioConfig(n_domains=60, seed=1))

    assert inputs, "the scenario hashed nothing: keccak_256 was not wrapped"
    repeated = {data.hex(): n for data, n in inputs.items() if n > 1}
    assert not repeated, f"{len(repeated)} inputs hashed more than once"
