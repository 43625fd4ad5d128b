"""``ENSDeployment.name_expires`` and ``resolve`` read the contracts'
state directly; they must answer exactly as the ``chain.view`` calls do."""

from __future__ import annotations

import pytest

from repro.chain import SECONDS_PER_YEAR, ZERO_ADDRESS, Address, UnknownAccount
from repro.ens import labelhash, namehash
from repro.simulation import ScenarioConfig, run_scenario


def _viewed_resolution(chain, ens, name: str) -> Address | None:
    """The wallet resolution as two ``chain.view`` hops."""
    node = namehash(name)
    resolver = chain.view(ens.registry.address, "resolver", node=node)
    if resolver == ZERO_ADDRESS:
        return None
    addr = chain.view(resolver, "addr", node=node)
    return None if addr == ZERO_ADDRESS else addr


def test_direct_reads_match_views_over_a_scenario() -> None:
    world = run_scenario(ScenarioConfig(n_domains=120, seed=5))
    chain, ens = world.chain, world.ens
    resolved = 0
    for script in world.scripts:
        label = script.name.label
        assert ens.name_expires(label) == chain.view(
            ens.base.address, "name_expires", label_hash=labelhash(label)
        )
        answer = ens.resolve(f"{label}.eth")
        assert answer == _viewed_resolution(chain, ens, f"{label}.eth")
        resolved += answer is not None
    assert resolved, "no script name resolved: the comparison saw only misses"


def test_record_pointing_at_no_contract_raises(chain, ens, alice) -> None:
    ens.register(alice, "vault", SECONDS_PER_YEAR)
    receipt = chain.call(
        alice,
        ens.registry.address,
        "set_resolver",
        node=namehash("vault.eth"),
        resolver=Address.derive("not-a-resolver"),
    )
    assert receipt.success
    with pytest.raises(UnknownAccount):
        ens.resolve("vault.eth")
