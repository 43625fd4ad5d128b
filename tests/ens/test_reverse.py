"""Reverse resolution: claims, verification, and the dropcatch signal."""

from __future__ import annotations

import pytest

from repro.chain import SECONDS_PER_DAY, SECONDS_PER_YEAR, Address, UnknownAccount
from repro.ens import GRACE_PERIOD_SECONDS, namehash
from repro.ens.reverse import reverse_node_of

YEAR = SECONDS_PER_YEAR
DAY = SECONDS_PER_DAY


class TestReverseRecords:
    def test_set_and_query(self, chain, ens, alice) -> None:
        ens.register(alice, "vault", YEAR, set_addr_to=alice)
        receipt = ens.set_reverse_name(alice, "vault.eth")
        assert receipt.success, receipt.error
        assert ens.reverse_name(alice) == "vault.eth"

    def test_unset_is_none(self, chain, ens, alice) -> None:
        assert ens.reverse_name(alice) is None
        assert ens.primary_name(alice) is None

    def test_clear(self, chain, ens, alice) -> None:
        ens.set_reverse_name(alice, "vault.eth")
        receipt = chain.call(alice, ens.reverse.address, "clear_name")
        assert receipt.success
        assert ens.reverse_name(alice) is None

    def test_node_derivation_is_per_address(self, alice, bob) -> None:
        assert reverse_node_of(alice) != reverse_node_of(bob)
        assert reverse_node_of(alice) == reverse_node_of(alice)

    def test_claim_registers_registry_subnode(self, chain, ens, alice) -> None:
        ens.set_reverse_name(alice, "vault.eth")
        owner = chain.view(
            ens.registry.address, "owner", node=reverse_node_of(alice)
        )
        assert owner == alice

    def test_reclaim_overwrites(self, chain, ens, alice) -> None:
        ens.set_reverse_name(alice, "vault.eth")
        ens.set_reverse_name(alice, "other.eth")
        assert ens.reverse_name(alice) == "other.eth"


class TestForwardVerification:
    def test_verified_when_forward_matches(self, chain, ens, alice) -> None:
        ens.register(alice, "vault", YEAR, set_addr_to=alice)
        ens.set_reverse_name(alice, "vault.eth")
        assert ens.primary_name(alice) == "vault.eth"

    def test_anyone_can_claim_but_verification_fails(
        self, chain, ens, alice, bob
    ) -> None:
        ens.register(alice, "vault", YEAR, set_addr_to=alice)
        # bob claims alice's name: raw record exists, verification fails
        ens.set_reverse_name(bob, "vault.eth")
        assert ens.reverse_name(bob) == "vault.eth"
        assert ens.primary_name(bob) is None

    def test_invalid_claimed_name_fails_closed(self, chain, ens, alice) -> None:
        ens.set_reverse_name(alice, "not a valid name!!")
        assert ens.primary_name(alice) is None

    @pytest.mark.parametrize("claimed", ["vault..eth", "ab--cd.eth", ".eth"])
    def test_unnormalisable_claim_is_none(self, chain, ens, alice, claimed) -> None:
        ens.register(alice, "vault", YEAR, set_addr_to=alice)
        ens.set_reverse_name(alice, claimed)
        assert ens.reverse_name(alice) == claimed
        assert ens.primary_name(alice) is None

    def test_resolution_fault_is_not_hidden(self, chain, ens, alice) -> None:
        # Only an unnormalisable claim verifies to None; a resolver that
        # is not a contract is a broken world and must surface.
        ens.register(alice, "vault", YEAR)
        receipt = chain.call(
            alice, ens.registry.address, "set_resolver",
            node=namehash("vault.eth"), resolver=Address.derive("no-contract"),
        )
        assert receipt.success, receipt.error
        ens.set_reverse_name(alice, "vault.eth")
        with pytest.raises(UnknownAccount):
            ens.primary_name(alice)

    def test_dropcatch_breaks_old_owner_verification(
        self, chain, ens, alice, bob
    ) -> None:
        # The observable signal: after a catch, the previous owner's
        # verified display name silently disappears.
        ens.register(alice, "vault", YEAR, set_addr_to=alice)
        ens.set_reverse_name(alice, "vault.eth")
        assert ens.primary_name(alice) == "vault.eth"
        chain.advance_time(YEAR + GRACE_PERIOD_SECONDS + 22 * DAY)
        assert ens.primary_name(alice) == "vault.eth"  # residual resolution!
        ens.register(bob, "vault", YEAR, set_addr_to=bob)
        assert ens.primary_name(alice) is None
        # and the catcher can claim it for themselves
        ens.set_reverse_name(bob, "vault.eth")
        assert ens.primary_name(bob) == "vault.eth"
