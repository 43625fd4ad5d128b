"""Subgraph indexing: entities built from live chain events."""

from __future__ import annotations

import pytest

from repro.chain import SECONDS_PER_DAY, SECONDS_PER_YEAR
from repro.ens import GRACE_PERIOD_SECONDS, labelhash, namehash
from repro.indexer import ENSSubgraph, SubgraphEndpoint

YEAR = SECONDS_PER_YEAR
DAY = SECONDS_PER_DAY


@pytest.fixture()
def subgraph(ens) -> ENSSubgraph:
    return ENSSubgraph(ens)


class TestDomainEntities:
    def test_registration_creates_domain(self, chain, ens, alice, subgraph) -> None:
        ens.register(alice, "vault", YEAR, set_addr_to=alice)
        domain = subgraph.domains[namehash("vault.eth").hex]
        assert domain.name == "vault.eth"
        assert domain.label_name == "vault"
        assert domain.labelhash == labelhash("vault").hex
        assert domain.registrant == alice.hex
        assert domain.owner == alice.hex
        assert domain.expiry_date == ens.name_expires("vault")

    def test_resolver_and_addr_indexed(self, chain, ens, alice, bob, subgraph) -> None:
        ens.register(alice, "vault", YEAR, set_addr_to=bob)
        domain = subgraph.domains[namehash("vault.eth").hex]
        assert domain.resolver_address == ens.resolver.address.hex
        assert domain.resolved_address == bob.hex

    def test_no_addr_means_none(self, chain, ens, alice, subgraph) -> None:
        ens.register(alice, "vault", YEAR)
        domain = subgraph.domains[namehash("vault.eth").hex]
        assert domain.resolved_address is None

    def test_renewal_updates_expiry(self, chain, ens, alice, subgraph) -> None:
        ens.register(alice, "vault", YEAR)
        ens.renew(alice, "vault", YEAR)
        domain = subgraph.domains[namehash("vault.eth").hex]
        assert domain.expiry_date == ens.name_expires("vault")
        registration = subgraph.registrations[domain.registration_ids[0]]
        assert [e.event_type for e in registration.events] == [
            "NameRegistered", "NameRenewed",
        ]

    def test_migrated_name_has_unknown_label(self, chain, ens, alice, subgraph) -> None:
        chain.call(
            ens.deployer, ens.controller.address, "migrate_legacy_name",
            label="legacy", owner=alice, expires=chain.now + 120 * DAY,
        )
        domain = subgraph.domains[namehash("legacy.eth").hex]
        assert domain.label_name is None
        assert domain.name is None

    def test_renewal_heals_unknown_label(self, chain, ens, alice, subgraph) -> None:
        chain.call(
            ens.deployer, ens.controller.address, "migrate_legacy_name",
            label="legacy", owner=alice, expires=chain.now + 120 * DAY,
        )
        ens.renew(alice, "legacy", YEAR)
        domain = subgraph.domains[namehash("legacy.eth").hex]
        assert domain.label_name == "legacy"
        assert domain.name == "legacy.eth"

    def test_subdomain_counted_not_materialized(self, chain, ens, alice, bob, subgraph) -> None:
        ens.register(alice, "vault", YEAR)
        chain.call(
            alice, ens.registry.address, "set_subnode_owner",
            node=namehash("vault.eth"), label=labelhash("pay"), owner=bob,
        )
        domain = subgraph.domains[namehash("vault.eth").hex]
        assert domain.subdomain_count == 1
        assert namehash("pay.vault.eth").hex not in subgraph.domains
        # re-assigning the same subnode does not double count
        chain.call(
            alice, ens.registry.address, "set_subnode_owner",
            node=namehash("vault.eth"), label=labelhash("pay"), owner=alice,
        )
        assert domain.subdomain_count == 1


class TestReRegistrationHistory:
    def test_dropcatch_creates_second_registration(
        self, chain, ens, alice, bob, subgraph
    ) -> None:
        ens.register(alice, "vault", YEAR, set_addr_to=alice)
        chain.advance_time(YEAR + GRACE_PERIOD_SECONDS + 22 * DAY)
        ens.register(bob, "vault", YEAR, set_addr_to=bob)
        domain = subgraph.domains[namehash("vault.eth").hex]
        assert len(domain.registration_ids) == 2
        first = subgraph.registrations[domain.registration_ids[0]]
        second = subgraph.registrations[domain.registration_ids[1]]
        assert first.registrant == alice.hex
        assert second.registrant == bob.hex
        assert second.registration_date > first.expiry_date

    def test_premium_recorded_on_catch(self, chain, ens, alice, bob, subgraph) -> None:
        ens.register(alice, "vault", YEAR)
        chain.advance_time(YEAR + GRACE_PERIOD_SECONDS + 2 * DAY)
        price = ens.rent_price("vault", YEAR)
        chain.fund(bob, price)
        receipt = ens.register(bob, "vault", YEAR, value=price)
        assert receipt.success, receipt.error
        domain = subgraph.domains[namehash("vault.eth").hex]
        second = subgraph.registrations[domain.registration_ids[1]]
        assert second.premium_wei > 0
        assert second.cost_wei == second.base_cost_wei + second.premium_wei

    def test_mid_registration_transfer_tracked(
        self, chain, ens, alice, bob, subgraph
    ) -> None:
        ens.register(alice, "vault", YEAR)
        ens.transfer(alice, "vault", bob)
        domain = subgraph.domains[namehash("vault.eth").hex]
        assert len(domain.registration_ids) == 1  # no new registration cycle
        registration = subgraph.registrations[domain.registration_ids[0]]
        assert registration.registrant == bob.hex
        assert registration.events[-1].event_type == "NameTransferred"

    def test_failed_registration_not_indexed(self, chain, ens, alice, bob, subgraph) -> None:
        ens.register(alice, "vault", YEAR)
        ens.register(bob, "vault", YEAR)  # fails: unavailable
        domain = subgraph.domains[namehash("vault.eth").hex]
        assert len(domain.registration_ids) == 1


class TestEndpoint:
    def test_query_round_trip(self, chain, ens, alice, subgraph) -> None:
        ens.register(alice, "vault", YEAR)
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        result = endpoint.query("{ domains { id name registrant } }")
        assert "errors" not in result
        assert result["data"]["domains"][0]["name"] == "vault.eth"

    def test_error_envelope(self, chain, ens, subgraph) -> None:
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        result = endpoint.query("{ nope { id } }")
        assert "unknown collection" in result["errors"][0]["message"]

    def test_indexing_gap_hides_deterministically(self, chain, ens, alice, subgraph) -> None:
        for label in ("aaa1", "aaa2", "aaa3", "aaa4", "aaa5"):
            ens.register(alice, label, YEAR)
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.5)
        first = endpoint.query("{ domains(first: 1000) { id } }")
        second = endpoint.query("{ domains(first: 1000) { id } }")
        assert first == second
        visible = len(first["data"]["domains"])
        missing = len(endpoint.missing_domain_ids())
        assert visible + missing == 5

    def test_gap_rate_validation(self, subgraph) -> None:
        with pytest.raises(ValueError):
            SubgraphEndpoint(subgraph, indexing_gap_rate=1.5)

    def test_registrations_collection(self, chain, ens, alice, subgraph) -> None:
        ens.register(alice, "vault", YEAR)
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        result = endpoint.query(
            "{ registrations { id registrant costWei events { eventType } } }"
        )
        rows = result["data"]["registrations"]
        assert rows[0]["registrant"] == alice.hex
        assert rows[0]["events"][0]["eventType"] == "NameRegistered"

    def test_registration_events_collection(self, chain, ens, alice, subgraph) -> None:
        ens.register(alice, "vault", YEAR)
        ens.renew(alice, "vault", YEAR)
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        result = endpoint.query(
            '{ registrationEvents(where: {eventType: "NameRenewed"})'
            " { id eventType registration domain expiryDate } }"
        )
        rows = result["data"]["registrationEvents"]
        assert len(rows) == 1
        assert rows[0]["domain"] == namehash("vault.eth").hex
        assert rows[0]["expiryDate"] == ens.name_expires("vault")

    def test_event_feed_ordering_and_cursor(self, chain, ens, alice, subgraph) -> None:
        for label in ("evta", "evtb", "evtc"):
            ens.register(alice, label, YEAR)
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        result = endpoint.query(
            "{ registrationEvents(orderBy: timestamp, first: 2) { id timestamp } }"
        )
        rows = result["data"]["registrationEvents"]
        assert len(rows) == 2
        assert rows[0]["timestamp"] <= rows[1]["timestamp"]

    def test_meta_introspection(self, chain, ens, alice, subgraph) -> None:
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        result = endpoint.query("{ _meta { block { number } } }")
        assert result["data"]["_meta"]["block"]["number"] == chain.height
        assert result["data"]["_meta"]["hasIndexingErrors"] is False

    def test_meta_alongside_entities(self, chain, ens, alice, subgraph) -> None:
        ens.register(alice, "metatest", YEAR)
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        result = endpoint.query("{ _meta { block { number } } domains { id } }")
        assert "_meta" in result["data"]
        assert len(result["data"]["domains"]) == 1

    def test_cache_invalidated_on_new_events(self, chain, ens, alice, subgraph) -> None:
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        before = endpoint.query("{ domains { id } }")["data"]["domains"]
        ens.register(alice, "cachetest", YEAR)
        after = endpoint.query("{ domains { id } }")["data"]["domains"]
        assert len(after) == len(before) + 1


class TestHostileQueryText:
    """Untrusted query text ends in the error envelope, never a traceback."""

    def test_malformed_number_is_a_query_error(self, chain, ens, subgraph) -> None:
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        result = endpoint.query("{domains(where:{x: 0..1}){id}}")
        assert "malformed number '0..1'" in result["errors"][0]["message"]

    def test_deep_list_nesting_is_a_query_error(self, chain, ens, subgraph) -> None:
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        value = "[" * 3000 + "]" * 3000
        result = endpoint.query("{domains(where:{id_in: %s}){id}}" % value)
        assert "nested deeper than" in result["errors"][0]["message"]

    def test_deep_selection_nesting_is_a_query_error(self, chain, ens, subgraph) -> None:
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        result = endpoint.query("{" + "domains {" * 3000 + "id" + "}" * 3001)
        assert "nested deeper than" in result["errors"][0]["message"]

    def test_escaped_quote_in_a_name_is_queryable(self, chain, ens, alice, subgraph) -> None:
        ens.register(alice, "vault", YEAR)
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        result = endpoint.query(
            r'{domains(where: {name_in: ["vault.eth", "a\"b.eth", "c\\d.eth"]})'
            " { name } }"
        )
        assert "errors" not in result
        assert result["data"]["domains"] == [{"name": "vault.eth"}]

    def test_escaped_quote_reaches_the_filter(self) -> None:
        from repro.indexer.query import parse_query

        (node,) = parse_query(r'{domains(where: {name: "a\"b\\c"}) { id }}')
        assert node.arguments["where"]["name"] == 'a"b\\c'

    def test_unknown_escape_is_a_query_error(self, chain, ens, subgraph) -> None:
        endpoint = SubgraphEndpoint(subgraph, indexing_gap_rate=0.0)
        result = endpoint.query(r'{domains(where: {name: "a\nb"}) { id }}')
        assert "unsupported escape" in result["errors"][0]["message"]

    def test_nesting_up_to_the_limit_parses(self) -> None:
        from repro.indexer.query import MAX_DEPTH, parse_query

        # arguments sit one level below their field, so a list value at
        # the top field can open MAX_DEPTH - 1 brackets
        value = "[" * (MAX_DEPTH - 1) + "]" * (MAX_DEPTH - 1)
        expected: list = []
        for _ in range(MAX_DEPTH - 2):
            expected = [expected]
        node = parse_query("{domains(where: %s){id}}" % value)[0]
        assert node.arguments["where"] == expected
