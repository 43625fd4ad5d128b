"""Helpers shared by the crawler client tests."""

from __future__ import annotations

from repro.crawler import SubgraphClient
from repro.datasets.schema import DomainRecord


def all_domains(client: SubgraphClient) -> list[DomainRecord]:
    """Every domain the endpoint serves, one ``id_gt`` cursor page at a time."""
    records: list[DomainRecord] = []
    cursor = ""
    while page := client.fetch_domains_page(cursor):
        records.extend(page)
        cursor = page[-1].domain_id
    return records
