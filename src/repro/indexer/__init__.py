"""The Graph-like subgraph substrate for ENS."""

from .endpoint import MAX_FIRST, SubgraphEndpoint
from .entities import (
    EVENT_NAME_MIGRATED,
    EVENT_NAME_REGISTERED,
    EVENT_NAME_RENEWED,
    EVENT_NAME_TRANSFERRED,
    DomainEntity,
    RegistrationEntity,
    RegistrationEventRecord,
)
from .query import GraphQLError, execute_query, parse_query
from .subgraph import ENSSubgraph

__all__ = [
    "DomainEntity",
    "ENSSubgraph",
    "EVENT_NAME_MIGRATED",
    "EVENT_NAME_REGISTERED",
    "EVENT_NAME_RENEWED",
    "EVENT_NAME_TRANSFERRED",
    "GraphQLError",
    "MAX_FIRST",
    "RegistrationEntity",
    "RegistrationEventRecord",
    "SubgraphEndpoint",
    "execute_query",
    "parse_query",
]
