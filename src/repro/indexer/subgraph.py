"""Event-sourced indexer that builds ENS subgraph entities from chain logs.

Plays the role of The Graph's indexer for the ENS subgraph: it
subscribes to the deployment's contracts and folds every event into the
entity store that :mod:`repro.indexer.endpoint` serves over GraphQL.

Like the real subgraph, plaintext labels are only learnable from events
that carry them (the controller's ``NameRegistered``/``NameRenewed``).
Names minted through the migration path arrive as bare labelhashes and
stay ``labelName=None`` until a label-carrying event heals them — the
same "unknown label" phenomenon real ENS tooling deals with.
"""

from __future__ import annotations

from ..chain.chain import Blockchain
from ..chain.transaction import Log
from ..chain.types import Address, Hash32
from ..ens.deployment import ENSDeployment
from ..ens.namehash import ETH_NODE, child_node
from .entities import (
    EVENT_NAME_MIGRATED,
    EVENT_NAME_REGISTERED,
    EVENT_NAME_RENEWED,
    EVENT_NAME_TRANSFERRED,
    DomainEntity,
    RegistrationEntity,
    RegistrationEventRecord,
)

__all__ = ["ENSSubgraph"]


class ENSSubgraph:
    """Entity store + event handlers for one ENS deployment.

    Constructed *before* activity: it indexes live via the chain's log
    subscription, so it sees only the logs emitted after it was built.
    """

    def __init__(self, deployment: ENSDeployment) -> None:
        self._deployment = deployment
        self.domains: dict[str, DomainEntity] = {}
        self.registrations: dict[str, RegistrationEntity] = {}
        self._domain_id_by_labelhash: dict[str, str] = {}
        self._registration_counter: dict[str, int] = {}
        self._known_subnodes: set[str] = set()
        self._indexed_log_count = 0
        deployment.chain.subscribe_logs(self._on_log)

    # -- identity helpers ---------------------------------------------------

    @staticmethod
    def _node_for_labelhash(label_hash: Hash32) -> str:
        return child_node(ETH_NODE, label_hash).hex

    @property
    def indexed_log_count(self) -> int:
        """How many logs the indexer has folded (diagnostics)."""
        return self._indexed_log_count

    @property
    def chain(self) -> Blockchain:
        """The chain this subgraph indexes (for _meta introspection)."""
        return self._deployment.chain

    # -- event routing ---------------------------------------------------------

    def _on_log(self, log: Log) -> None:
        deployment = self._deployment
        if log.contract == deployment.controller.address:
            if log.event == "NameRegistered":
                self._on_controller_registered(log)
            elif log.event == "NameRenewed":
                self._on_controller_renewed(log)
        elif log.contract == deployment.base.address:
            if log.event == "NameMigrated":
                self._on_migrated(log)
            elif log.event == "Transfer":
                self._on_nft_transfer(log)
        elif log.contract == deployment.registry.address:
            if log.event == "NewOwner":
                self._on_registry_new_owner(log)
            elif log.event == "Transfer":
                self._on_registry_transfer(log)
            elif log.event == "NewResolver":
                self._on_new_resolver(log)
        elif log.contract == deployment.resolver.address:
            if log.event == "AddrChanged":
                self._on_addr_changed(log)
        self._indexed_log_count += 1

    # -- domain/registration bookkeeping ------------------------------------------

    def _ensure_domain(
        self,
        label_hash: Hash32,
        label: str | None,
        owner: str,
        timestamp: int,
    ) -> DomainEntity:
        domain_id = self._node_for_labelhash(label_hash)
        domain = self.domains.get(domain_id)
        if domain is None:
            domain = DomainEntity(
                id=domain_id,
                name=f"{label}.eth" if label else None,
                label_name=label,
                labelhash=label_hash.hex,
                parent_id=ETH_NODE.hex,
                created_at=timestamp,
                owner=owner,
            )
            self.domains[domain_id] = domain
            self._domain_id_by_labelhash[label_hash.hex] = domain_id
        elif label and domain.label_name is None:
            # heal an unknown label once a plaintext-carrying event shows up
            domain.label_name = label
            domain.name = f"{label}.eth"
        return domain

    def _new_registration(
        self,
        domain: DomainEntity,
        label: str | None,
        registrant: str,
        timestamp: int,
        expiry: int,
        base_cost: int,
        premium: int,
        event: RegistrationEventRecord,
    ) -> None:
        ordinal = self._registration_counter.get(domain.labelhash, 0)
        self._registration_counter[domain.labelhash] = ordinal + 1
        registration = RegistrationEntity(
            id=f"{domain.labelhash}-{ordinal}",
            domain_id=domain.id,
            label_name=label,
            registration_date=timestamp,
            expiry_date=expiry,
            registrant=registrant,
            cost_wei=base_cost + premium,
            base_cost_wei=base_cost,
            premium_wei=premium,
            events=[event],
        )
        self.registrations[registration.id] = registration
        domain.registration_ids.append(registration.id)
        domain.registrant = registrant
        domain.owner = registrant
        domain.expiry_date = expiry

    def _current_registration(self, domain: DomainEntity) -> RegistrationEntity | None:
        if not domain.registration_ids:
            return None
        return self.registrations[domain.registration_ids[-1]]

    @staticmethod
    def _event_record(log: Log, event_type: str, **extra) -> RegistrationEventRecord:
        return RegistrationEventRecord(
            id=f"{log.tx_hash.hex}-{log.log_index}",
            event_type=event_type,
            block_number=log.block_number,
            timestamp=log.timestamp,
            tx_hash=log.tx_hash.hex,
            **extra,
        )

    # -- handlers -------------------------------------------------------------------

    def _on_controller_registered(self, log: Log) -> None:
        label: str = log.param("label")
        label_hash: Hash32 = log.param("label_hash")
        owner: Address = log.param("owner")
        base_cost: int = log.param("base_cost")
        premium: int = log.param("premium")
        expires: int = log.param("expires")
        domain = self._ensure_domain(label_hash, label, owner.hex, log.timestamp)
        event = self._event_record(
            log,
            EVENT_NAME_REGISTERED,
            registrant=owner.hex,
            expiry_date=expires,
            cost_wei=base_cost + premium,
            base_cost_wei=base_cost,
            premium_wei=premium,
        )
        self._new_registration(
            domain, label, owner.hex, log.timestamp, expires, base_cost, premium, event
        )

    def _on_controller_renewed(self, log: Log) -> None:
        label: str = log.param("label")
        label_hash: Hash32 = log.param("label_hash")
        cost: int = log.param("cost")
        expires: int = log.param("expires")
        domain_id = self._domain_id_by_labelhash.get(label_hash.hex)
        if domain_id is None:
            return  # renewal of a name indexed before our start block
        domain = self.domains[domain_id]
        if domain.label_name is None:
            domain.label_name = label
            domain.name = f"{label}.eth"
        registration = self._current_registration(domain)
        if registration is None:
            return
        registration.expiry_date = expires
        registration.events.append(
            self._event_record(
                log, EVENT_NAME_RENEWED, expiry_date=expires, cost_wei=cost
            )
        )
        domain.expiry_date = expires

    def _on_migrated(self, log: Log) -> None:
        label_hash: Hash32 = log.param("token")
        owner: Address = log.param("owner")
        expires: int = log.param("expires")
        # Migration events carry no plaintext label.
        domain = self._ensure_domain(label_hash, None, owner.hex, log.timestamp)
        event = self._event_record(
            log, EVENT_NAME_MIGRATED, registrant=owner.hex, expiry_date=expires
        )
        self._new_registration(
            domain, None, owner.hex, log.timestamp, expires, 0, 0, event
        )

    def _on_nft_transfer(self, log: Log) -> None:
        from ..chain.types import ZERO_ADDRESS

        from_address: Address = log.param("from_address")
        if from_address == ZERO_ADDRESS:
            return  # mint — handled by the registration handlers
        label_hash: Hash32 = log.param("token")
        to_address: Address = log.param("to_address")
        domain_id = self._domain_id_by_labelhash.get(label_hash.hex)
        if domain_id is None:
            return
        domain = self.domains[domain_id]
        registration = self._current_registration(domain)
        if registration is not None and registration.registrant != to_address.hex:
            # A mid-registration hand-over (sale, treasury move, ...).
            registration.registrant = to_address.hex
            registration.events.append(
                self._event_record(
                    log, EVENT_NAME_TRANSFERRED, registrant=to_address.hex
                )
            )
        domain.owner = to_address.hex
        domain.registrant = to_address.hex

    def _on_registry_new_owner(self, log: Log) -> None:
        """Subnode creation: .eth 2LDs become domain entities; deeper
        subdomains only bump their parent's ``subdomainCount`` (the
        paper reports 846K subdomains as a single aggregate)."""
        node: Hash32 = log.param("node")
        label_hash: Hash32 = log.param("label")
        owner: Address = log.param("owner")
        if node == ETH_NODE:
            domain = self._ensure_domain(label_hash, None, owner.hex, log.timestamp)
            domain.owner = owner.hex
        else:
            parent = self.domains.get(node.hex)
            if parent is not None:
                subnode = child_node(node, label_hash).hex
                if subnode not in self._known_subnodes:
                    self._known_subnodes.add(subnode)
                    parent.subdomain_count += 1

    def _on_registry_transfer(self, log: Log) -> None:
        node: Hash32 = log.param("node")
        domain = self.domains.get(node.hex)
        if domain is not None:
            owner: Address = log.param("owner")
            domain.owner = owner.hex

    def _on_new_resolver(self, log: Log) -> None:
        node: Hash32 = log.param("node")
        domain = self.domains.get(node.hex)
        if domain is not None:
            resolver: Address = log.param("resolver")
            domain.resolver_address = resolver.hex

    def _on_addr_changed(self, log: Log) -> None:
        node: Hash32 = log.param("node")
        domain = self.domains.get(node.hex)
        if domain is not None:
            addr: Address = log.param("addr")
            from ..chain.types import ZERO_ADDRESS

            domain.resolved_address = None if addr == ZERO_ADDRESS else addr.hex
