"""The ecosystem scenario engine: a day-granular simulation of ENS life.

Drives the full stack — chain, ENS contracts, indexer, explorer,
marketplace — through the paper's 2020-02 → 2023-09 observation window:

* a migration cohort of legacy names that must renew by May 2020 (the
  Figure-2 spike),
* organic registrations following the rising-then-declining trend,
* per-domain payer populations (retail, Coinbase, custodial exchanges)
  that either resolve the name through ENS or paste the raw address,
* owners who renew with some probability and otherwise let names drop,
* dropcatchers who score released names on observed income and lexical
  quality, buy at premium / on the premium-end day / in the tail
  (Figure 3's mass points), and redirect resolution to themselves,
* post-catch misdirected payments from ENS-resolving senders (§4.4),
* an OpenSea re-sale market (§4.2).

Everything is deterministic given the config seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from datetime import date
from typing import TYPE_CHECKING

from ..chain.chain import Blockchain
from ..chain.transaction import Receipt
from ..chain.types import SECONDS_PER_DAY, Address, Wei
from ..crawler.checkpoint import CheckpointConfig
from ..crawler.etherscan_client import EtherscanClient
from ..crawler.opensea_client import OpenSeaClient
from ..crawler.pipeline import CrawlReport, DataCollectionPipeline
from ..crawler.subgraph_client import SubgraphClient
from ..datasets.dataset import ENSDataset
from ..datasets.schema import ResolutionRecord
from ..ens.deployment import ENSDeployment
from ..ens.namehash import ETH_NODE, child_nodes, labelhash, labelhashes
from ..ens.premium import GRACE_PERIOD_DAYS, PREMIUM_PERIOD_DAYS
from ..explorer.api import EtherscanAPI, VirtualClock
from ..explorer.database import ExplorerDatabase
from ..explorer.labels import (
    CATEGORY_COINBASE,
    CATEGORY_CUSTODIAL_EXCHANGE,
    LabelRegistry,
)
from ..indexer.endpoint import SubgraphEndpoint
from ..indexer.subgraph import ENSSubgraph
from ..marketplace.api import OpenSeaAPI
from ..marketplace.market import OpenSeaMarket
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..oracle.ethusd import EthUsdOracle, timestamp_of_day
from .agents import (
    SENDER_COINBASE,
    SENDER_CUSTODIAL,
    SENDER_RETAIL,
    DomainScript,
    DropcatcherAgent,
    GroundTruth,
    SenderProfile,
    TrueCatch,
)
from .config import ScenarioConfig
from .names import NameGenerator

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = ["ScenarioWorld", "run_scenario"]

_log = get_logger("simulation.scenario")

_YEAR_DAYS = 365
_OWNER_RECOVERY_PROB = 0.06  # owners who buy their own name back post-grace
_FUND_BUFFER = 1.25


def _day_number(day: date) -> int:
    return timestamp_of_day(day) // SECONDS_PER_DAY


@dataclass
class ScenarioWorld:
    """A fully-built ecosystem plus handles to every substrate."""

    config: ScenarioConfig
    chain: Blockchain
    ens: ENSDeployment
    oracle: EthUsdOracle
    subgraph: ENSSubgraph
    endpoint: SubgraphEndpoint
    explorer_db: ExplorerDatabase
    etherscan_api: EtherscanAPI
    label_registry: LabelRegistry
    market: OpenSeaMarket
    opensea_api: OpenSeaAPI
    scripts: list[DomainScript]
    dropcatchers: list[DropcatcherAgent]
    truth: GroundTruth
    resolutions: list[tuple[str, Receipt]]
    end_timestamp: int
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)

    @property
    def resolution_log(self) -> list[ResolutionRecord]:
        """The wallet-vendor resolution log, one record per ENS-routed payment.

        Built on each read from ``resolutions``, the (label, receipt)
        pair every ENS-routed payment appends: the payment's receipt
        already holds who paid whom, when, and in which transaction.
        """
        return [
            ResolutionRecord(
                name=label + ".eth",
                sender=receipt.from_address.hex,
                resolved_to=receipt.to_address.hex,
                timestamp=receipt.timestamp,
                tx_hash=receipt.tx_hash.hex,
            )
            for label, receipt in self.resolutions
        ]

    def build_pipeline(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint: CheckpointConfig | None = None,
    ) -> DataCollectionPipeline:
        """Fresh crawler clients wired to this world's endpoints.

        All three clients and the pipeline share one registry (fresh by
        default), so the exported crawler counters are exactly the ones
        the resulting :class:`CrawlReport` is built from.

        A ``fault_plan`` interposes the deterministic
        :mod:`repro.faults` wrappers between the clients and this
        world's endpoints — the clients cannot tell injected failures
        from real ones. A ``checkpoint`` config makes the run durable
        (periodic snapshots, optional resume).
        """
        registry = registry if registry is not None else MetricsRegistry()
        tracer = tracer if tracer is not None else Tracer(registry=registry)
        endpoint = self.endpoint
        etherscan_api = self.etherscan_api
        opensea_api = self.opensea_api
        if fault_plan is not None:
            from ..faults.injectors import (
                FaultyEtherscanAPI,
                FaultyOpenSeaAPI,
                FaultySubgraphEndpoint,
            )

            endpoint = FaultySubgraphEndpoint(endpoint, fault_plan, registry)
            etherscan_api = FaultyEtherscanAPI(etherscan_api, fault_plan, registry)
            opensea_api = FaultyOpenSeaAPI(opensea_api, fault_plan, registry)
        return DataCollectionPipeline(
            subgraph_client=SubgraphClient(endpoint, registry=registry),
            etherscan_client=EtherscanClient(etherscan_api, registry=registry),
            opensea_client=OpenSeaClient(opensea_api, registry=registry),
            registry=registry,
            tracer=tracer,
            checkpoint=checkpoint,
        )

    def run_crawl(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint: CheckpointConfig | None = None,
    ) -> tuple[ENSDataset, CrawlReport]:
        """Run the Figure-1 pipeline against this world."""
        pipeline = self.build_pipeline(
            registry=registry,
            tracer=tracer,
            fault_plan=fault_plan,
            checkpoint=checkpoint,
        )
        return pipeline.run(crawl_timestamp=self.end_timestamp)


class _ScenarioEngine:
    """Mutable state of one scenario run (constructed via run_scenario)."""

    def __init__(
        self,
        config: ScenarioConfig,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(registry=self.registry)
        # one pre-bound counter per event kind: the day loop is the
        # simulation's hottest path, so no label lookup per event
        events = self.registry.counter(
            "scenario_events_total", "Scenario events handled", labels=("kind",)
        )
        self._event_counters = {
            kind: events.labels(kind=kind) for kind in self._HANDLERS
        }
        self._days_gauge = self.registry.gauge(
            "scenario_days_simulated", "Days stepped through by the event loop"
        )
        self.rng = random.Random(config.seed)
        self.oracle = EthUsdOracle()
        self.chain = Blockchain(
            genesis_timestamp=timestamp_of_day(config.start) - 40 * SECONDS_PER_DAY,
            registry=self.registry,
        )
        self.ens = ENSDeployment.deploy(self.chain, eth_usd=self.oracle)
        self.subgraph = ENSSubgraph(self.ens)
        self.endpoint = SubgraphEndpoint(
            self.subgraph, indexing_gap_rate=config.indexing_gap_rate
        )
        self.labels = LabelRegistry()
        self.explorer_db = ExplorerDatabase(self.chain)
        self.etherscan_api = EtherscanAPI(
            database=self.explorer_db,
            labels=self.labels,
            clock=VirtualClock(),
            rate_limit_per_second=10_000,
        )
        self.market = OpenSeaMarket(
            Address.derive("opensea:market"), self.chain, self.ens.base
        )
        self.chain.deploy(self.market)
        self.truth = GroundTruth()
        self.resolutions: list[tuple[str, Receipt]] = []
        self.names = NameGenerator(self.rng)
        self.events: dict[int, list[tuple]] = {}
        self.scripts: list[DomainScript] = []
        self.dropcatchers: list[DropcatcherAgent] = []
        self.custodial_pool: list[Address] = []
        self.coinbase_pool: list[Address] = []
        self.start_day = _day_number(config.start)
        self.end_day = _day_number(config.end)
        # label -> script for the registration currently in force
        self.current_holder: dict[str, Address] = {}

    # -- scheduling ------------------------------------------------------------

    def schedule(self, day: int, event: tuple) -> None:
        if day <= self.end_day:
            self.events.setdefault(day, []).append(event)

    # -- setup -------------------------------------------------------------------

    def _setup_exchanges(self) -> None:
        config = self.config
        for i in range(config.n_custodial_exchanges):
            address = Address.derive(f"exchange:{i}")
            self.labels.tag(address, CATEGORY_CUSTODIAL_EXCHANGE)
            self.custodial_pool.append(address)
        for i in range(config.n_coinbase_addresses):
            address = Address.derive(f"coinbase:{i}")
            self.labels.tag(address, CATEGORY_COINBASE)
            self.coinbase_pool.append(address)

    def _setup_dropcatchers(self) -> None:
        config, rng = self.config, self.rng
        n_whales = max(1, round(config.n_dropcatchers * config.whale_fraction))
        for i in range(config.n_dropcatchers):
            is_whale = i < n_whales
            # Zipf-ish weights give the heavy actor concentration of Fig 5.
            weight = (8.0 if is_whale else 1.0) / (1.0 + 0.35 * i)
            self.dropcatchers.append(
                DropcatcherAgent(
                    address=Address.derive(f"dropcatcher:{i}"),
                    is_whale=is_whale,
                    weight=weight,
                )
            )

    def _registration_day_weights(self) -> tuple[list[int], list[float]]:
        """Per-month sampling weights tracing Figure 2's trend."""
        months: list[tuple[int, int]] = []
        cursor = date(self.config.start.year, self.config.start.month, 1)
        while cursor <= self.config.end:
            months.append((cursor.year, cursor.month))
            cursor = (
                date(cursor.year + 1, 1, 1)
                if cursor.month == 12
                else date(cursor.year, cursor.month + 1, 1)
            )
        peak = (2022, 11)
        weights: list[float] = []
        for year, month in months:
            ordinal = year * 12 + month
            peak_ordinal = peak[0] * 12 + peak[1]
            if ordinal <= peak_ordinal:
                start_ordinal = months[0][0] * 12 + months[0][1]
                span = max(1, peak_ordinal - start_ordinal)
                weight = 1.0 + 5.0 * (ordinal - start_ordinal) / span
            else:
                weight = 6.0 - 0.45 * (ordinal - peak_ordinal)
            weights.append(max(0.5, weight))
        month_start_days = [_day_number(date(y, m, 1)) for y, m in months]
        return month_start_days, weights

    def _sample_registration_day(
        self, month_days: list[int], weights: list[float]
    ) -> int:
        rng = self.rng
        index = rng.choices(range(len(month_days)), weights=weights)[0]
        day = month_days[index] + rng.randrange(28)
        return min(day, self.end_day - 30)

    def _build_sender(
        self, script_owner_day: int, duration_days: int, wealth: float
    ) -> tuple[SenderProfile, list[int], list[float]]:
        """One sender, its sorted payment days and one USD amount per day.

        The plan is returned, not stored: ``_setup_domains`` schedules
        each payment with its amount, and nothing reads the plan after.
        """
        config, rng = self.config, self.rng
        roll = rng.random()
        if roll < config.coinbase_sender_fraction:
            kind = SENDER_COINBASE
            address = rng.choice(self.coinbase_pool)
            uses_ens = True  # Coinbase resolves ENS (the only exchange that does)
        elif roll < config.coinbase_sender_fraction + config.custodial_sender_fraction:
            kind = SENDER_CUSTODIAL
            address = rng.choice(self.custodial_pool)
            uses_ens = False  # other exchanges paste raw addresses
        else:
            kind = SENDER_RETAIL
            address = Address.derive(f"retail:{rng.getrandbits(48)}")
            uses_ens = rng.random() < config.ens_sender_fraction
        tx_count = 1 + min(
            40, int(rng.expovariate(1.0 / max(0.1, config.mean_txs_per_sender - 1)))
        )
        span = duration_days * rng.uniform(
            config.sender_span_factor_low, config.sender_span_factor_high
        )
        schedule = sorted(
            script_owner_day + 1 + int(rng.random() * span) for _ in range(tx_count)
        )
        amounts = [
            wealth * rng.lognormvariate(config.income_log_mu, config.income_log_sigma)
            for _ in range(tx_count)
        ]
        sender = SenderProfile(address=address, kind=kind, uses_ens=uses_ens)
        return sender, schedule, amounts

    def _setup_domains(self) -> None:
        config, rng = self.config, self.rng
        month_days, weights = self._registration_day_weights()
        migration_deadline_day = _day_number(config.migration_deadline)
        for index in range(config.n_domains):
            name = self.names.generate()
            owner = Address.derive(f"owner:{index}")
            is_migrated = rng.random() < config.migration_fraction
            if is_migrated:
                registration_day = self.start_day
                duration_days = migration_deadline_day - self.start_day
            else:
                registration_day = self._sample_registration_day(month_days, weights)
                years = 1 + (
                    rng.randrange(1, 4) if rng.random() < config.multi_year_fraction else 0
                )
                duration_days = years * _YEAR_DAYS
            wealth = rng.lognormvariate(0.0, 1.1)
            script = DomainScript(
                index=index,
                name=name,
                owner=owner,
                registration_day=registration_day,
                duration_days=duration_days,
                is_migrated=is_migrated,
                wealth=wealth,
            )
            sender_count = max(
                1, min(40, int(rng.expovariate(1.0 / config.mean_senders_per_domain)) + 1)
            )
            plans = [
                self._build_sender(registration_day, max(duration_days, 180), wealth)
                for _ in range(sender_count)
            ]
            script.senders = [sender for sender, _, _ in plans]
            self.scripts.append(script)
            self.schedule(registration_day, ("register", index))
            for sender_index, (sender, days, amounts) in enumerate(plans):
                for day, amount in zip(days, amounts):
                    self.schedule(day, ("send", index, sender_index, amount))
                if (
                    sender.kind == SENDER_RETAIL
                    and rng.random() < config.retail_noise_prob
                ):
                    self._schedule_noise(sender.address, count=1)
        # every domain is registered, so hash its label and .eth node now,
        # many digests per keccak permutation; the memos serve the events
        child_nodes(ETH_NODE, labelhashes([s.name.label for s in self.scripts]))

    def _schedule_noise(self, sender: Address, count: int) -> None:
        """Payments to random catcher wallets that have nothing to do
        with any domain — the detector's false-positive surface."""
        config, rng = self.config, self.rng
        for _ in range(count):
            day = self.start_day + rng.randrange(
                max(1, self.end_day - self.start_day)
            )
            target = rng.choice(self.dropcatchers).address
            amount = rng.lognormvariate(
                config.income_log_mu, config.income_log_sigma
            )
            self.schedule(day, ("noise", sender, target, amount))

    def _setup_noise(self) -> None:
        """Exchange withdrawal traffic to arbitrary wallets."""
        config, rng = self.config, self.rng
        for exchange in self.custodial_pool:
            count = int(rng.expovariate(1.0 / config.custodial_noise_mean_txs))
            if count:
                self._schedule_noise(exchange, count=count)

    def _handle_noise(self, sender: Address, target: Address, amount: float) -> None:
        wei = self.oracle.usd_to_wei(max(0.01, amount), self.chain.now)
        self._fund_for(sender, wei)
        self.chain.transfer(sender, target, wei)

    _SUBDOMAIN_LABELS = ("pay", "wallet", "app", "mail", "shop", "vault", "sub")

    def _handle_subdomains(self, index: int, count: int) -> None:
        from ..ens.namehash import namehash

        script = self.scripts[index]
        label = script.name.label
        if self.current_holder.get(label) != script.owner:
            return
        parent = namehash(f"{label}.eth")
        sub_labels = self.rng.sample(self._SUBDOMAIN_LABELS, min(count, 7))
        label_hashes = labelhashes(sub_labels)
        # one batch for every node this call creates; the registry and
        # the indexer then read them from the memo
        child_nodes(parent, label_hashes)
        for label_hash in label_hashes:
            self.chain.call(
                script.owner,
                self.ens.registry.address,
                "set_subnode_owner",
                node=parent,
                label=label_hash,
                owner=script.owner,
            )

    # -- event handlers ------------------------------------------------------------

    def _fund_for(self, address: Address, amount: Wei) -> None:
        """Top up an address so it can afford ``amount`` (plus buffer)."""
        needed = int(amount * _FUND_BUFFER) + 10**15
        balance = self.chain.balance_of(address)
        if balance < needed:
            self.chain.fund(address, needed - balance)

    def _handle_register(self, index: int) -> None:
        script = self.scripts[index]
        label = script.name.label
        if script.is_migrated:
            expires_ts = timestamp_of_day(self.config.migration_deadline)
            receipt = self.chain.call(
                self.ens.deployer,
                self.ens.controller.address,
                "migrate_legacy_name",
                label=label,
                owner=script.owner,
                expires=expires_ts,
            )
            if not receipt.success:  # label collision safety net
                return
            # migrated names still resolve — owners set records manually
            self.ens.set_address_record(script.owner, f"{label}.eth", script.owner)
        else:
            duration = script.duration_days * SECONDS_PER_DAY
            price = self.ens.rent_price(label, duration)
            self._fund_for(script.owner, price)
            receipt = self.ens.register(
                script.owner, label, duration, set_addr_to=script.owner
            )
            if not receipt.success:
                return
        self.current_holder[label] = script.owner
        expiry_day = (self.ens.name_expires(label)) // SECONDS_PER_DAY
        self.schedule(expiry_day, ("expiry", index))
        # some owners carve out subdomains (pay.name.eth, ...): the paper
        # counts 846,752 of them alongside 3.1M second-level names
        if self.rng.random() < self.config.subdomain_prob:
            count = 1 + self.rng.randrange(self.config.max_subdomains_per_domain)
            day = self.chain.now // SECONDS_PER_DAY + 1 + self.rng.randrange(60)
            self.schedule(day, ("subdomains", index, count))

    # Speculators renew held names less eagerly than original owners.
    _CATCHER_RENEWAL_PROB = 0.25

    def _handle_expiry(self, index: int) -> None:
        script = self.scripts[index]
        label = script.name.label
        expires = self.ens.name_expires(label)
        holder = self.current_holder.get(label)
        if expires == 0 or holder is None:
            return
        if expires > self.chain.now + SECONDS_PER_DAY:
            return  # a renewal moved the expiry; a later event covers it
        renew_prob = (
            self.config.renewal_continue_prob
            if holder == script.owner
            else self._CATCHER_RENEWAL_PROB
        )
        if self.rng.random() < renew_prob:
            duration = _YEAR_DAYS * SECONDS_PER_DAY
            price = self.ens.pricing.renewal_price_wei(label, duration, self.chain.now)
            self._fund_for(holder, price)
            receipt = self.ens.renew(holder, label, duration)
            if receipt.success:
                new_expiry_day = self.ens.name_expires(label) // SECONDS_PER_DAY
                self.schedule(new_expiry_day, ("expiry", index))
                return
        if holder == script.owner:
            script.expired = True
        self.truth.expired_labels.append(label)
        release_day = expires // SECONDS_PER_DAY + GRACE_PERIOD_DAYS
        self.schedule(release_day, ("release", index))

    def _pick_catcher(self) -> DropcatcherAgent:
        weights = [catcher.weight for catcher in self.dropcatchers]
        return self.rng.choices(self.dropcatchers, weights=weights)[0]

    def _handle_release(self, index: int) -> None:
        config, rng = self.config, self.rng
        script = self.scripts[index]
        score = (
            config.catch_income_weight * math.log1p(script.income_usd)
            + config.catch_lexical_weight * script.name.attractiveness
            + rng.gauss(0.0, config.catch_noise_sigma)
        )
        if score <= config.catch_threshold:
            if rng.random() < _OWNER_RECOVERY_PROB:
                # the original owner buys their own name back post-premium
                offset = PREMIUM_PERIOD_DAYS + 1 + int(rng.expovariate(1 / 30.0))
                day = min(
                    self.chain.now // SECONDS_PER_DAY + offset, self.end_day
                )
                self.schedule(day, ("owner_recover", index))
            return
        catcher = self._pick_catcher()
        roll = rng.random()
        if roll < config.premium_buy_fraction and catcher.is_whale:
            offset = rng.uniform(12.0, PREMIUM_PERIOD_DAYS - 0.5)
            pays_premium = True
        elif roll < config.premium_buy_fraction + config.same_day_fraction:
            offset = float(PREMIUM_PERIOD_DAYS)
            pays_premium = False
        elif roll < (
            config.premium_buy_fraction
            + config.same_day_fraction
            + config.early_fraction
        ):
            offset = PREMIUM_PERIOD_DAYS + 1 + min(8.0, rng.expovariate(1 / 3.0))
            pays_premium = False
        else:
            offset = PREMIUM_PERIOD_DAYS + 1 + rng.expovariate(
                1.0 / config.late_tail_mean_days
            )
            pays_premium = False
        day = self.chain.now // SECONDS_PER_DAY + int(offset)
        catcher_index = self.dropcatchers.index(catcher)
        self.schedule(day, ("catch", index, catcher_index, pays_premium))

    def _handle_owner_recover(self, index: int) -> None:
        script = self.scripts[index]
        label = script.name.label
        if not self.ens.available(label):
            return
        duration = _YEAR_DAYS * SECONDS_PER_DAY
        price = self.ens.rent_price(label, duration)
        self._fund_for(script.owner, price)
        receipt = self.ens.register(
            script.owner, label, duration, set_addr_to=script.owner
        )
        if receipt.success:
            self.truth.owner_recoveries.append(label)
            self.current_holder[label] = script.owner
            expiry_day = self.ens.name_expires(label) // SECONDS_PER_DAY
            self.schedule(expiry_day, ("expiry", index))

    def _handle_catch(self, index: int, catcher_index: int, pays_premium: bool) -> None:
        config, rng = self.config, self.rng
        script = self.scripts[index]
        catcher = self.dropcatchers[catcher_index]
        label = script.name.label
        if not self.ens.available(label):
            return
        expiry_before = self.ens.name_expires(label)
        duration = _YEAR_DAYS * SECONDS_PER_DAY
        price = self.ens.rent_price(label, duration)
        self._fund_for(catcher.address, price)
        receipt = self.ens.register(
            catcher.address, label, duration, set_addr_to=catcher.address
        )
        if not receipt.success:
            return
        script.caught = True
        catcher.catch_count += 1
        self.current_holder[label] = catcher.address
        registered_events = [
            log
            for log in receipt.logs
            if log.event == "NameRegistered" and log.contract == self.ens.controller.address
        ]
        if registered_events:
            premium_wei = registered_events[0].param("premium")
            cost_wei = premium_wei + registered_events[0].param("base_cost")
        else:  # pragma: no cover — the controller always emits the event
            premium_wei, cost_wei = 0, price
        catcher.spent_wei += cost_wei
        # the catcher's own registration can lapse and be caught again
        self.schedule(
            self.ens.name_expires(label) // SECONDS_PER_DAY, ("expiry", index)
        )
        self.truth.catches.append(
            TrueCatch(
                label=label,
                previous_owner=script.owner.hex,
                new_owner=catcher.address.hex,
                expiry_timestamp=expiry_before,
                catch_timestamp=self.chain.now,
                cost_wei=cost_wei,
                premium_wei=premium_wei,
                paid_premium=pays_premium,
            )
        )
        # misdirected follow-up payments from ENS-resolving senders
        for sender_index, sender in enumerate(script.senders):
            if not sender.uses_ens:
                continue
            if rng.random() >= config.misdirect_continue_prob:
                continue
            # most senders notice after a single misdirected payment
            # (the paper's Figure-9 mode is one-to-one)
            extra = min(
                config.misdirect_max_txs, 1 + int(rng.random() < 0.25)
            )
            day = self.chain.now // SECONDS_PER_DAY
            for _ in range(extra):
                day += 1 + int(rng.expovariate(1 / 25.0))
                amount = script.wealth * rng.lognormvariate(
                    config.income_log_mu, config.income_log_sigma
                )
                self.schedule(day, ("misdirect", index, sender_index, amount))
        # re-sale listing
        if rng.random() < config.list_prob:
            list_day = self.chain.now // SECONDS_PER_DAY + 2 + int(
                rng.expovariate(1 / 20.0)
            )
            self.schedule(list_day, ("list", index, catcher_index))

    def _execute_payment(
        self, script: DomainScript, sender: SenderProfile, amount_usd: float
    ) -> None:
        """One payment: resolve (or paste) and transfer, tracking truth."""
        label = script.name.label
        if sender.uses_ens:
            target = self.ens.resolve(f"{label}.eth")
            if target is None:
                return
        else:
            target = script.owner
        wei = self.oracle.usd_to_wei(max(0.01, amount_usd), self.chain.now)
        self._fund_for(sender.address, wei)
        receipt = self.chain.transfer(sender.address, target, wei)
        if sender.uses_ens:
            # the wallet-vendor resolution log the paper could not obtain
            self.resolutions.append((label, receipt))
        holder = self.current_holder.get(label)
        expires = self.ens.name_expires(label)
        expired = expires != 0 and self.chain.now > expires
        # fully released = past grace, i.e. an attacker could hold it now
        released = expires != 0 and (
            self.chain.now > expires + GRACE_PERIOD_DAYS * SECONDS_PER_DAY
        )
        if target == script.owner and holder == script.owner and not expired:
            script.income_usd += amount_usd
        if sender.uses_ens and released and holder == script.owner:
            # funds sent to a lapsed, registerable name still resolving to
            # the old owner — Figure 7's "hijackable" set
            self.truth.hijackable_tx_hashes.add(receipt.tx_hash.hex)
        if sender.uses_ens and holder is not None and target == holder and (
            holder != script.owner
        ):
            self.truth.misdirected_tx_hashes.add(receipt.tx_hash.hex)

    def _handle_send(self, index: int, sender_index: int, amount: float) -> None:
        script = self.scripts[index]
        sender = script.senders[sender_index]
        if script.name.label not in self.current_holder:
            return  # registration failed or not yet processed
        self._execute_payment(script, sender, amount)

    def _handle_misdirect(self, index: int, sender_index: int, amount: float) -> None:
        script = self.scripts[index]
        sender = script.senders[sender_index]
        self._execute_payment(script, sender, amount)

    def _handle_list(self, index: int, catcher_index: int) -> None:
        config, rng = self.config, self.rng
        script = self.scripts[index]
        catcher = self.dropcatchers[catcher_index]
        label = script.name.label
        if self.current_holder.get(label) != catcher.address:
            return
        token = labelhash(label)
        floor_usd = 50.0 + script.income_usd * 0.1
        price_usd = floor_usd * rng.uniform(
            config.resale_markup_low, config.resale_markup_high
        )
        price_wei = self.oracle.usd_to_wei(price_usd, self.chain.now)
        # Seaport-style flow: approve the market, then list through it
        receipt = self.chain.call(
            catcher.address,
            self.ens.base.address,
            "approve",
            to=self.market.address,
            label_hash=token,
        )
        if not receipt.success:
            return
        receipt = self.chain.call(
            catcher.address,
            self.market.address,
            "list_token",
            token_id=token,
            price_wei=price_wei,
        )
        if not receipt.success:
            return
        self.truth.listed_labels.append(label)
        if rng.random() < config.sale_prob:
            sale_day = self.chain.now // SECONDS_PER_DAY + 3 + int(
                rng.expovariate(1 / 30.0)
            )
            self.schedule(sale_day, ("sale", index, catcher_index))

    def _handle_sale(self, index: int, catcher_index: int) -> None:
        script = self.scripts[index]
        catcher = self.dropcatchers[catcher_index]
        label = script.name.label
        token = labelhash(label)
        if not self.market.is_listed(token):
            return
        if self.current_holder.get(label) != catcher.address:
            return
        buyer = Address.derive(f"nft-buyer:{self.rng.getrandbits(48)}")
        price = self.market.listing_price(token)
        assert price is not None
        self._fund_for(buyer, price)
        receipt = self.chain.call(
            buyer, self.market.address, "buy", value=price, token_id=token
        )
        if receipt.success:
            self.current_holder[label] = buyer
            self.truth.sold_labels.append(label)
            # most buyers repoint the name at their own wallet
            if self.rng.random() < 0.7:
                self.ens.set_address_record(buyer, f"{label}.eth", buyer)

    # -- main loop -------------------------------------------------------------------

    _HANDLERS = {
        "register": "_handle_register",
        "send": "_handle_send",
        "expiry": "_handle_expiry",
        "release": "_handle_release",
        "catch": "_handle_catch",
        "owner_recover": "_handle_owner_recover",
        "misdirect": "_handle_misdirect",
        "noise": "_handle_noise",
        "subdomains": "_handle_subdomains",
        "list": "_handle_list",
        "sale": "_handle_sale",
    }

    def run(self) -> ScenarioWorld:
        tracer = self.tracer
        with tracer.span("scenario"):
            with tracer.span("scenario.setup"):
                self._setup_exchanges()
                self._setup_dropcatchers()
                self._setup_domains()
                self._setup_noise()
            with tracer.span("scenario.event_loop"):
                counters = self._event_counters
                for day in range(self.start_day, self.end_day + 1):
                    day_timestamp = day * SECONDS_PER_DAY
                    if day_timestamp > self.chain.now:
                        self.chain.set_time(day_timestamp)
                    queue = self.events.pop(day, None)
                    if not queue:
                        continue
                    # handlers may append same-day events; iterate by index
                    position = 0
                    while position < len(queue):
                        event = queue[position]
                        position += 1
                        handler = getattr(self, self._HANDLERS[event[0]])
                        handler(*event[1:])
                        counters[event[0]].inc()
                self._days_gauge.set(self.end_day - self.start_day + 1)
            with tracer.span("scenario.explorer_sync"):
                self.explorer_db.sync()
        _log.info(
            "scenario.finished",
            domains=self.config.n_domains,
            seed=self.config.seed,
            blocks=self.chain.height,
            catches=len(self.truth.catches),
        )
        return ScenarioWorld(
            config=self.config,
            chain=self.chain,
            ens=self.ens,
            oracle=self.oracle,
            subgraph=self.subgraph,
            endpoint=self.endpoint,
            explorer_db=self.explorer_db,
            etherscan_api=self.etherscan_api,
            label_registry=self.labels,
            market=self.market,
            opensea_api=OpenSeaAPI(self.market),
            scripts=self.scripts,
            dropcatchers=self.dropcatchers,
            truth=self.truth,
            resolutions=self.resolutions,
            end_timestamp=self.chain.now,
            registry=self.registry,
            tracer=self.tracer,
        )


def run_scenario(
    config: ScenarioConfig | None = None,
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> ScenarioWorld:
    """Build and run one ecosystem; returns the finished world.

    ``registry``/``tracer`` collect the run's chain counters, per-kind
    event counts, and phase spans; fresh instances are created (and
    exposed as ``world.registry`` / ``world.tracer``) when omitted.
    """
    return _ScenarioEngine(
        config or ScenarioConfig(), registry=registry, tracer=tracer
    ).run()
