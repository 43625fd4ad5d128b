"""Dropcatcher economics (Figure 10, §4.4 profit stats).

For every catch that attracted common-sender funds, compare what the
catcher paid to register (base + premium, converted to USD at the
registration date) against the misdirected income it received; report
the profitable fraction and the average profit — the paper's "91%
profited, 4,700 USD average" result.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.dataset import ENSDataset
from ..oracle.ethusd import EthUsdOracle
from .context import AnalysisContext
from .dropcatch import ReRegistration, find_reregistrations
from .losses import LossReport, detect_losses

__all__ = ["ProfitReport", "analyze_profit"]


@dataclass(frozen=True, slots=True)
class CatchEconomics:
    """Cost vs misdirected income for one catch with common senders."""

    domain_id: str
    name: str | None
    catcher: str
    cost_usd: float
    income_usd: float

    @property
    def profit_usd(self) -> float:
        """Income minus cost for this catch, in USD."""
        return self.income_usd - self.cost_usd

    @property
    def profitable(self) -> bool:
        """Whether the catch netted a positive USD profit."""
        return self.profit_usd > 0


@dataclass
class ProfitReport:
    """Aggregate of Figure 10."""

    catches: list[CatchEconomics]

    @property
    def profitable_fraction(self) -> float:
        """Fraction of catches that were profitable (0 when empty)."""
        if not self.catches:
            return 0.0
        return sum(1 for c in self.catches if c.profitable) / len(self.catches)

    @property
    def average_profit_usd(self) -> float:
        """Mean USD profit per catch (0 when empty)."""
        if not self.catches:
            return 0.0
        return sum(c.profit_usd for c in self.catches) / len(self.catches)

    def cost_and_income_series(self) -> tuple[list[float], list[float]]:
        """(costs, incomes) — the two Figure-10 groups."""
        return (
            [c.cost_usd for c in self.catches],
            [c.income_usd for c in self.catches],
        )


def analyze_profit(
    dataset: ENSDataset,
    oracle: EthUsdOracle,
    losses: LossReport | None = None,
    events: list[ReRegistration] | None = None,
    context: AnalysisContext | None = None,
) -> ProfitReport:
    """Pair each loss-receiving catch with its registration cost."""
    if events is None:
        events = (
            context.reregistrations()
            if context is not None
            else find_reregistrations(dataset)
        )
    if losses is None:
        losses = detect_losses(dataset, oracle, events=events, context=context)
    income_by_key: dict[tuple[str, str], float] = {}
    for flow in losses.flows:
        key = (flow.domain_id, flow.new_owner)
        income_by_key[key] = income_by_key.get(key, 0.0) + flow.usd_total(oracle)
    catches: list[CatchEconomics] = []
    for event in events:
        key = (event.domain_id, event.new_owner)
        income = income_by_key.get(key)
        if income is None:
            continue  # Figure 10 covers catches with common-sender funds
        cost_usd = oracle.wei_to_usd(
            event.next.cost_wei, event.next.registration_date
        )
        catches.append(
            CatchEconomics(
                domain_id=event.domain_id,
                name=event.name,
                catcher=event.new_owner,
                cost_usd=cost_usd,
                income_usd=income,
            )
        )
    return ProfitReport(catches=catches)
