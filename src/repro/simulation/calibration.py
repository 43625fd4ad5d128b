"""Paper-target constants.

Everything the paper reports as a headline number lives here, so
benchmarks and EXPERIMENTS.md compare measured values against a single
source of truth. Targets are either *ratios/shapes* (reproducible at
any scale) or *absolute counts* (reported for context only — our
ecosystem is ~1000x smaller than mainnet).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PAPER"]


@dataclass(frozen=True)
class PaperTargets:
    """Published numbers from Muzammil et al., IMC 2024."""

    # §3 dataset
    total_domains: int = 3_103_000
    total_subdomains: int = 846_752
    unrecoverable_domains: int = 34_000
    recovery_rate: float = 0.999
    total_transactions: int = 9_725_874

    # §4 re-registration overview
    reregistered_domains: int = 241_283
    expired_not_reregistered: int = 1_170_000
    domains_reregistered_more_than_twice: int = 12_614
    addresses_with_multiple_catches: int = 19_763
    top_catcher_counts: tuple[int, int, int] = (5_070, 3_165, 2_421)
    peak_monthly_reregistrations: int = 25_193
    caught_on_premium_end_day: int = 20_014
    caught_shortly_after_premium: int = 56_792
    caught_at_premium: int = 16_092

    # §4.2 re-sale market
    listed_on_opensea: int = 19_987
    listed_fraction: float = 0.08
    sold_on_opensea: int = 12_130

    # §4.3 feature comparison (Table 1)
    avg_income_reregistered_usd: float = 69_980.0
    avg_income_control_usd: float = 21_400.0
    avg_unique_senders_reregistered: float = 8.0
    avg_unique_senders_control: float = 7.0
    avg_transactions_reregistered: float = 25.0
    avg_transactions_control: float = 24.0
    avg_length_reregistered: float = 8.0
    avg_length_control: float = 10.0
    contains_digit_reregistered: float = 0.023
    contains_digit_control: float = 0.271
    is_numeric_reregistered: float = 0.139
    is_numeric_control: float = 0.1348
    contains_dictionary_reregistered: float = 0.451
    contains_dictionary_control: float = 0.371
    is_dictionary_reregistered: float = 0.074
    is_dictionary_control: float = 0.0093
    contains_hyphen_reregistered: float = 0.028
    contains_hyphen_control: float = 0.0612
    contains_underscore_reregistered: float = 0.002
    contains_underscore_control: float = 0.0219

    # §4.4 financial losses
    loss_domains_noncustodial: int = 484
    loss_domains_with_coinbase: int = 940
    misdirected_txs_noncustodial: int = 1_617
    misdirected_txs_with_coinbase: int = 2_633
    avg_misdirected_usd_noncustodial: float = 1_944.0
    avg_misdirected_usd_with_coinbase: float = 1_877.0
    unique_senders_noncustodial: int = 195
    unique_senders_with_coinbase: int = 201
    profitable_catcher_fraction: float = 0.91
    avg_catch_profit_usd: float = 4_700.0

    # appendix B
    wallets_tested: int = 7
    wallets_showing_warning: int = 0

    @property
    def rereg_rate_among_expired(self) -> float:
        """Fraction of ever-expired domains that were re-registered."""
        expired_total = self.reregistered_domains + self.expired_not_reregistered
        return self.reregistered_domains / expired_total


PAPER = PaperTargets()

