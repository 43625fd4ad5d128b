"""Digital-wallet resolution study (Appendix B) and the §6 countermeasure."""

from .countermeasure import WARNING_WALLET, evaluate_countermeasure
from .wallet import STOCK_WALLETS, WalletProfile, survey_wallets

__all__ = [
    "STOCK_WALLETS",
    "WARNING_WALLET",
    "WalletProfile",
    "evaluate_countermeasure",
    "survey_wallets",
]
