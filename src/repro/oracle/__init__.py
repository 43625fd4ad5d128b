"""ETH-USD price feed substrate (synthetic Yahoo-Finance substitute)."""

from .ethusd import EthUsdOracle, timestamp_of_day

__all__ = ["EthUsdOracle", "timestamp_of_day"]
