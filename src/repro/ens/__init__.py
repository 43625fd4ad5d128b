"""ENS protocol implementation (registry, registrar, resolver, pricing).

The public surface downstream code uses:

* :func:`namehash` / :func:`labelhash` — EIP-137 hashing (real keccak).
* :func:`normalize_name` / :func:`registrable_label` — ENSIP-15-lite.
* :class:`ENSDeployment` — deploy + drive a full ENS instance.
* :class:`PremiumCurve` — the 21-day Dutch-auction premium.
* :class:`RentPriceOracle` — USD-denominated base pricing.
"""

from .deployment import ENSDeployment
from .namehash import ETH_NODE, ROOT_NODE, labelhash, namehash
from .normalize import MIN_REGISTRABLE_LABEL_LENGTH, normalize_name, registrable_label
from .premium import (
    DEFAULT_PREMIUM,
    GRACE_PERIOD_DAYS,
    PREMIUM_PERIOD_DAYS,
    PremiumCurve,
)
from .pricing import RentPriceOracle
from .registrar import GRACE_PERIOD_SECONDS, BaseRegistrar, RegistrarController
from .registry import ENSRegistry
from .resolver import PublicResolver
from .reverse import ReverseRegistrar

__all__ = [
    "ReverseRegistrar",
    "BaseRegistrar",
    "DEFAULT_PREMIUM",
    "ENSDeployment",
    "ENSRegistry",
    "ETH_NODE",
    "GRACE_PERIOD_DAYS",
    "GRACE_PERIOD_SECONDS",
    "MIN_REGISTRABLE_LABEL_LENGTH",
    "PREMIUM_PERIOD_DAYS",
    "PremiumCurve",
    "PublicResolver",
    "RegistrarController",
    "RentPriceOracle",
    "ROOT_NODE",
    "labelhash",
    "namehash",
    "normalize_name",
    "registrable_label",
]
