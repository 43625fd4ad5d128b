"""Dataset model shared by the crawler and the analyses.

Two interchangeable stores implement the same read protocol: the
mutable object graph (:class:`ENSDataset`) and the read-only
array-backed :class:`ColumnarDataset` (mmap-persisted) — see
:mod:`repro.datasets.columnar`. The columnar store and the delta
types load on first use (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports
from .dataset import DELTA_LOG_LIMIT, DatasetIntegrityError, ENSDataset
from .schema import DomainRecord, MarketEventRecord, RegistrationRecord, TxRecord

# an in-memory crawl and report use neither the columnar store nor deltas
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "columnar": (
            "ColumnarDataset",
            "ColumnarFormatError",
            "ColumnarImmutableError",
            "encode_dataset",
            "write_columnar",
        ),
        "delta": ("AppliedDelta", "DatasetDelta"),
    },
)

__all__ = [
    "AppliedDelta",
    "ColumnarDataset",
    "ColumnarFormatError",
    "ColumnarImmutableError",
    "DELTA_LOG_LIMIT",
    "DatasetDelta",
    "DatasetIntegrityError",
    "DomainRecord",
    "ENSDataset",
    "MarketEventRecord",
    "RegistrationRecord",
    "TxRecord",
    "encode_dataset",
    "write_columnar",
]
