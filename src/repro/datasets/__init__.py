"""Dataset model shared by the crawler and the analyses.

Two interchangeable stores implement the same read protocol: the
mutable object graph (:class:`ENSDataset`) and the read-only
array-backed :class:`ColumnarDataset` (mmap-persisted) — see
:mod:`repro.datasets.columnar`.
"""

from .columnar import (
    ColumnarDataset,
    ColumnarFormatError,
    ColumnarImmutableError,
    encode_dataset,
    write_columnar,
)
from .dataset import DELTA_LOG_LIMIT, DatasetIntegrityError, ENSDataset
from .delta import AppliedDelta, DatasetDelta
from .schema import DomainRecord, MarketEventRecord, RegistrationRecord, TxRecord

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
