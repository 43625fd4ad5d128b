"""Data-collection clients and pipeline (the paper's released crawler)."""

from .._lazy import lazy_exports
from ..faults.retry import CrawlError
from .checkpoint import CheckpointConfig, CheckpointStore, CrawlState
from .etherscan_client import EtherscanClient
from .opensea_client import OpenSeaClient
from .pipeline import CrawlReport, DataCollectionPipeline, coverage_fields
from .subgraph_client import SubgraphClient

# persistence: an in-memory crawl never reads or writes a dataset directory
__getattr__, __dir__ = lazy_exports(
    __name__,
    {"storage": ("dataset_digest", "load_dataset", "pack_dataset", "save_dataset")},
)

__all__ = [
    "CheckpointConfig",
    "CheckpointStore",
    "CrawlError",
    "CrawlReport",
    "CrawlState",
    "DataCollectionPipeline",
    "EtherscanClient",
    "OpenSeaClient",
    "SubgraphClient",
    "coverage_fields",
    "dataset_digest",
    "load_dataset",
    "pack_dataset",
    "save_dataset",
]
