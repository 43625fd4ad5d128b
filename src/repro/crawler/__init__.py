"""Data-collection clients and pipeline (the paper's released crawler)."""

from .._lazy import lazy_exports
from .checkpoint import CheckpointConfig, CheckpointStore, CrawlState
from .etherscan_client import EtherscanClient, EtherscanCrawlError
from .opensea_client import OpenSeaClient
from .pipeline import CrawlReport, DataCollectionPipeline, coverage_fields
from .subgraph_client import SubgraphClient, SubgraphCrawlError

# persistence: an in-memory crawl never reads or writes a dataset directory
__getattr__, __dir__ = lazy_exports(
    __name__,
    {"storage": ("dataset_digest", "load_dataset", "pack_dataset", "save_dataset")},
)

__all__ = [
    "CheckpointConfig",
    "CheckpointStore",
    "CrawlReport",
    "CrawlState",
    "DataCollectionPipeline",
    "EtherscanClient",
    "EtherscanCrawlError",
    "OpenSeaClient",
    "SubgraphClient",
    "SubgraphCrawlError",
    "coverage_fields",
    "dataset_digest",
    "load_dataset",
    "pack_dataset",
    "save_dataset",
]
