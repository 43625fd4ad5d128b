"""Data-collection clients and pipeline (the paper's released crawler)."""

from .checkpoint import CheckpointConfig, CheckpointStore, CrawlState
from .etherscan_client import EtherscanClient, EtherscanCrawlError
from .opensea_client import OpenSeaClient
from .pipeline import CrawlReport, DataCollectionPipeline, coverage_fields
from .storage import dataset_digest, load_dataset, pack_dataset, save_dataset
from .subgraph_client import SubgraphClient, SubgraphCrawlError

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
