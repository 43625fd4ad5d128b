"""Resident query server over a loaded dataset (``repro serve``).

The long-lived service mode from the roadmap: load an
:class:`~repro.datasets.dataset.ENSDataset` (or the mmap-backed
columnar store) once, build a warm analysis index, and answer report /
domain / dropcatch / hijackable queries over plain HTTP — stdlib only,
no new dependencies.

* :mod:`repro.serve.app` — routing, warm state, response construction,
* :mod:`repro.serve.query` — query canonicalization + the versioned
  response cache,
* :mod:`repro.serve.server` — the threaded HTTP/1.1 listener with
  input limits and graceful drain,
* :mod:`repro.serve.loadgen` — the threaded load generator behind
  ``--load-gen`` and the throughput benchmark,
* :mod:`repro.serve.watch` — the ``--watch`` poller feeding on-disk
  delta appends into the running app.

See ``docs/SERVING.md`` for endpoints, cache semantics, and SLOs.
"""

from .._lazy import lazy_exports
from .app import ReproApp
from .query import QueryCache, canonical_query
from .server import ReproServer
from .watch import DatasetWatcher

# a server that generates no load imports no HTTP client
__getattr__, __dir__ = lazy_exports(
    __name__, {"loadgen": ("DEFAULT_PATHS", "LoadStats", "run_load")}
)

__all__ = [
    "DEFAULT_PATHS",
    "DatasetWatcher",
    "LoadStats",
    "QueryCache",
    "ReproApp",
    "ReproServer",
    "canonical_query",
    "run_load",
]
