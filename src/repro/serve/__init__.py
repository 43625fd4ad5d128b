"""Resident query server over a loaded dataset (``repro serve``).

The long-lived service mode from the roadmap: load an
:class:`~repro.datasets.dataset.ENSDataset` (or the mmap-backed
columnar store) once, build a warm analysis index, and answer report /
domain / dropcatch / hijackable queries over plain HTTP — stdlib only,
no new dependencies.

* :mod:`repro.serve.app` — routing, warm state, response construction,
* :mod:`repro.serve.query` — query canonicalization + the versioned
  response cache,
* :mod:`repro.serve.server` — the threaded HTTP listener with graceful
  drain,
* :mod:`repro.serve.loadgen` — the threaded load generator behind
  ``--load-gen`` and the throughput benchmark,
* :mod:`repro.serve.watch` — the ``--watch`` poller feeding on-disk
  delta appends into the running app.

See ``docs/SERVING.md`` for endpoints, cache semantics, and SLOs.
"""

from .app import ReproApp
from .loadgen import DEFAULT_PATHS, LoadStats, run_load
from .query import QueryCache, canonical_query
from .server import ReproServer
from .watch import DatasetWatcher

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
