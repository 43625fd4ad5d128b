"""Shared benchmark fixtures: one ecosystem, built once per session.

The scenario build (chain + contracts + crawl) takes ~10s at the default
2,000-domain scale, so every benchmark shares a single session world and
measures only its own analysis stage. Set ``REPRO_BENCH_DOMAINS`` to
scale up (e.g. 5000 for tighter statistics at ~30s build time).
"""

from __future__ import annotations

import os

import pytest

from repro.core import find_reregistrations
from repro.simulation import ScenarioConfig, ScenarioWorld, run_scenario

DEFAULT_BENCH_DOMAINS = 2_000


def _bench_config() -> ScenarioConfig:
    n_domains = int(os.environ.get("REPRO_BENCH_DOMAINS", DEFAULT_BENCH_DOMAINS))
    return ScenarioConfig(n_domains=n_domains, seed=7)


@pytest.fixture(scope="session")
def world() -> ScenarioWorld:
    return run_scenario(_bench_config())


@pytest.fixture(scope="session")
def crawl(world):
    """(dataset, crawl report) from the Figure-1 pipeline."""
    return world.run_crawl()


@pytest.fixture(scope="session")
def dataset(crawl):
    return crawl[0]


@pytest.fixture(scope="session")
def oracle(world):
    return world.oracle


@pytest.fixture(scope="session")
def rereg_events(dataset):
    """The shared re-registration scan most analyses start from."""
    return find_reregistrations(dataset)

