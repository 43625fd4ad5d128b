"""The canonical report encoding the determinism gates compare."""

from __future__ import annotations

import pytest

from repro.core import build_report, report_json
from repro.simulation import ScenarioConfig, run_scenario

N_DOMAINS = 80
WORLD_SEED = 21


@pytest.fixture(scope="module")
def world():
    return run_scenario(ScenarioConfig(n_domains=N_DOMAINS, seed=WORLD_SEED))


@pytest.fixture(scope="module")
def crawl(world):
    return world.run_crawl()


@pytest.fixture(scope="module")
def encoded(world, crawl) -> str:
    dataset, _ = crawl
    report = build_report(dataset, world.oracle, seed=world.config.seed)
    return report_json(report)


class TestReportJson:
    def test_canonical_encoding(self, encoded) -> None:
        """Compact separators, sorted keys, trailing newline — the byte
        encoding the CI determinism gate compares."""
        assert encoded.endswith("\n")
        assert ": " not in encoded
        assert encoded.startswith('{"')

    def test_roundtrips_as_json(self, encoded) -> None:
        import json

        payload = json.loads(encoded)
        assert set(payload) >= {
            "summary",
            "delays",
            "actors",
            "comparison",
            "resale",
            "losses_noncustodial",
            "losses_with_coinbase",
            "hijackable",
            "profit",
            "typosquat",
        }
