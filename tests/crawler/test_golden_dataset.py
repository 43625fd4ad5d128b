"""Golden crawled dataset: the crawl's rows are pinned across commits.

The report golden (``tests/golden/report_digests.json``) covers only
what the analyses read. This pins every crawled row — the explorer's
``txlist`` output as parsed into the dataset, the subgraph entities,
the marketplace events — through :func:`dataset_digest`, so a change to
the chain, the explorer or the crawler that alters a single field fails
here even when the report does not move.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.crawler import dataset_digest
from repro.simulation import ScenarioConfig, run_scenario

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "dataset_digests.json"


def _cases() -> list[tuple[int, int, str]]:
    cases = []
    for key, digest in sorted(json.loads(GOLDEN.read_text()).items()):
        fields = dict(part.split("=") for part in key.split(","))
        cases.append((int(fields["domains"]), int(fields["seed"]), digest))
    return cases


@pytest.mark.parametrize("domains,seed,expected", _cases())
def test_crawled_dataset_matches_golden(domains, seed, expected) -> None:
    world = run_scenario(ScenarioConfig(n_domains=domains, seed=seed))
    dataset, _ = world.run_crawl()
    assert dataset_digest(dataset) == expected
