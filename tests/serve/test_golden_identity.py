"""Golden identity: the served ``/report`` is the CLI ``--json-out``.

The serve endpoint promises byte identity with ``repro report
--json-out`` for the same scenario — for the object *and* columnar
stores. This runs the real CLI entry point per store and compares each
output file against one HTTP fetch from a server over an in-process
build of the same world.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.datasets import ColumnarDataset
from repro.simulation import ScenarioConfig, run_scenario

from .harness import ServeHarness

DOMAINS = 40
SEED = 5


@pytest.fixture(scope="module")
def golden_world():
    """The identity scenario, built once for the in-process servers."""
    world = run_scenario(ScenarioConfig(n_domains=DOMAINS, seed=SEED))
    dataset, _ = world.run_crawl()
    return world, dataset


@pytest.fixture(scope="module")
def cli_report_bytes(tmp_path_factory):
    """``repro report --json-out`` bytes per store."""
    out_dir = tmp_path_factory.mktemp("golden-serve")
    outputs: dict[str, bytes] = {}
    for store in ("object", "columnar"):
        out = out_dir / f"report-{store}.json"
        code = cli_main(
            [
                "report",
                "--domains", str(DOMAINS),
                "--seed", str(SEED),
                "--store", store,
                "--json-out", str(out),
            ]
        )
        assert code == 0
        outputs[store] = out.read_bytes()
    return outputs


def test_cli_matrix_agrees_on_one_byte_sequence(cli_report_bytes) -> None:
    distinct = {body for body in cli_report_bytes.values()}
    assert len(distinct) == 1, sorted(cli_report_bytes)


@pytest.mark.parametrize("store", ["object", "columnar"])
def test_served_report_matches_cli_json_out(
    store, golden_world, cli_report_bytes
) -> None:
    world, dataset = golden_world
    if store == "columnar":
        dataset = ColumnarDataset.from_dataset(dataset)
    with ServeHarness(dataset, world.oracle) as harness:
        served = harness.get("/report")
    assert served.status == 200
    assert served.body == cli_report_bytes[store], (
        f"served /report over {store} store differs from"
        f" repro report --store {store} --json-out"
    )
