"""Input generator: builds one workload's inputs from the benchmark seed.

Runs in its own process, never in the process under test, so neither
its time nor its memory reaches a measured number::

    python3 perfbench/inputs.py WORKLOAD --seed N --out DIR

Writes ``DIR/plan.json`` (scenario seed, reference digests, and for
``serve_live`` the read mix and delta schedule) plus the datasets the
workload reads.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import checks
import plan

#: Reads generated for ``serve_live``; the client cycles through them.
READS = 60_000


def _report_bytes(dataset, oracle) -> bytes:
    from repro.core import build_report, report_json

    return report_json(build_report(dataset, oracle)).encode("utf-8")


def report_cold(seed: int, out: Path) -> dict:
    """Reference digest of ``repro report`` for the derived seed."""
    from repro.simulation import ScenarioConfig, run_scenario

    scenario_seed = plan.derive(seed, "report_cold")
    world = run_scenario(ScenarioConfig(n_domains=plan.DOMAINS, seed=scenario_seed))
    dataset, _ = world.run_crawl()
    return {
        "scenario_seed": scenario_seed,
        "digest": checks.digest(_report_bytes(dataset, world.oracle)),
    }


def reanalyze(seed: int, out: Path) -> dict:
    """A persisted crawl (JSONL + RCOL) and its object-store report."""
    from repro.crawler import load_dataset, save_dataset
    from repro.oracle import EthUsdOracle
    from repro.simulation import ScenarioConfig, run_scenario

    scenario_seed = plan.derive(seed, "reanalyze")
    world = run_scenario(ScenarioConfig(n_domains=plan.DOMAINS, seed=scenario_seed))
    dataset, _ = world.run_crawl()
    directory = out / "dataset"
    save_dataset(dataset, directory, store="columnar")
    reference = _report_bytes(load_dataset(directory, store="object"), EthUsdOracle())
    (out / "object_report.json").write_bytes(reference)
    return {"scenario_seed": scenario_seed, "digest": checks.digest(reference)}


def serve_live(seed: int, out: Path) -> dict:
    """Half a streamed scenario on disk, the other half pending, the
    expected final report, the read mix and the append schedule."""
    from repro.crawler.storage import append_delta, save_dataset
    from repro.oracle import EthUsdOracle
    from repro.serve import DEFAULT_PATHS
    from repro.simulation import ScenarioConfig, stream_scenario

    scenario_seed = plan.derive(seed, "serve_live")
    stream = stream_scenario(
        ScenarioConfig(n_domains=plan.DOMAINS, seed=scenario_seed),
        batches=plan.STREAM_BATCHES,
    )
    half = plan.STREAM_BATCHES // 2
    directory = out / "dataset"
    save_dataset(stream.replay(1), directory)
    for delta in stream.deltas[1:half]:
        append_delta(directory, delta)
    pending = stream.deltas[half:]
    with (out / "pending.jsonl").open("w", encoding="utf-8") as handle:
        for delta in pending:
            handle.write(json.dumps(delta.as_dict(), sort_keys=True) + "\n")
    final = stream.replay()
    expected = _report_bytes(final, EthUsdOracle())
    (out / "final_report.json").write_bytes(expected)
    names = sorted(domain.name for domain in final.domains.values() if domain.name)
    unknown = plan.unknown_names(seed, set(names))
    return {
        "scenario_seed": scenario_seed,
        "digest": checks.digest(expected),
        "base_cursor": half - 1,
        "final_cursor": plan.STREAM_BATCHES - 1,
        "schedule": plan.delta_schedule(seed, len(pending)),
        "reads": plan.read_mix(seed, list(DEFAULT_PATHS), names, unknown, READS),
    }


GENERATORS = {
    "report_cold": report_cold,
    "reanalyze": reanalyze,
    "serve_live": serve_live,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = GENERATORS[args.workload](args.seed, out)
    (out / "plan.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
