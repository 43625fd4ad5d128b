"""Resident re-analysis worker for the ``reanalyze`` workload, run inside
the machine-speed probe (:mod:`speed`)::

    python3 perfbench/speed.py SAMPLES perfbench/worker.py DATASET_DIR

Runs one untimed warm-up iteration, prints ``ready``, then answers each
``run`` line on stdin with one timed iteration — columnar load,
validate, report, render, after a ``gc.collect()`` — as a JSON line
``{"start": ..., "end": ..., "digest": ...}`` whose times are
``time.perf_counter`` readings, so the benchmark can scale the iteration
by the probes taken inside it. ``quit`` (or end of input) exits.
"""

from __future__ import annotations

import gc
import json
import sys
import time

import checks


def main() -> None:
    directory = sys.argv[1]
    from repro.core import build_report, report_json
    from repro.crawler import load_dataset
    from repro.oracle import EthUsdOracle

    def iteration() -> dict:
        gc.collect()
        start = time.perf_counter()
        dataset = load_dataset(directory, store="columnar")
        dataset.validate()
        body = report_json(build_report(dataset, EthUsdOracle()))
        end = time.perf_counter()
        return {"start": start, "end": end, "digest": checks.digest(body.encode("utf-8"))}

    iteration()
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "run":
            break
        print(json.dumps(iteration()), flush=True)


if __name__ == "__main__":
    main()
