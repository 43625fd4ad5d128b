"""Gate: the report pipeline is byte-identical on every store.

Usage::

    python tools/check_report_determinism.py \
        [--domains 120] [--seed 5] [--stores object] \
        [--golden tests/golden/report_digests.json] [--update-golden] \
        [--serve] [--incremental] [--batches 6]

Runs the full ``repro report`` pipeline (scenario crawl + analysis)
once per store through the real CLI entry point, writing each run's
canonical report JSON via ``--json-out``, and fails unless every run
produced *byte-identical* output. This is the CI determinism gate for
the columnar dataset core: the backing store must be invisible in the
results, not merely statistically close. With
``--stores object,columnar`` both stores must agree on one byte
sequence and one golden digest; the golden key deliberately does not
mention the store.

With ``--serve`` the same scenario is additionally stood up behind the
resident query server (:mod:`repro.serve`), once per store, and the
``GET /report`` body fetched over real HTTP must equal the CLI bytes —
the serving path (warm context, response cache, canonical encoder) must
be invisible too, not merely the analysis.

The agreed bytes are additionally hashed (SHA-256) and compared
against a committed golden digest, which catches a subtler failure:
a change that is self-consistent across stores but silently alters
the analysis output. Refresh the golden intentionally with
``--update-golden`` when the output is *supposed* to change.

With ``--incremental`` the gate switches to the streamed-determinism
matrix: the same scenario is sliced into ``--batches`` block-batches
(:func:`repro.simulation.stream.stream_scenario`), applied one delta at
a time to a live dataset whose report is refreshed through
:class:`~repro.core.increport.IncrementalReportBuilder`, and at *every*
step the incrementally refreshed bytes must equal a cold
``build_report`` of the replayed prefix — across every requested
store. This is the gate that keeps O(delta) cache patching
honest: an incremental refresh may be faster than a rebuild, never
different.

Exit codes (``2`` is left to argparse):

* ``0`` — identical across stores and matching the golden.
* ``1`` — stores disagree (the representation leaks into the output).
* ``3`` — consistent across stores but drifted from the golden.
* ``4`` — golden file missing/unreadable (run ``--update-golden``).
* ``5`` — a served ``/report`` body differs from the CLI bytes
  (``--serve`` only).
* ``6`` — an incrementally refreshed report diverged from the cold
  rebuild at some step (``--incremental`` only; the first divergent
  step and matrix cell are printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

EXIT_STORE_MISMATCH = 1
EXIT_GOLDEN_DRIFT = 3
EXIT_GOLDEN_MISSING = 4
EXIT_SERVE_MISMATCH = 5
EXIT_INCREMENTAL_DIVERGENCE = 6

DEFAULT_GOLDEN = Path(__file__).resolve().parent.parent / (
    "tests/golden/report_digests.json"
)


def run_report(domains: int, seed: int, store: str, out: Path) -> None:
    """Invoke the real CLI in-process; raise if it exits non-zero."""
    from repro.cli import main as cli_main

    code = cli_main(
        [
            "report",
            "--domains", str(domains),
            "--seed", str(seed),
            "--store", store,
            "--json-out", str(out),
        ]
    )
    if code != 0:
        raise RuntimeError(f"repro report --store {store} exited {code}")


def scenario_key(domains: int, seed: int) -> str:
    return f"domains={domains},seed={seed}"


def served_report(domains: int, seed: int, stores: list[str]) -> dict[str, bytes]:
    """``GET /report`` bytes from a live server, one fetch per store.

    Builds the scenario once in-process (exactly the CLI's build path),
    then serves the object-graph dataset and, when requested, the
    columnar conversion of the same records, each behind a real HTTP
    listener on an ephemeral port.
    """
    from http.client import HTTPConnection

    from repro.datasets import ColumnarDataset
    from repro.serve import ReproApp, ReproServer
    from repro.simulation import ScenarioConfig, run_scenario

    world = run_scenario(ScenarioConfig(n_domains=domains, seed=seed))
    dataset, _ = world.run_crawl()
    datasets = {"object": dataset}
    if "columnar" in stores:
        datasets["columnar"] = ColumnarDataset.from_dataset(dataset)

    bodies: dict[str, bytes] = {}
    for store in stores:
        app = ReproApp(datasets[store], world.oracle)
        with ReproServer(app) as server:
            conn = HTTPConnection(server.host, server.port, timeout=60)
            try:
                conn.request("GET", "/report")
                response = conn.getresponse()
                if response.status != 200:
                    raise RuntimeError(
                        f"served /report over {store} returned {response.status}"
                    )
                bodies[store] = response.read()
            finally:
                conn.close()
    return bodies


def check_incremental(
    domains: int, seed: int, batches: int, stores: list[str]
) -> int:
    """The streamed-determinism matrix (``--incremental``).

    One live dataset consumes the scenario's deltas batch by batch; its
    incrementally refreshed report must be byte-identical to a cold
    ``build_report`` of the replayed prefix at every step, for every
    store. Returns an exit code.
    """
    from repro.core import IncrementalReportBuilder, build_report
    from repro.core.report import report_json
    from repro.datasets import ColumnarDataset
    from repro.simulation import ScenarioConfig, stream_scenario

    stream = stream_scenario(
        ScenarioConfig(n_domains=domains, seed=seed), batches=batches
    )
    live = stream.empty_dataset()
    builder = IncrementalReportBuilder(live, stream.oracle, seed=0)
    for step, delta in enumerate(stream.deltas, start=1):
        live.apply_delta(delta)
        incremental = report_json(builder.refresh()).encode("utf-8")
        for store in stores:
            cold_dataset = stream.replay(step)
            if store == "columnar":
                cold_dataset = ColumnarDataset.from_dataset(cold_dataset)
            cold = report_json(
                build_report(cold_dataset, stream.oracle, seed=0)
            ).encode("utf-8")
            if cold != incremental:
                print(
                    f"\nFAIL: step {step}/{len(stream.deltas)}"
                    f" ({delta.label}): incremental refresh"
                    f" ({len(incremental)} bytes, sha256="
                    f"{hashlib.sha256(incremental).hexdigest()[:16]}…)"
                    f" != cold rebuild at store={store}"
                    f" ({len(cold)} bytes, sha256="
                    f"{hashlib.sha256(cold).hexdigest()[:16]}…) — the"
                    " delta cache patching diverged from a rebuild"
                )
                return EXIT_INCREMENTAL_DIVERGENCE
        print(
            f"step {step}/{len(stream.deltas)} ({delta.label}):"
            f" incremental == cold across stores={stores}, sha256="
            f"{hashlib.sha256(incremental).hexdigest()[:16]}…"
        )
    print(
        f"incremental refresh byte-identical to cold rebuilds at every"
        f" step (batches={len(stream.deltas)}, stores={stores})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domains", type=int, default=120)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--stores",
        default="object",
        help="comma-separated dataset stores to compare"
        " (default object; pass object,columnar for the full matrix)",
    )
    parser.add_argument(
        "--golden",
        type=Path,
        default=DEFAULT_GOLDEN,
        help="committed digest file (default tests/golden/report_digests.json)",
    )
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="rewrite the golden digest from this run instead of checking it",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also fetch /report from a live repro serve instance per store"
        " and require byte identity with the CLI output",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="streamed-determinism mode: apply the scenario as"
        " --batches block-batched deltas and require the incrementally"
        " refreshed report to match a cold rebuild at every step",
    )
    parser.add_argument(
        "--batches",
        type=int,
        default=6,
        help="block-batches to slice the scenario into (--incremental)",
    )
    args = parser.parse_args(argv)
    stores = [part.strip() for part in args.stores.split(",") if part.strip()]

    if args.incremental:
        return check_incremental(args.domains, args.seed, args.batches, stores)

    outputs: dict[str, bytes] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for store in stores:
            out = Path(tmp) / f"report-{store}.json"
            run_report(args.domains, args.seed, store, out)
            outputs[store] = out.read_bytes()
            print(
                f"store={store}: {len(outputs[store])} bytes, sha256="
                f"{hashlib.sha256(outputs[store]).hexdigest()[:16]}…"
            )

    reference = outputs[stores[0]]
    mismatched = [store for store in stores[1:] if outputs[store] != reference]
    if mismatched:
        print(
            f"\nFAIL: report bytes at ({', '.join(mismatched)}) differ from"
            f" {stores[0]} — the store is leaking its representation into"
            " the output"
        )
        return EXIT_STORE_MISMATCH
    print(f"report byte-identical across stores={stores}")

    if args.serve:
        served = served_report(args.domains, args.seed, stores)
        for store, body in served.items():
            if body != reference:
                print(
                    f"\nFAIL: served /report over the {store} store"
                    f" ({len(body)} bytes) differs from the CLI --json-out"
                    f" bytes ({len(reference)} bytes) — the serving path is"
                    " leaking into the report encoding"
                )
                return EXIT_SERVE_MISMATCH
            print(f"served /report byte-identical to CLI (store={store})")

    digest = hashlib.sha256(reference).hexdigest()
    key = scenario_key(args.domains, args.seed)
    if args.update_golden:
        existing: dict[str, str] = {}
        if args.golden.exists():
            existing = json.loads(args.golden.read_text(encoding="utf-8"))
        existing[key] = digest
        args.golden.parent.mkdir(parents=True, exist_ok=True)
        args.golden.write_text(
            json.dumps(existing, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"golden updated: {key} -> {digest}")
        return 0

    try:
        golden = json.loads(args.golden.read_text(encoding="utf-8"))
        expected = golden[key]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(
            f"\nFAIL: no golden digest for '{key}' in {args.golden} ({exc!r});"
            " run with --update-golden to record one"
        )
        return EXIT_GOLDEN_MISSING
    if digest != expected:
        print(
            f"\nFAIL: report is consistent across stores but its"
            f" digest drifted from the committed golden\n"
            f"  expected {expected}\n  got      {digest}\n"
            "If the analysis output was intentionally changed, refresh with"
            " --update-golden and commit the diff"
        )
        return EXIT_GOLDEN_DRIFT
    print(f"golden digest matches ({digest[:16]}…)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
