"""The three workloads, each run against the program from outside.

``report_cold``
    ``repro report`` as a fresh process per iteration (closed loop, one
    child at a time).
``reanalyze``
    a resident worker re-analysing a persisted crawl from the columnar
    store (closed loop, one thread).
``serve_live``
    ``repro serve --watch`` in its own process; the benchmark's single
    thread reads a seeded mix on one keep-alive connection and appends
    deltas on a fixed schedule (reads closed, appends open).

Every process under test runs inside the machine-speed probe
(:mod:`speed`), and the times the benchmark gates on are scaled by the
probes that process took while the time passed; ``serve_live`` reads are
scaled by reads of a reference HTTP server (:mod:`refserver`) instead.
The wall-clock values are printed beside them (``*_wall_*``).

Each returns a :class:`Result`: attempted and failed operations plus
named metrics with units and sample counts. ``trace=True`` runs the
per-layer variant instead (see :mod:`traced`), whose metrics are never
end-to-end numbers.
"""

from __future__ import annotations

import http.client
import json
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import plan
import speed
import stats
from harness import BENCH_DIR, SRC, BenchError, Harness

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"report_cold": 7, "reanalyze": 5, "serve_live": 5}

#: ``report_cold`` runs one ``repro report`` per this many seconds of
#: ``--seconds``: a fixed count for a given run length.
SECONDS_PER_REPORT = 5

#: Fewest timed iterations per run, however short ``--seconds`` is.
MIN_SAMPLES = 3

#: ``serve_live`` reads and freshness samples are scaled in blocks of
#: this many seconds.
SCALE_BLOCK_S = 1.0

#: Every this many ``serve_live`` reads, the client times a burst of
#: :data:`REFERENCE_BURST` reads of the reference HTTP server.
REFERENCE_EVERY = 100
REFERENCE_BURST = 5

#: A reference read in scaled time: a scaled read of 1 ms took as long as
#: five reference reads beside it. About what a reference read takes on
#: the reference machine.
REFERENCE_READ_S = 0.0002

#: ``repro serve --watch`` poll interval, short against a delta's apply.
WATCH_INTERVAL = "0.05"

#: Longest wait past the run for the server to show the last delta.
FRESHNESS_GRACE_S = 30.0


@dataclass
class Metric:
    """One measured number."""

    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Timed:
    """A time as measured and scaled to the reference machine speed."""

    wall: float
    scaled: float


@dataclass
class Result:
    """Operations and metrics of one run."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    info: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Wall time of one traced unit; time metrics print their share of it.
    unit_s: float = 0.0
    #: Time metrics measured outside the traced unit (no share printed).
    outside: set[str] = field(default_factory=set)

    def fail(self, why: str) -> None:
        """Count one failed operation (keeping the first few reasons)."""
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    def add(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.metrics[name] = Metric(value, unit, samples, note)

    def add_latency(
        self, latencies: list[Timed], setups: list[Timed], rss_mb: float,
        tail_seconds: list[float] | None = None,
    ) -> None:
        """The end-to-end metrics every workload reports: the medians of
        the scaled and of the wall-clock latencies and set-ups, peak RSS,
        and the wall-clock tail of ``tail_seconds`` where it has one."""
        self.add("setup_s", stats.median([t.scaled for t in setups]), "s", len(setups), "scaled")
        self.add("setup_wall_s", stats.median([t.wall for t in setups]), "s", len(setups))
        self.add(
            "latency_p50_ms", stats.median([t.scaled for t in latencies]) * 1000, "ms",
            len(latencies), "scaled",
        )
        self.add(
            "latency_p50_wall_ms", stats.median([t.wall for t in latencies]) * 1000, "ms",
            len(latencies),
        )
        seconds = tail_seconds or []
        tail = stats.tail(seconds)
        if tail is None:
            self.info.append(
                f"latency_tail_ms not reported: {len(seconds) or len(latencies)} samples"
                f" leave fewer than {stats.MIN_BEYOND} beyond any tail percentile"
            )
        else:
            percentile, value = tail
            self.add(
                "latency_tail_ms", value * 1000, "ms", len(seconds),
                f"p{percentile:g}, {stats.beyond(len(seconds), percentile)} beyond, wall-clock",
            )
        self.add("peak_rss_mb", rss_mb, "MB", 1)

    def finish(self) -> None:
        """Add ``error_ratio`` once every operation is counted."""
        self.add("error_ratio", self.failed / max(1, self.attempted), "ratio", self.attempted)


def _probed_time(h: Harness, samples: str, start: float, end: float) -> Timed:
    """``[start, end]`` of a probed process, as measured and scaled."""
    return Timed(end - start, speed.scaled(end - start, speed.load(h.tmp / samples), start, end))


def _import_setups(h: Harness, count: int) -> list[Timed]:
    """Fresh interpreters that only import ``repro.cli``, spawn to exit
    (after one untimed import that warms bytecode and page caches)."""
    setups = []
    for index in range(count + 1):
        samples = f"import-{index}.probe"
        done = h.run(h.probed(samples, "-c", "import repro.cli"))
        if done.code != 0:
            raise BenchError(f"import repro.cli failed ({done.code})")
        if index:
            setups.append(_probed_time(h, samples, done.start, done.end))
    return setups


# -- report_cold ----------------------------------------------------------------


def report_cold(h: Harness, trace: bool) -> Result:
    """Fresh ``repro report --domains 1000`` processes, one at a time."""
    inputs, spec = h.generate("report_cold")
    result = Result()
    out = h.tmp / "report.json"
    argv = [
        "-m", "repro.cli", "report", "--domains", str(plan.DOMAINS),
        "--seed", str(spec["scenario_seed"]), "--json-out", str(out), "--no-ledger",
    ]

    def one(index: int) -> tuple[Timed, float] | None:
        out.unlink(missing_ok=True)
        samples = f"report-{index}.probe"
        with h.log("report.err") as err:
            done = h.run(h.probed(samples, *argv), stderr=err)
        result.attempted += 1
        if done.code != 0:
            result.fail(f"repro report exited {done.code}: {h.tail('report.err', 3)}")
        elif not checks.report_file_ok(out, spec["digest"]):
            result.fail("report JSON differs from the reference digest for its seed")
        else:
            return _probed_time(h, samples, done.start, done.end), done.maxrss_mb
        return None

    if trace:
        reference = [sample for sample in (one(0), one(1)) if sample]
        return _traced(h, "report_cold", inputs, result, [t.wall for t, _ in reference])
    setups = _import_setups(h, SETUP_REPEATS["report_cold"])
    times, peaks = [], []
    for index in range(max(MIN_SAMPLES, round(h.seconds / SECONDS_PER_REPORT))):
        sample = one(index)
        if sample:
            times.append(sample[0])
            peaks.append(sample[1])
    if times:
        result.add_latency(times, setups, max(peaks))
        result.info.append(speed.describe(speed.load(h.tmp / "report-0.probe")))
    return result


# -- reanalyze ------------------------------------------------------------------


class _Worker:
    """One probed ``worker.py`` child."""

    def __init__(self, h: Harness, directory: Path, index: int) -> None:
        self.h = h
        self.err_name = f"worker-{index}.err"
        self.samples = f"worker-{index}.probe"
        start = time.perf_counter()
        with h.log(self.err_name) as err:
            self.proc = h.spawn(
                h.probed(self.samples, str(BENCH_DIR / "worker.py"), str(directory)),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True,
            )
        if self.proc.stdout.readline().strip() != "ready":
            raise BenchError("reanalyze worker failed to start:\n" + h.tail(self.err_name))
        self.started = (start, time.perf_counter())

    def iteration(self) -> dict | None:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def stop(self) -> float:
        """End the worker; return its peak RSS."""
        self.proc.stdin.close()
        _, maxrss = self.h.reap(self.proc, timeout=30.0)
        self.proc.stdout.close()
        return maxrss

    def setup(self) -> Timed:
        return _probed_time(self.h, self.samples, *self.started)


def reanalyze(h: Harness, trace: bool) -> Result:
    """Columnar load + validate + report + render in a resident worker."""
    inputs, spec = h.generate("reanalyze")
    result = Result()
    if trace:
        return _traced(h, "reanalyze", inputs, result, [])
    directory = inputs / "dataset"
    setups = []
    for index in range(SETUP_REPEATS["reanalyze"]):
        worker = _Worker(h, directory, index)
        if index < SETUP_REPEATS["reanalyze"] - 1:
            worker.stop()
            setups.append(worker.setup())
    windows = []
    deadline = time.perf_counter() + h.seconds
    while time.perf_counter() < deadline or len(windows) < MIN_SAMPLES:
        reply = worker.iteration()
        result.attempted += 1
        if reply is None:
            result.fail("reanalyze worker died:\n" + h.tail(worker.err_name, 5))
            break
        if reply["digest"] != spec["digest"]:
            result.fail("columnar report differs from the object-store report")
            continue
        windows.append((reply["start"], reply["end"]))
    maxrss = worker.stop()
    setups.append(worker.setup())
    samples = speed.load(h.tmp / worker.samples)
    times = [
        Timed(end - start, speed.scaled(end - start, samples, start, end))
        for start, end in windows
    ]
    if times:
        result.add_latency(times, setups, maxrss)
        result.info.append(speed.describe(samples))
    return result


# -- serve_live -----------------------------------------------------------------

_ADDRESS = re.compile(rb"http://([0-9.]+):([0-9]+)")
_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(\{.*\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[tuple[str, frozenset], float]:
    """``(name, labels) -> value`` for every sample of an exposition."""
    samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None or line.startswith("#"):
            continue
        labels = frozenset(_LABEL.findall(match.group(2) or ""))
        samples[(match.group(1), labels)] = float(match.group(3))
    return samples


def _total(samples: dict, name: str, **match: str) -> float:
    wanted = set(match.items())
    return sum(
        value for (family, labels), value in samples.items()
        if family == name and wanted <= labels
    )


def _cursor(etag: str) -> int:
    """The delta cursor, last field of a report ETag."""
    return int(etag.strip('"').rsplit("-", 1)[-1])


class _Server:
    """One probed ``repro serve --watch`` child and a keep-alive connection."""

    def __init__(self, h: Harness, directory: Path, index: int) -> None:
        self.h = h
        out = h.tmp / f"serve-{index}.out"
        self.err_name = f"serve-{index}.err"
        self.samples = f"serve-{index}.probe"
        start = time.perf_counter()
        with out.open("wb") as stdout, h.log(self.err_name) as stderr:
            self.proc = h.spawn(
                h.probed(
                    self.samples, "-m", "repro.cli", "serve", str(directory), "--watch",
                    "--watch-interval", WATCH_INTERVAL, "--store", "object",
                    "--host", "127.0.0.1", "--port", "0", "--no-ledger",
                ),
                stdout=stdout, stderr=stderr,
            )
        while (match := _ADDRESS.search(out.read_bytes())) is None:
            self._check_alive(start)
            time.sleep(0.002)
        self.host, self.port = match.group(1).decode(), int(match.group(2))
        self.conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    break
            except (OSError, http.client.HTTPException):
                self.reconnect()
            self._check_alive(start)
            time.sleep(0.002)
        self.started = (start, time.perf_counter())

    def _check_alive(self, start: float) -> None:
        if self.proc.poll() is not None:
            raise BenchError("repro serve exited during start-up:\n" + self.h.tail(self.err_name))
        if time.perf_counter() - start > 120:
            raise BenchError("repro serve did not come up within 120 s")

    def get(self, target: str, headers: dict | None = None) -> tuple[int, bytes, str | None]:
        self.conn.request("GET", target, headers=headers or {})
        response = self.conn.getresponse()
        return response.status, response.read(), response.getheader("ETag")

    def reconnect(self) -> None:
        self.conn.close()
        self.conn = http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> float:
        """Close the connection, stop the server; return its peak RSS."""
        self.conn.close()
        return self.h.stop(self.proc)[1]

    def setup(self) -> Timed:
        return _probed_time(self.h, self.samples, *self.started)


def _block_factors(
    stamped: list[tuple[float, object]], start: float, count: int, factor
) -> list[float]:
    """``factor`` of the values of the ``(time, value)`` pairs in each
    :data:`SCALE_BLOCK_S` block from ``start``; a block without pairs
    takes the factor of them all."""
    groups: list[list] = [[] for _ in range(count)]
    for at, value in stamped:
        block = int((at - start) / SCALE_BLOCK_S)
        if 0 <= block < count:
            groups[block].append(value)
    overall = factor([value for _, value in stamped])
    return [factor(group) if group else overall for group in groups]


def _reference_burst(conn: http.client.HTTPConnection) -> tuple[float, float]:
    """``(time, seconds)``: the median of a burst of reference reads,
    without the first, which wakes the reference server from idle."""
    seconds = []
    for _ in range(REFERENCE_BURST):
        began = time.perf_counter()
        conn.request("GET", "/")
        conn.getresponse().read()
        seconds.append(time.perf_counter() - began)
    return began, stats.median(seconds[1:])


def serve_live(h: Harness, trace: bool) -> Result:
    """Seeded reads plus scheduled delta appends against ``repro serve``."""
    inputs, spec = h.generate("serve_live")
    result = Result()
    if trace:
        _traced(h, "serve_live", inputs, result, [])
    sys.path.insert(0, str(SRC))
    from repro.crawler.storage import append_delta
    from repro.datasets.delta import DatasetDelta

    directory = inputs / "dataset"
    pending = [
        DatasetDelta.from_dict(json.loads(line))
        for line in (inputs / "pending.jsonl").read_text().splitlines()
        if line.strip()
    ]
    expected = (inputs / "final_report.json").read_bytes()
    setups = []
    for index in range(SETUP_REPEATS["serve_live"]):
        server = _Server(h, directory, index)
        if index < SETUP_REPEATS["serve_live"] - 1:
            server.stop()
            setups.append(server.setup())
    before = parse_prometheus(server.get("/metrics")[1].decode()) if trace else {}
    refserver = h.spawn(
        [h.python, str(BENCH_DIR / "refserver.py")], stdout=subprocess.PIPE, text=True
    )
    port = refserver.stdout.readline().strip()
    if not port.isdigit():
        raise BenchError("the reference HTTP server did not start")
    reference = http.client.HTTPConnection("127.0.0.1", int(port), timeout=60)

    reads = spec["reads"]
    latencies: list[tuple[float, float]] = []  # (began, seconds)
    references: list[tuple[float, float]] = []  # (began, seconds)
    freshness: list[tuple[float, float]] = []  # (appended, seconds)
    lateness: list[float] = []
    unseen: list[tuple[int, float]] = []  # (cursor, append returned at)
    etag = None
    seen_cursor = spec["base_cursor"]
    start = time.perf_counter()
    due = [start + share * h.seconds for share in spec["schedule"]]
    deadline = start + h.seconds
    next_delta = 0
    index = 0
    while True:
        now = time.perf_counter()
        if next_delta < len(pending) and now >= due[next_delta]:
            lateness.append(now - due[next_delta])
            cursor = append_delta(directory, pending[next_delta])
            unseen.append((cursor, time.perf_counter()))
            next_delta += 1
            continue
        if now >= deadline and next_delta == len(pending) and not unseen:
            break
        if now >= deadline + FRESHNESS_GRACE_S:
            result.fail(f"server never showed delta cursor {unseen[0][0]}")
            break
        # never while an append waits to be seen: that would delay its read
        if index % REFERENCE_EVERY == 0 and not unseen:
            references.append(_reference_burst(reference))
        read = reads[index % len(reads)]
        index += 1
        kind = read["kind"]
        headers = {"If-None-Match": etag} if kind == "conditional" and etag else None
        result.attempted += 1
        began = time.perf_counter()
        try:
            status, _, tag = server.get(read["target"], headers)
        except (OSError, http.client.HTTPException) as exc:
            result.fail(f"{read['target']}: {type(exc).__name__}: {exc}")
            server.reconnect()
            continue
        finished = time.perf_counter()
        latencies.append((began, finished - began))
        if not checks.read_ok(kind, status):
            result.fail(f"{read['target']} answered {status} ({kind} read)")
        if tag is not None and _cursor(tag) >= seen_cursor:
            etag, seen_cursor = tag, _cursor(tag)
            while unseen and unseen[0][0] <= seen_cursor:
                appended = unseen.pop(0)[1]
                freshness.append((appended, finished - appended))
    ended = time.perf_counter()
    reference.close()
    h.stop(refserver)
    refserver.stdout.close()

    after = parse_prometheus(server.get("/metrics")[1].decode()) if trace else {}
    result.attempted += 1
    status, body, tag = server.get("/report")
    if status != 200 or tag is None or _cursor(tag) != spec["final_cursor"]:
        result.fail(f"final /report answered {status} with ETag {tag}")
    elif not checks.same_report(body, expected):
        result.fail("served /report differs from report_json(build_report(stream.replay()))")
    maxrss = server.stop()
    setups.append(server.setup())
    result.info.append(
        f"reads: {len(latencies)}, deltas appended: {len(lateness)},"
        f" append lateness p50 {stats.median(lateness) * 1000:.2f} ms,"
        f" max {max(lateness) * 1000:.2f} ms"
    )
    if trace:
        mean_ms = sum(seconds for _, seconds in latencies) / len(latencies) * 1000
        _serve_layers(result, before, after, mean_ms)
        return result
    blocks = int((ended - start) / SCALE_BLOCK_S) + 1
    read_factors = _block_factors(
        references, start, blocks, lambda seconds: REFERENCE_READ_S / stats.median(seconds)
    )
    samples = speed.load(h.tmp / server.samples)
    speeds = _block_factors([(s.began, s) for s in samples], start, blocks, speed.speed)

    def block(at: float) -> int:
        return int((at - start) / SCALE_BLOCK_S)

    result.add_latency(
        [Timed(seconds, seconds * read_factors[block(at)]) for at, seconds in latencies],
        setups, maxrss, tail_seconds=[seconds for _, seconds in latencies],
    )
    middle = stats.median([seconds for _, seconds in references])
    result.info.append(
        f"reference reads: median {middle * 1e6:.0f} us over {len(references)} bursts,"
        f" so reads are scaled by about {REFERENCE_READ_S / middle:.3f}"
    )
    result.info.append(speed.describe(samples))
    if freshness:
        scaled = [seconds * speeds[block(at)] for at, seconds in freshness]
        result.add("freshness_p50_ms", stats.median(scaled) * 1000, "ms", len(scaled), "scaled")
    return result


def _serve_layers(result: Result, before: dict, after: dict, client_mean_ms: float) -> None:
    """Server-side serve numbers from two ``/metrics`` scrapes."""

    def delta(name: str, **match: str) -> float:
        return _total(after, name, **match) - _total(before, name, **match)

    def ratio(part: float, other: float) -> float:
        return part / (part + other) if part + other else 0.0

    handled = delta("serve_request_all_seconds_count")
    handle_ms = delta("serve_request_all_seconds_sum") / handled * 1000 if handled else 0.0
    values = {
        "serve.handle_ms": (handle_ms, "ms"),
        "serve.transport_ms": (client_mean_ms - handle_ms, "ms"),
        "serve.cache_hit_ratio": (
            ratio(delta("serve_cache_requests_total", outcome="hit"),
                  delta("serve_cache_requests_total", outcome="miss")), "ratio"),
        "serve.cache_kept_ratio": (
            ratio(delta("serve_cache_migrated_entries_total", outcome="kept"),
                  delta("serve_cache_migrated_entries_total", outcome="dropped")), "ratio"),
        "serve.not_modified": (delta("serve_not_modified_total"), "count"),
        "serve.watch_changed_ratio": (
            ratio(delta("serve_watch_polls_total", outcome="changed"),
                  delta("serve_watch_polls_total", outcome="unchanged")), "ratio"),
    }
    for name, (value, unit) in values.items():
        result.add(name, value, unit, int(handled))


# -- traced runs ----------------------------------------------------------------

#: Every per-layer metric and its unit. Layers a workload never runs
#: report 0 (the prediction "no change" made concrete).
PER_LAYER = {
    "startup.import_s": "s",
    "simulation.self_s": "s", "simulation.events": "count",
    "chain.self_s": "s", "chain.txs": "count",
    "keccak.self_s": "s", "keccak.calls": "count", "keccak.repeat_ratio": "ratio",
    "ens.self_s": "s", "ens.normalize_calls": "count",
    "indexer.self_s": "s", "explorer.self_s": "s", "marketplace.self_s": "s",
    "crawler.self_s": "s", "crawler.requests": "count", "crawler.rows": "count",
    "crawler.retries": "count",
    "datasets.load_s": "s", "datasets.validate_s": "s",
    "columnar.encode_s": "s", "columnar.open_s": "s",
    "core.context_s": "s", "core.summary_s": "s", "core.timing_s": "s",
    "core.actors_s": "s", "core.comparison_s": "s", "core.resale_s": "s",
    "core.losses_s": "s", "core.hijackable_s": "s", "core.profit_s": "s",
    "core.typosquat_s": "s", "core.render_s": "s", "core.context_hit_ratio": "ratio",
    "incremental.apply_ms": "ms", "incremental.deltas": "count",
    "serve.warmup_s": "s", "serve.handle_ms": "ms", "serve.transport_ms": "ms",
    "serve.cache_hit_ratio": "ratio", "serve.cache_kept_ratio": "ratio",
    "serve.not_modified": "count", "serve.watch_changed_ratio": "ratio",
    "untraced_s": "s", "trace_overhead_ratio": "ratio",
}


def _traced(
    h: Harness, workload: str, inputs: Path, result: Result, untraced_walls: list[float]
) -> Result:
    """Run traced units in fresh processes and fill every per-layer metric.

    ``report_cold`` repeats whole traced processes until ``--seconds``
    passes and takes each metric's median; its overhead ratio compares
    their spawn-to-exit time with ``untraced_walls``. The other
    workloads measure their overhead inside the traced runner.
    """
    runs: list[dict] = []
    deadline = time.perf_counter() + h.seconds
    while not runs or (workload == "report_cold" and time.perf_counter() < deadline):
        out = h.tmp / f"traced-{len(runs)}.json"
        with h.log("traced.err") as err:
            done = h.run(
                [h.python, str(BENCH_DIR / "traced.py"), workload,
                 "--inputs", str(inputs), "--out", str(out),
                 "--seconds", str(h.seconds)],
                stderr=err,
            )
        if done.code != 0:
            raise BenchError("traced runner failed:\n" + h.tail("traced.err"))
        run = json.loads(out.read_text())
        result.attempted += run["attempted"]
        if not run["ok"]:
            result.fail(f"traced {workload} produced a wrong report")
        runs.append(run["metrics"])
    if untraced_walls:
        for run in runs:
            run["trace_overhead_ratio"] = run["unit_s"] / stats.median(untraced_walls)
    for name, unit in PER_LAYER.items():
        values = [run[name] for run in runs if name in run]
        result.add(name, stats.median(values) if values else 0.0, unit, len(values))
    result.unit_s = stats.median([run["unit_s"] for run in runs])
    result.outside.update(runs[0]["outside"])
    layer_s = {
        layer: stats.median([run["layers"].get(layer, 0.0) for run in runs])
        for layer in {name for run in runs for name in run["layers"]}
    }
    result.info.append(f"traced unit: {result.unit_s:.3f} s ({len(runs)} traced run(s))")
    for layer, seconds in sorted(layer_s.items(), key=lambda item: -item[1]):
        result.info.append(
            f"  layer {layer:<12s} {seconds:9.4f} s  {seconds / result.unit_s:6.1%} of the unit"
        )
    return result
