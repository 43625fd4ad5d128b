"""Seeded workload plans: scenario seeds, the serve read mix, the delta
schedule.

Pure functions of the benchmark seed, importable without the program
under test: the input generator (:mod:`inputs`) calls them, and the
benchmark's tests check that one seed always gives one plan.
"""

from __future__ import annotations

import hashlib
import random
import string
from urllib.parse import quote

#: Domains in every generated scenario.
DOMAINS = 1000

#: Block-batches a ``serve_live`` stream is sliced into. The base
#: dataset holds the first half (batch 1 plus a replayed delta log); the
#: benchmark appends the second half while it reads.
STREAM_BATCHES = 24

#: Every ``CONDITIONAL_EVERY``-th read is ``/report`` with If-None-Match.
CONDITIONAL_EVERY = 4

#: Read kinds and their weights (conditional reads are interleaved on a
#: fixed stride, outside these weights). The weights are chosen, not
#: measured: the program records no real access pattern. Half the reads
#: are the program's own default load mix (``repro.serve.DEFAULT_PATHS``,
#: the cached report slices ``repro serve --load-gen`` sends), which hit
#: the response cache; the other half are per-name keys that mostly miss
#: it, so the read median sits where hits and misses meet and moves when
#: either path does. README.md shows how far the median moves with the
#: weights.
MIX_WEIGHTS = (("hot", 50), ("domain", 35), ("dropcatch", 10), ("unknown", 5))

#: Seeded names that are in no dataset; each is a 404 the benchmark
#: expects (any other 404 is a failure).
UNKNOWN_NAMES = 40

#: Share of the run during which the pending deltas are appended.
SCHEDULE_START, SCHEDULE_END = 0.08, 0.78


def derive(seed: int, purpose: str) -> int:
    """A scenario seed for ``purpose``, fixed by the benchmark seed."""
    digest = hashlib.sha256(f"{purpose}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000


def unknown_names(seed: int, known: set[str]) -> list[str]:
    """Syntactically valid ``.eth`` names absent from ``known``."""
    rng = random.Random(derive(seed, "unknown"))
    names: list[str] = []
    while len(names) < UNKNOWN_NAMES:
        label = "zq" + "".join(rng.choices(string.ascii_lowercase, k=10))
        name = f"{label}.eth"
        if name not in known and name not in names:
            names.append(name)
    return names


def read_mix(
    seed: int, hot: list[str], names: list[str], unknown: list[str], count: int
) -> list[dict[str, object]]:
    """``count`` reads: ``{"target", "kind"}`` dicts in send order.

    ``hot`` reads are drawn from ``hot`` (the program's default load mix).

    ``kind`` is ``hot``, ``domain``, ``dropcatch``, ``unknown`` (404
    expected) or ``conditional`` (``/report`` sent with If-None-Match).
    Names are drawn uniformly, so the per-name keys form a long tail the
    response cache mostly misses.
    """
    rng = random.Random(derive(seed, "reads"))
    kinds = [kind for kind, _ in MIX_WEIGHTS]
    weights = [weight for _, weight in MIX_WEIGHTS]
    reads: list[dict[str, object]] = []
    for index in range(count):
        if index % CONDITIONAL_EVERY == CONDITIONAL_EVERY - 1:
            reads.append({"target": "/report", "kind": "conditional"})
            continue
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "hot":
            target = rng.choice(hot)
        elif kind == "domain":
            target = "/domain/" + quote(rng.choice(names), safe=".")
        elif kind == "dropcatch":
            target = "/query/dropcatch?name=" + quote(rng.choice(names), safe=".")
        else:
            target = "/domain/" + quote(rng.choice(unknown), safe=".")
        reads.append({"target": target, "kind": kind})
    return reads


def delta_schedule(seed: int, count: int) -> list[float]:
    """Due times of ``count`` appends as shares of the run, increasing.

    One append per equal slot of ``[SCHEDULE_START, SCHEDULE_END)``,
    placed in the middle half of its slot by the seed, so consecutive
    appends are always at least half a slot apart.
    """
    rng = random.Random(derive(seed, "schedule"))
    width = (SCHEDULE_END - SCHEDULE_START) / count if count else 0.0
    return [
        SCHEDULE_START + width * (slot + rng.uniform(0.25, 0.75))
        for slot in range(count)
    ]
