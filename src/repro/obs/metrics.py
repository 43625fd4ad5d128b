"""Process-local metrics: counters, gauges, and histograms with labels.

The registry is the single source of truth for every operational number
the system reports — crawler effort, chain activity, analysis-pass
volumes. Instrumented code binds a sample once (``registry.counter(
"crawler_requests_total", labels=("client",)).labels(client="explorer")``)
and increments a plain attribute afterwards, so the hot-path cost is one
float addition.

Design points:

* **Families, not bare samples.** A metric name registers a family with
  a fixed label-name set; every distinct label-value combination is one
  sample. Re-registering an existing name returns the same family, but
  mismatched type/label names raise — the name is a contract.
* **Label order never matters.** ``labels(a="x", b="y")`` and
  ``labels(b="y", a="x")`` resolve to the same sample.
* **Histograms keep raw observations**, as 8-byte doubles in an
  ``array('d')`` rather than a list of float objects. That makes exact
  percentiles (nearest-rank) possible next to the cumulative
  Prometheus buckets; a resident server still grows 8 bytes per
  observation.
"""

from __future__ import annotations

import math
import re
from array import array
from typing import Any, Iterator

__all__ = [
    "Histogram",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
    "global_registry",
]

# Latency-oriented default buckets (seconds), Prometheus-style.
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Invalid metric usage: bad name, label mismatch, type conflict."""


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise MetricError("counters can only increase")
        self._value += amount

    @property
    def value(self) -> float:
        """Current cumulative value."""
        return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Increase by ``amount``."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Decrease by ``amount``."""
        self._value -= amount

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class Histogram:
    """Observations with cumulative buckets plus exact percentiles."""

    __slots__ = ("buckets", "bucket_counts", "_sum", "_values")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricError("histogram buckets must be a sorted, non-empty sequence")
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._values = array("d")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._sum += value
        self._values.append(value)
        for index, upper in enumerate(self.buckets):
            if value <= upper:
                self.bucket_counts[index] += 1
                break

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._values)

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def values(self) -> tuple[float, ...]:
        """Every observation in arrival order."""
        return tuple(self._values)

    @property
    def mean(self) -> float:
        """Mean observation (NaN when empty)."""
        return self._sum / len(self._values) if self._values else math.nan

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the raw observations, ``0 <= p <= 100``."""
        if not 0 <= p <= 100:
            raise MetricError("percentile must be within 0..100")
        if not self._values:
            return math.nan
        ordered = sorted(self._values)
        if p == 0:
            return ordered[0]
        rank = math.ceil(p / 100.0 * len(ordered))
        return ordered[rank - 1]

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with +Inf."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for upper, count in zip(self.buckets, self.bucket_counts):
            running += count
            pairs.append((upper, running))
        pairs.append((math.inf, len(self._values)))
        return pairs


_KIND_FACTORIES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricFamily:
    """All samples of one metric name, keyed by label values."""

    __slots__ = ("name", "kind", "help", "label_names", "samples", "_kwargs")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        **kwargs: Any,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.samples: dict[tuple[str, ...], Any] = {}
        self._kwargs = kwargs
        if not label_names:
            self.samples[()] = self._new_sample()

    def _new_sample(self) -> Any:
        return _KIND_FACTORIES[self.kind](**self._kwargs)

    def labels(self, **label_values: object) -> Any:
        """The sample for one label-value combination (created on demand)."""
        if set(label_values) != set(self.label_names):
            raise MetricError(
                f"{self.name} takes labels {sorted(self.label_names)},"
                f" got {sorted(label_values)}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        sample = self.samples.get(key)
        if sample is None:
            sample = self.samples[key] = self._new_sample()
        return sample

    @property
    def default(self) -> Any:
        """The unlabelled sample (only for label-less families)."""
        if self.label_names:
            raise MetricError(f"{self.name} requires labels {self.label_names}")
        return self.samples[()]

    def items(self) -> Iterator[tuple[dict[str, str], Any]]:
        """``(labels_dict, sample)`` pairs, sorted for stable export."""
        for key in sorted(self.samples):
            yield dict(zip(self.label_names, key)), self.samples[key]


class MetricsRegistry:
    """A process-local collection of metric families."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    # -- registration ------------------------------------------------------

    def _register(
        self, name: str, kind: str, help: str, labels: tuple[str, ...], **kwargs: Any
    ) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        labels = tuple(labels)
        for label in labels:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != labels:
                raise MetricError(
                    f"{name} already registered as {family.kind}"
                    f" with labels {family.label_names}"
                )
            return family
        family = MetricFamily(name, kind, help, labels, **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> Any:
        """Register (or fetch) a counter; label-less names return the sample."""
        family = self._register(name, "counter", help, labels)
        return family if labels else family.default

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Any:
        """Get or create a gauge family (the gauge itself when unlabelled)."""
        family = self._register(name, "gauge", help, labels)
        return family if labels else family.default

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Any:
        """Get or create a histogram family (the histogram when unlabelled)."""
        family = self._register(name, "histogram", help, labels, buckets=buckets)
        return family if labels else family.default

    # -- queries -----------------------------------------------------------

    def families(self) -> list[MetricFamily]:
        """Every family, sorted by name (export order)."""
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        """Family by name, or None."""
        return self._families.get(name)

    def value(self, name: str, **label_values: object) -> float:
        """Current value of one counter/gauge sample (0.0 if never touched)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        key = tuple(str(label_values[label]) for label in family.label_names)
        sample = family.samples.get(key)
        if sample is None:
            return 0.0
        if isinstance(sample, Histogram):
            return float(sample.count)
        return sample.value

    # -- durable counter state (crawl checkpoints) -------------------------

    def counter_snapshot(self) -> dict[str, Any]:
        """JSON-ready snapshot of every *counter* family's samples.

        The crawl checkpointer persists this so a resumed run's effort
        counters continue from where the killed run stopped — the final
        :class:`~repro.crawler.pipeline.CrawlReport` then accounts for
        the whole crawl, not just the post-resume tail. Gauges and
        histograms are point-in-time/derived and are rebuilt by the
        resumed run instead.
        """
        snapshot: dict[str, Any] = {}
        for family in self.families():
            if family.kind != "counter":
                continue
            snapshot[family.name] = {
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": [
                    {"labels": labels, "value": sample.value}
                    for labels, sample in family.items()
                ],
            }
        return snapshot

    def restore_counters(self, snapshot: dict[str, Any]) -> None:
        """Raise counters to at least the values of a prior snapshot.

        Families are registered on demand (with the snapshot's label
        names), so restoring works whether or not the consuming client
        has bound its instruments yet. Counters are monotonic: samples
        already past their snapshotted value are left alone.
        """
        for name in sorted(snapshot):
            entry = snapshot[name]
            label_names = tuple(entry.get("label_names", ()))
            family = self._register(
                name, "counter", entry.get("help", ""), label_names
            )
            for item in entry.get("samples", ()):
                sample = (
                    family.labels(**item.get("labels", {}))
                    if label_names
                    else family.default
                )
                delta = float(item["value"]) - sample.value
                if delta > 0:
                    sample.inc(delta)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of every family and sample."""
        snapshot: dict[str, Any] = {}
        for family in self.families():
            samples = []
            for labels, sample in family.items():
                if isinstance(sample, Histogram):
                    entry: dict[str, Any] = {
                        "labels": labels,
                        "count": sample.count,
                        "sum": sample.sum,
                        "p50": sample.percentile(50),
                        "p90": sample.percentile(90),
                        "p99": sample.percentile(99),
                    }
                else:
                    entry = {"labels": labels, "value": sample.value}
                samples.append(entry)
            snapshot[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return snapshot


# The process-global registry: module-level instruments (keccak, chain
# defaults) bind here so importing code pays no lookup on the hot path.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _GLOBAL
