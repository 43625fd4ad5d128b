"""Exporters: Prometheus text format, strict-JSON metric snapshots.

Three consumers, three formats:

* ``repro serve``'s ``/metrics`` scrape endpoint — :func:`prometheus_text`,
* the run ledger's record of each run — :func:`metrics_to_dict`,
* a human at a terminal — :func:`repro.obs.tracing.span_lines` (what
  :meth:`Tracer.tree_lines` and ``repro obs show`` print).

All exports are deterministic: families sorted by name, samples by label
values, floats formatted canonically — so golden-file tests can pin the
exact output.
"""

from __future__ import annotations

import math
import re
from typing import Any

from .metrics import Histogram, MetricsRegistry

__all__ = [
    "metrics_to_dict",
    "prometheus_text",
    "sanitize_metric_name",
    "sanitize_non_finite",
]


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: Characters the exposition format requires to be escaped inside a
#: quoted label value (in this order: backslash first).
_LABEL_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
)

_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str) -> str:
    """Coerce a string into a legal Prometheus metric name.

    Illegal characters become ``_``; a leading digit gets a ``_``
    prefix. Registry instruments already use legal names, but span
    names and user-supplied families flow through the exporter too.
    """
    sanitized = _NAME_BAD_CHARS.sub("_", str(name))
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _sanitize_label_name(name: str) -> str:
    sanitized = _LABEL_BAD_CHARS.sub("_", str(name))
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: str) -> str:
    """Escape ``\\``, ``"`` and newlines per the exposition format."""
    return str(value).translate(_LABEL_ESCAPES)


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize_label_name(name)}="{_escape_label_value(labels[name])}"'
        for name in labels
    )
    return "{" + inner + "}"


def prometheus_text(*registries: MetricsRegistry) -> str:
    """All families of the given registries in Prometheus text format."""
    lines: list[str] = []
    for registry in registries:
        for family in registry.families():
            name = sanitize_metric_name(family.name)
            help_text = family.help.replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {family.kind}")
            for labels, sample in family.items():
                if isinstance(sample, Histogram):
                    for upper, cumulative in sample.cumulative_buckets():
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_value(upper)
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_labels)}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(labels)}"
                        f" {_format_value(sample.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(labels)}"
                        f" {sample.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_format_labels(labels)}"
                        f" {_format_value(sample.value)}"
                    )
    return "\n".join(lines) + "\n"


def sanitize_non_finite(value: Any) -> Any:
    """Replace NaN/±Inf floats with ``None``, recursively.

    ``json.dumps`` defaults to ``allow_nan=True`` and emits the bare
    tokens ``NaN``/``Infinity``, which are *not* JSON and break every
    strict parser downstream. Ratios over empty denominators (a crawl
    that recovered nothing, an empty histogram) are exactly where these
    appear, so every JSON writer maps them to ``null`` first. Tuples
    come back as lists, as ``json`` would encode them.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: sanitize_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_non_finite(item) for item in value]
    return value


def metrics_to_dict(*registries: MetricsRegistry) -> dict[str, Any]:
    """Merged JSON-ready snapshot; later registries win name collisions."""
    merged: dict[str, Any] = {}
    for registry in registries:
        merged.update(registry.as_dict())
    return sanitize_non_finite(merged)
