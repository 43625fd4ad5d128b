"""Exporters: Prometheus text format, JSON run reports, span trees.

Three consumers, three formats:

* a scrape endpoint or textfile collector — :func:`prometheus_text`,
* programmatic inspection / the CLI ``--metrics-out`` flag —
  :func:`metrics_to_dict` / :func:`write_run_report`,
* a human at a terminal — :func:`repro.obs.tracing.span_lines` (what
  :meth:`Tracer.tree_lines` and ``repro obs show`` print).

All exports are deterministic: families sorted by name, samples by label
values, floats formatted canonically — so golden-file tests can pin the
exact output.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any

from .metrics import Histogram, MetricsRegistry
from .tracing import Tracer

__all__ = [
    "metrics_to_dict",
    "prometheus_text",
    "sanitize_metric_name",
    "write_run_report",
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


def _jsonable(value: Any) -> Any:
    """Replace NaN/Inf with None so the output is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    return value


def metrics_to_dict(*registries: MetricsRegistry) -> dict[str, Any]:
    """Merged JSON-ready snapshot; later registries win name collisions."""
    merged: dict[str, Any] = {}
    for registry in registries:
        merged.update(registry.as_dict())
    return _jsonable(merged)


def write_run_report(
    path: str | Path,
    registries: MetricsRegistry | list[MetricsRegistry],
    tracer: Tracer | None = None,
    extra: dict[str, Any] | None = None,
) -> Path:
    """Write one structured JSON run report: metrics + spans + extras."""
    if isinstance(registries, MetricsRegistry):
        registries = [registries]
    report: dict[str, Any] = {"metrics": metrics_to_dict(*registries)}
    if tracer is not None:
        report["spans"] = _jsonable(tracer.as_dict())
    if extra:
        report.update(_jsonable(extra))
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    return path
