"""Output checks: every workload verifies what the program returned.

A failed check counts as one failed operation; any failed operation
makes the benchmark exit non-zero.
"""

from __future__ import annotations

import hashlib
from pathlib import Path


def digest(data: bytes) -> str:
    """SHA-256 hex digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def report_file_ok(path: Path, expected_digest: str) -> bool:
    """``repro report --json-out`` wrote the reference bytes for its seed."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    return digest(data) == expected_digest


def same_report(candidate: bytes, reference: bytes) -> bool:
    """Two report encodings are byte-identical."""
    return candidate == reference


def read_ok(kind: str, status: int) -> bool:
    """Whether a serve read answered the way its kind requires.

    A 404 is expected only for the seeded unknown names, a 304 only for a
    conditional ``/report``; every other read must be a 200.
    """
    if kind == "unknown":
        return status == 404
    if kind == "conditional":
        return status in (200, 304)
    return status == 200
