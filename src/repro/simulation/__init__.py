"""Calibrated synthetic ENS ecosystem generator."""

from .._lazy import lazy_exports
from .agents import (
    DomainScript,
    DropcatcherAgent,
    GroundTruth,
    SenderProfile,
    TrueCatch,
)
from .config import ScenarioConfig
from .names import GeneratedName, NameGenerator
from .scenario import ScenarioWorld, run_scenario

# the paper's calibration targets and the delta stream: tests,
# benchmarks and ``repro dataset stream``, never a report
__getattr__, __dir__ = lazy_exports(
    __name__,
    {"calibration": ("PAPER", "ratio_close"), "stream": ("stream_scenario",)},
)

__all__ = [
    "DomainScript",
    "DropcatcherAgent",
    "GeneratedName",
    "GroundTruth",
    "NameGenerator",
    "PAPER",
    "ScenarioConfig",
    "ScenarioWorld",
    "SenderProfile",
    "TrueCatch",
    "ratio_close",
    "run_scenario",
    "stream_scenario",
]
