"""Calibrated synthetic ENS ecosystem generator."""

from .agents import (
    DomainScript,
    DropcatcherAgent,
    GroundTruth,
    SenderProfile,
    TrueCatch,
)
from .calibration import PAPER, ratio_close
from .config import ScenarioConfig
from .names import GeneratedName, NameGenerator
from .scenario import ScenarioWorld, run_scenario
from .stream import stream_scenario

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
