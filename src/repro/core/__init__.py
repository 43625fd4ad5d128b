"""The paper's analyses: dropcatch detection through financial losses.

The passes a report runs are imported with the package. The rest load
on first use of one of their names (:mod:`repro._lazy`): the
authoritative-loss and timing-loss variants, censoring, the dataset
description, figure export, the predictor and survival curves.
"""

from .._lazy import lazy_exports
from .actors import ActorConcentration, actor_concentration
from .context import AnalysisContext, DeltaImpact, ScanAccess
from .comparison import (
    DomainFeatureRow,
    FeatureComparison,
    compare_groups,
    feature_rows_for,
)
from .control import sample_control_group, study_groups
from .dropcatch import (
    DropcatchSummary,
    ReRegistration,
    expired_domain_ids,
    find_reregistrations,
    iter_reregistrations,
    reregistered_domain_ids,
    summarize,
)
from .hijackable import HijackableReport, HijackableWindow, find_hijackable
from .increport import IncrementalReportBuilder
from .losses import LossReport, MisdirectedFlow, detect_losses
from .profit import ProfitReport, analyze_profit
from .report import HeadlineReport, build_report, canonical_json, report_json
from .resale import ResaleReport, analyze_resale
from .stats import TestResult, two_proportion_z_test, welch_t_test
from .timing import (
    DelayDistribution,
    PREMIUM_END_DAYS,
    delay_distribution,
    monthly_timeline,
)
from .typosquat import TyposquatCandidate, TyposquatReport, find_typosquat_catches

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "authoritative": ("assess_conservative_heuristic", "authoritative_losses"),
        "censoring": ("truncate_dataset",),
        "descriptive": ("describe_dataset",),
        "export": ("export_figures",),
        "prediction": ("train_reregistration_predictor",),
        "survival": ("domain_lifetimes", "kaplan_meier", "survival_by_cohort"),
        "timing_losses": ("detect_losses_by_timing", "heuristic_overlap"),
    },
)

__all__ = [
    "ActorConcentration",
    "AnalysisContext",
    "DeltaImpact",
    "IncrementalReportBuilder",
    "ScanAccess",
    "assess_conservative_heuristic",
    "authoritative_losses",
    "DelayDistribution",
    "DomainFeatureRow",
    "describe_dataset",
    "DropcatchSummary",
    "FeatureComparison",
    "HeadlineReport",
    "HijackableReport",
    "HijackableWindow",
    "LossReport",
    "MisdirectedFlow",
    "train_reregistration_predictor",
    "PREMIUM_END_DAYS",
    "ProfitReport",
    "ReRegistration",
    "ResaleReport",
    "TestResult",
    "TyposquatCandidate",
    "detect_losses_by_timing",
    "domain_lifetimes",
    "heuristic_overlap",
    "kaplan_meier",
    "survival_by_cohort",
    "TyposquatReport",
    "actor_concentration",
    "find_typosquat_catches",
    "analyze_profit",
    "analyze_resale",
    "build_report",
    "canonical_json",
    "compare_groups",
    "report_json",
    "detect_losses",
    "expired_domain_ids",
    "export_figures",
    "feature_rows_for",
    "truncate_dataset",
    "find_hijackable",
    "find_reregistrations",
    "iter_reregistrations",
    "monthly_timeline",
    "reregistered_domain_ids",
    "sample_control_group",
    "study_groups",
    "summarize",
    "two_proportion_z_test",
    "welch_t_test",
]
