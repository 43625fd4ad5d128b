"""The paper's analyses: dropcatch detection through financial losses."""

from .actors import ActorConcentration, actor_concentration
from .authoritative import assess_conservative_heuristic, authoritative_losses
from .censoring import truncate_dataset
from .context import AnalysisContext, DeltaImpact, ScanAccess
from .descriptive import describe_dataset
from .export import export_figures
from .comparison import (
    DomainFeatureRow,
    FeatureComparison,
    compare_groups,
    feature_rows_for,
)
from .control import control_candidates, sample_control_group, study_groups
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
from .prediction import (
    LogisticModel,
    build_feature_matrix,
    train_reregistration_predictor,
)
from .profit import ProfitReport, analyze_profit
from .report import HeadlineReport, build_report, canonical_json, report_json
from .resale import ResaleReport, analyze_resale
from .stats import TestResult, two_proportion_z_test, welch_t_test
from .survival import (
    KaplanMeierCurve,
    domain_lifetimes,
    kaplan_meier,
    survival_by_cohort,
)
from .timing import (
    DelayDistribution,
    PREMIUM_END_DAYS,
    delay_distribution,
    monthly_timeline,
)
from .timing_losses import detect_losses_by_timing, heuristic_overlap
from .typosquat import (
    TyposquatCandidate,
    TyposquatReport,
    damerau_levenshtein,
    find_typosquat_catches,
    within_edit_distance,
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
    "LogisticModel",
    "LossReport",
    "MisdirectedFlow",
    "build_feature_matrix",
    "train_reregistration_predictor",
    "PREMIUM_END_DAYS",
    "ProfitReport",
    "ReRegistration",
    "ResaleReport",
    "KaplanMeierCurve",
    "TestResult",
    "TyposquatCandidate",
    "detect_losses_by_timing",
    "domain_lifetimes",
    "heuristic_overlap",
    "kaplan_meier",
    "survival_by_cohort",
    "TyposquatReport",
    "actor_concentration",
    "damerau_levenshtein",
    "find_typosquat_catches",
    "within_edit_distance",
    "analyze_profit",
    "analyze_resale",
    "build_report",
    "canonical_json",
    "compare_groups",
    "report_json",
    "control_candidates",
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
