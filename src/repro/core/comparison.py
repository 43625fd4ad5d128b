"""The Table-1 feature comparison: re-registered vs control domains.

For each domain the compared registration period is the one *before*
the (first) expiry: the last pre-catch cycle for re-registered domains,
and the final (lapsed) cycle for control domains. Numeric features get
Welch t-tests, boolean features two-proportion z-tests, significance at
p < 0.05 — exactly the paper's §4.3 protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.dataset import ENSDataset
from ..datasets.schema import DomainRecord, RegistrationRecord
from ..oracle.ethusd import EthUsdOracle
from .context import AnalysisContext
from .control import study_groups
from .dropcatch import ReRegistration, iter_reregistrations
from .features.lexical import BOOLEAN_FEATURE_NAMES, extract_lexical
from .features.transactional import extract_transactional
from .stats import TestResult, two_proportion_z_test, welch_t_test

__all__ = [
    "DomainFeatureRow",
    "FeatureComparison",
    "compare_groups",
    "compare_rows",
    "feature_row_for",
    "feature_rows_for",
    "studied_registrant",
]

_NUMERIC_FEATURES = (
    "income_usd",
    "num_unique_senders",
    "num_transactions",
    "length",
)


@dataclass(frozen=True, slots=True)
class DomainFeatureRow:
    """All Table-1 features for one domain's studied period."""

    domain_id: str
    label: str | None
    income_usd: float
    num_unique_senders: int
    num_transactions: int
    length: int
    contains_digit: bool
    is_numeric: bool
    contains_dictionary_word: bool
    is_dictionary_word: bool
    contains_brand_name: bool
    contains_adult_word: bool
    contains_hyphen: bool
    contains_underscore: bool


def _studied_registration(domain: DomainRecord) -> RegistrationRecord:
    """The registration period whose owner lost (or risked losing) the name."""
    for event in iter_reregistrations(domain):
        return event.previous  # first catch: the cycle that was lost
    return domain.registrations[-1]


def studied_registrant(domain: DomainRecord) -> str:
    """Wallet whose incoming history the domain's feature row reads."""
    return _studied_registration(domain).registrant


def feature_row_for(
    dataset: ENSDataset,
    domain: DomainRecord,
    oracle: EthUsdOracle,
    context: AnalysisContext | None = None,
) -> DomainFeatureRow:
    """Extract the full feature vector for one domain's studied period.

    The per-domain unit of :func:`feature_rows_for`: it depends only on
    the domain's registration history and the studied registrant's
    *incoming* history (see :func:`studied_registrant`) — the dependency
    set incremental rebuilds key their memo on.
    """
    registration = _studied_registration(domain)
    transactional = extract_transactional(
        dataset, registration, oracle, context=context
    )
    label = domain.label_name or ""
    lexical = extract_lexical(label)
    return DomainFeatureRow(
        domain_id=domain.domain_id,
        label=domain.label_name,
        income_usd=transactional.income_usd,
        num_unique_senders=transactional.num_unique_senders,
        num_transactions=transactional.num_transactions,
        length=lexical.length,
        contains_digit=lexical.contains_digit,
        is_numeric=lexical.is_numeric,
        contains_dictionary_word=lexical.contains_dictionary_word,
        is_dictionary_word=lexical.is_dictionary_word,
        contains_brand_name=lexical.contains_brand_name,
        contains_adult_word=lexical.contains_adult_word,
        contains_hyphen=lexical.contains_hyphen,
        contains_underscore=lexical.contains_underscore,
    )


def feature_rows_for(
    dataset: ENSDataset,
    domains: list[DomainRecord],
    oracle: EthUsdOracle,
    context: AnalysisContext | None = None,
) -> list[DomainFeatureRow]:
    """Extract the full feature vector for every domain in a group."""
    return [
        feature_row_for(dataset, domain, oracle, context=context)
        for domain in domains
    ]


@dataclass(frozen=True, slots=True)
class ComparisonRow:
    """One Table-1 line: a feature, both group values, and the test."""

    feature: str
    kind: str                     # 'numeric' | 'boolean'
    reregistered_value: float     # mean (numeric) or proportion (boolean)
    control_value: float
    test: TestResult

    @property
    def significant(self) -> bool:
        """Whether this feature's t-test clears the significance level."""
        return self.test.significant


@dataclass(frozen=True, slots=True)
class FeatureComparison:
    """The full Table 1."""

    rows: list[ComparisonRow]
    group_size_reregistered: int
    group_size_control: int

    def row(self, feature: str) -> ComparisonRow:
        """The comparison row for ``feature`` (raises if unknown)."""
        for candidate in self.rows:
            if candidate.feature == feature:
                return candidate
        raise KeyError(f"no comparison row for feature {feature!r}")

    @property
    def all_significant(self) -> bool:
        """True when every Table-1 feature tests significant."""
        return all(row.significant for row in self.rows)


_INSUFFICIENT_DATA = TestResult(
    statistic=0.0, p_value=1.0, test_name="insufficient-data"
)


def compare_groups(
    dataset: ENSDataset,
    oracle: EthUsdOracle,
    seed: int = 0,
    events: list[ReRegistration] | None = None,
    context: AnalysisContext | None = None,
) -> FeatureComparison:
    """Build Table 1 for a dataset (sampling the control group).

    With fewer than two domains in either group, rows are emitted with
    a degenerate non-significant test rather than crashing — callers on
    degenerate datasets still get a renderable table.
    """
    if events is None and context is not None:
        events = context.reregistrations()
    reregistered, control = study_groups(dataset, seed=seed, events=events)
    rereg_rows = feature_rows_for(dataset, reregistered, oracle, context=context)
    control_rows = feature_rows_for(dataset, control, oracle, context=context)
    return compare_rows(rereg_rows, control_rows)


def compare_rows(
    rereg_rows: list[DomainFeatureRow],
    control_rows: list[DomainFeatureRow],
) -> FeatureComparison:
    """Run the Table-1 statistics over pre-extracted feature rows.

    Split from :func:`compare_groups` so incremental rebuilds can feed
    memoized rows through the (cheap) statistical tail.
    """
    testable = len(rereg_rows) >= 2 and len(control_rows) >= 2

    def _mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    comparison_rows: list[ComparisonRow] = []
    for feature in _NUMERIC_FEATURES:
        sample_a = [float(getattr(row, feature)) for row in rereg_rows]
        sample_b = [float(getattr(row, feature)) for row in control_rows]
        test = welch_t_test(sample_a, sample_b) if testable else _INSUFFICIENT_DATA
        comparison_rows.append(
            ComparisonRow(
                feature=feature,
                kind="numeric",
                reregistered_value=_mean(sample_a),
                control_value=_mean(sample_b),
                test=test,
            )
        )
    for feature in BOOLEAN_FEATURE_NAMES:
        hits_a = sum(1 for row in rereg_rows if getattr(row, feature))
        hits_b = sum(1 for row in control_rows if getattr(row, feature))
        test = (
            two_proportion_z_test(hits_a, len(rereg_rows), hits_b, len(control_rows))
            if testable
            else _INSUFFICIENT_DATA
        )
        comparison_rows.append(
            ComparisonRow(
                feature=feature,
                kind="boolean",
                reregistered_value=hits_a / len(rereg_rows) if rereg_rows else 0.0,
                control_value=hits_b / len(control_rows) if control_rows else 0.0,
                test=test,
            )
        )
    return FeatureComparison(
        rows=comparison_rows,
        group_size_reregistered=len(rereg_rows),
        group_size_control=len(control_rows),
    )
