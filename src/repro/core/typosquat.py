"""Typosquat-flavoured dropcatching (extension).

The authors' companion study (Typosquatting 3.0, eCrime'24) shows
blockchain names attract typosquatters; dropcatching gives them a
second channel — catching an *expired* name one edit away from a
high-income name inherits both residual trust and fat-finger traffic.
This module screens every dropcatch against the income-weighted popular
names and reports the candidates.

The edit distance is Damerau-Levenshtein (insert / delete / substitute
/ adjacent transposition), the standard squatting metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, MutableMapping

from ..datasets.dataset import ENSDataset
from ..datasets.schema import DomainRecord
from ..oracle.ethusd import EthUsdOracle
from .context import AnalysisContext
from .dropcatch import ReRegistration
from .features.transactional import extract_transactional

__all__ = [
    "damerau_levenshtein",
    "within_edit_distance",
    "popular_target_rows",
    "screen_catches",
    "screen_event",
    "target_income",
    "TargetIndex",
    "TyposquatCandidate",
    "TyposquatReport",
    "find_typosquat_catches",
]


#: The screen's fixed bounds: "popular" means at least this much USD
#: income in the target's first registration period, and "typo" means
#: at most this many edits (the one-edit check and the one-deletion
#: index below decide exactly this bound).
MIN_TARGET_INCOME_USD = 10_000.0
MAX_DISTANCE = 1

#: Pure-digit pairs are not typosquats: the short numeric "clubs" are
#: all one edit apart by construction, which is proximity, not
#: typosquatting.
EXCLUDE_NUMERIC_PAIRS = True


def damerau_levenshtein(first: str, second: str) -> int:
    """Restricted Damerau-Levenshtein distance (adjacent transpositions)."""
    if first == second:
        return 0
    len_a, len_b = len(first), len(second)
    if len_a == 0:
        return len_b
    if len_b == 0:
        return len_a
    previous2: list[int] = []
    previous = list(range(len_b + 1))
    for i in range(1, len_a + 1):
        current = [i] + [0] * len_b
        for j in range(1, len_b + 1):
            substitution_cost = 0 if first[i - 1] == second[j - 1] else 1
            current[j] = min(
                previous[j] + 1,                      # deletion
                current[j - 1] + 1,                   # insertion
                previous[j - 1] + substitution_cost,  # substitution
            )
            if (
                i > 1
                and j > 1
                and first[i - 1] == second[j - 2]
                and first[i - 2] == second[j - 1]
            ):
                current[j] = min(current[j], previous2[j - 2] + 1)
        previous2, previous = previous, current
    return previous[len_b]


def within_edit_distance(first: str, second: str) -> bool:
    """O(n) decision for restricted Damerau-Levenshtein distance <=
    :data:`MAX_DISTANCE`.

    Distance <= 1 admits exactly four shapes — equality, one
    substitution, one adjacent transposition (equal lengths), or one
    insertion/deletion (lengths differing by one) — each checkable by
    scanning to the first mismatch, without the quadratic DP table.
    """
    len_a, len_b = len(first), len(second)
    if abs(len_a - len_b) > MAX_DISTANCE:
        return False
    if first == second:
        return True
    if len_a == len_b:
        i = 0
        while first[i] == second[i]:
            i += 1
        j = len_a - 1
        while j > i and first[j] == second[j]:
            j -= 1
        if i == j:
            return True  # single substitution
        return (
            j == i + 1 and first[i] == second[j] and first[j] == second[i]
        )  # adjacent transposition
    longer, shorter = (first, second) if len_a > len_b else (second, first)
    i = 0
    while i < len(shorter) and longer[i] == shorter[i]:
        i += 1
    return longer[i + 1 :] == shorter[i:]  # single insertion/deletion


@dataclass(frozen=True, slots=True)
class TyposquatCandidate:
    """One dropcatch whose label is an edit away from a popular name."""

    caught_label: str
    target_label: str
    target_income_usd: float
    distance: int
    new_owner: str


@dataclass(frozen=True, slots=True)
class TyposquatReport:
    """Screen results over all dropcatches."""

    candidates: tuple[TyposquatCandidate, ...]
    catches_screened: int
    popular_targets: int

    @property
    def candidate_fraction(self) -> float:
        """Fraction of screened catches flagged as typosquat candidates."""
        if not self.catches_screened:
            return 0.0
        return len(self.candidates) / self.catches_screened


def find_typosquat_catches(
    dataset: ENSDataset,
    oracle: EthUsdOracle,
    events: list[ReRegistration] | None = None,
    context: AnalysisContext | None = None,
) -> TyposquatReport:
    """Match dropcaught labels against high-income target names.

    A target is "popular" when its wallet received at least
    :data:`MIN_TARGET_INCOME_USD` during the name's first registration
    period; a catch matches when its label is one edit away from a
    popular label and the two are not both pure digits.
    """
    access = context if context is not None else AnalysisContext(dataset, oracle)
    if events is None:
        events = access.reregistrations()
    targets = TargetIndex(
        popular_target_rows(
            (
                (domain.label_name, target_income(dataset, domain, oracle, access))
                for domain in dataset.iter_domains()
            )
        )
    )
    return screen_catches(events, targets)


def target_income(
    dataset: ENSDataset,
    domain: DomainRecord,
    oracle: EthUsdOracle,
    access: AnalysisContext,
) -> float | None:
    """USD income of ``domain``'s first registration period, or ``None``.

    ``None`` marks a domain that cannot be a typosquat target (no
    label, no registrations). The per-domain unit of the popular-target
    table: it depends only on the first registration's window and the
    registrant wallet's *incoming* history — the dependency incremental
    rebuilds key their memo on.
    """
    if not domain.label_name or not domain.registrations:
        return None
    return extract_transactional(
        dataset, domain.registrations[0], oracle, context=access
    ).income_usd


def popular_target_rows(
    incomes: Iterable[tuple[str, float | None]],
) -> list[tuple[str, float, bool]]:
    """The popular-target table from ``(label, income)`` pairs.

    Keeps labels whose income reaches :data:`MIN_TARGET_INCOME_USD`; a
    repeated label keeps its FIRST position and its LAST income. Each
    row hoists the ``label.isdigit()`` predicate for the screen. Row
    order is significant: a candidate keeps the first matching target.
    """
    targets: dict[str, float] = {}
    for label, income in incomes:
        if income is not None and income >= MIN_TARGET_INCOME_USD:
            targets[label] = income
    return [
        (label, income, label.isdigit()) for label, income in targets.items()
    ]


def _deletion_variants(label: str) -> set[str]:
    """``label`` and every string one character deletion makes of it."""
    return {label} | {label[:i] + label[i + 1:] for i in range(len(label))}


class TargetIndex:
    """The popular-target rows, indexed by one-deletion neighbourhood.

    Two labels within restricted Damerau-Levenshtein distance 1 reach a
    common string by at most one single-character deletion each: an
    insertion or deletion costs one deletion on one side, a substitution
    or an adjacent transposition one on each. So every target within
    :data:`MAX_DISTANCE` of a label shares a deletion variant with it,
    and a screen checks only those rows instead of the whole table.
    Built once per target table.
    """

    __slots__ = ("rows", "_rows_by_variant")

    def __init__(self, rows: list[tuple[str, float, bool]]) -> None:
        self.rows = rows
        by_variant: dict[str, list[int]] = {}
        for row, (label, _, _) in enumerate(rows):
            for variant in _deletion_variants(label):
                by_variant.setdefault(variant, []).append(row)
        self._rows_by_variant = by_variant

    def candidates(self, label: str) -> list[int]:
        """Rows that may lie within one edit of ``label``, in row order
        (a superset of the true matches)."""
        by_variant = self._rows_by_variant
        rows: set[int] = set()
        for variant in _deletion_variants(label):
            rows.update(by_variant.get(variant, ()))
        return sorted(rows)


def screen_event(
    event: ReRegistration, targets: TargetIndex
) -> TyposquatCandidate | None:
    """Screen one named dropcatch against the popular-target rows.

    Returns the candidate for the FIRST matching target (target-row
    order is significant), or ``None``. Only the index's candidate rows
    are checked, lowest row first. Depends only on the event and the
    rows, so incremental rebuilds memoize per event and invalidate on
    any target-table change.
    """
    caught_label = event.name.removesuffix(".eth")
    caught_is_digit = caught_label.isdigit()
    rows = targets.rows
    for row in targets.candidates(caught_label):
        target_label, income, target_is_digit = rows[row]
        if target_label == caught_label:
            continue
        if EXCLUDE_NUMERIC_PAIRS and caught_is_digit and target_is_digit:
            continue
        if within_edit_distance(caught_label, target_label):
            return TyposquatCandidate(
                caught_label=caught_label,
                target_label=target_label,
                target_income_usd=income,
                distance=damerau_levenshtein(caught_label, target_label),
                new_owner=event.new_owner,
            )
    return None


def screen_catches(
    events: Iterable[ReRegistration],
    targets: TargetIndex,
    *,
    memo: MutableMapping[ReRegistration, TyposquatCandidate | None] | None = None,
) -> TyposquatReport:
    """Screen every named dropcatch against one target table.

    ``memo`` caches per-event results across calls; it must be dropped
    whenever the table changes.
    """
    memo = {} if memo is None else memo
    candidates: list[TyposquatCandidate] = []
    screened = 0
    for event in events:
        if event.name is None:
            continue
        screened += 1
        if event not in memo:
            memo[event] = screen_event(event, targets)
        candidate = memo[event]
        if candidate is not None:
            candidates.append(candidate)
    return TyposquatReport(
        candidates=tuple(candidates),
        catches_screened=screened,
        popular_targets=len(targets.rows),
    )
