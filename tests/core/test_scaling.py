"""The per-event work of the typosquat and loss passes does not grow with
the world.

Counts, not timings, so the gate holds on any machine: a report over
the seed-5 world at 120 and at 480 domains, with the edit-distance
checks per screened catch, and the payment-list probes and incoming-window
transfers the loss pass reads per dropcatch event, counted. A screen that
compares every catch with the whole popular-target table, or a loss pass
that probes every sender of a busy catcher or scans its holding window,
makes its count track the world's size and fails here.
"""

from __future__ import annotations

import pytest

from repro.core import AnalysisContext, build_report
from repro.core import increport, typosquat
from repro.simulation import ScenarioConfig, run_scenario

SCALES = (120, 480)

#: Largest allowed growth of a per-event count from the small world to
#: the 4x larger one.
MAX_GROWTH = 1.5

#: A per-event count below this counts as this much: an indexed screen
#: checks almost no target per catch (none at all in the small world),
#: the loss pass reads no window at all, and a growth ratio over zero
#: says nothing.
FLOOR = 1.0


def _per_event_counts(n_domains: int, monkeypatch) -> dict[str, float]:
    world = run_scenario(ScenarioConfig(n_domains=n_domains, seed=5))
    dataset, _ = world.run_crawl()
    counts = {"edit_checks": 0, "payment_probes": 0, "loss_window_reads": 0}
    within = typosquat.within_edit_distance
    payments = AnalysisContext.payments
    incoming_window = AnalysisContext.incoming_window
    event_flows = increport.event_flows
    in_losses = [False]

    def counted_within(first: str, second: str) -> bool:
        counts["edit_checks"] += 1
        return within(first, second)

    def counted_payments(self, sender: str, recipient: str):
        counts["payment_probes"] += 1
        return payments(self, sender, recipient)

    def counted_window(self, address: str, start, end):
        window = incoming_window(self, address, start, end)
        if in_losses[0]:
            counts["loss_window_reads"] += len(window.stamps)
        return window

    def flagged_event_flows(*args, **kwargs):
        in_losses[0] = True
        try:
            return event_flows(*args, **kwargs)
        finally:
            in_losses[0] = False

    with monkeypatch.context() as patch:
        patch.setattr(typosquat, "within_edit_distance", counted_within)
        patch.setattr(AnalysisContext, "payments", counted_payments)
        patch.setattr(AnalysisContext, "incoming_window", counted_window)
        patch.setattr(increport, "event_flows", flagged_event_flows)
        report = build_report(dataset, world.oracle)
    events = report.summary.reregistration_events
    screened = report.typosquat.catches_screened
    assert events and screened
    return {
        "edit_checks": counts["edit_checks"] / screened,
        "payment_probes": counts["payment_probes"] / events,
        "loss_window_reads": counts["loss_window_reads"] / events,
    }


@pytest.fixture(scope="module")
def per_event() -> dict[int, dict[str, float]]:
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {scale: _per_event_counts(scale, monkeypatch) for scale in SCALES}


@pytest.mark.parametrize(
    "count", ["edit_checks", "payment_probes", "loss_window_reads"]
)
def test_per_event_work_does_not_grow_with_the_world(per_event, count) -> None:
    small, large = (per_event[scale][count] for scale in SCALES)
    assert large <= MAX_GROWTH * max(small, FLOOR), (count, small, large)
