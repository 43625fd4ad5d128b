"""The read mix and the delta schedule are pure functions of the seed."""

import plan

NAMES = [f"name{i}.eth" for i in range(200)]
HOT = ["/report", "/report/summary"]


def _mix(seed):
    unknown = plan.unknown_names(seed, set(NAMES))
    return plan.read_mix(seed, HOT, NAMES, unknown, 2000)


def test_read_mix_is_fixed_by_the_seed():
    assert _mix(3) == _mix(3)
    assert _mix(3) != _mix(4)


def test_read_mix_shape():
    reads = _mix(5)
    kinds = {read["kind"] for read in reads}
    assert kinds == {"hot", "domain", "dropcatch", "unknown", "conditional"}
    conditional = [i for i, read in enumerate(reads) if read["kind"] == "conditional"]
    assert conditional == list(range(plan.CONDITIONAL_EVERY - 1, 2000, plan.CONDITIONAL_EVERY))
    unknown = plan.unknown_names(5, set(NAMES))
    assert not set(unknown) & set(NAMES)
    for read in reads:
        if read["kind"] == "hot":
            assert read["target"] in HOT
        if read["kind"] == "unknown":
            assert read["target"].removeprefix("/domain/") in unknown


def test_delta_schedule_is_fixed_by_the_seed():
    assert plan.delta_schedule(3, 12) == plan.delta_schedule(3, 12)
    assert plan.delta_schedule(3, 12) != plan.delta_schedule(4, 12)


def test_delta_schedule_is_increasing_inside_the_window():
    due = plan.delta_schedule(9, 12)
    assert len(due) == 12
    assert all(a < b for a, b in zip(due, due[1:]))
    assert plan.SCHEDULE_START < due[0] and due[-1] < plan.SCHEDULE_END


def test_derived_seeds_differ_by_purpose_and_seed():
    assert plan.derive(1, "report_cold") == plan.derive(1, "report_cold")
    assert plan.derive(1, "report_cold") != plan.derive(2, "report_cold")
    assert plan.derive(1, "report_cold") != plan.derive(1, "reanalyze")
