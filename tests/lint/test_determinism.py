"""Determinism checker: global RNG, wall clock, set-order leaks."""

from __future__ import annotations


class TestUnseededRandom:
    def test_flags_global_rng_call(self, rule_ids) -> None:
        assert "det-unseeded-random" in rule_ids(
            """
            import random
            value = random.random()
            """
        )

    def test_flags_global_shuffle_and_choice(self, rule_ids) -> None:
        ids = rule_ids(
            """
            import random
            random.shuffle(items)
            pick = random.choice(items)
            """
        )
        assert ids.count("det-unseeded-random") == 2

    def test_flags_from_import_of_global_rng(self, rule_ids) -> None:
        assert "det-unseeded-random" in rule_ids(
            """
            from random import choice
            """
        )

    def test_flags_aliased_module(self, rule_ids) -> None:
        assert rule_ids(
            """
            import random as r
            pick = r.sample(items, 2)
            """
        ) == ["det-unseeded-random"]

    def test_allows_seeded_instance(self, rule_ids) -> None:
        assert rule_ids(
            """
            import random
            rng = random.Random(7)
            value = rng.random()
            pick = rng.choice([1, 2])
            """
        ) == []

    def test_allows_importing_random_class(self, rule_ids) -> None:
        assert rule_ids("from random import Random\n") == []

    def test_suppression_comment(self, rule_ids) -> None:
        assert rule_ids(
            """
            import random
            value = random.random()  # lint: ignore[det-unseeded-random] jitter only
            """
        ) == []


class TestWallClock:
    def test_flags_time_time(self, rule_ids) -> None:
        assert "det-wall-clock" in rule_ids(
            """
            import time
            started = time.time()
            """
        )

    def test_flags_datetime_now(self, rule_ids) -> None:
        assert "det-wall-clock" in rule_ids(
            """
            from datetime import datetime
            stamp = datetime.now()
            """
        )

    def test_flags_aliased_module(self, rule_ids) -> None:
        assert rule_ids(
            """
            import time as t
            started = t.time()
            """
        ) == ["det-wall-clock"]

    def test_flags_from_imported_and_aliased_functions(self, rule_ids) -> None:
        assert rule_ids(
            """
            from time import time, perf_counter as pc
            started = time()
            tick = pc()
            """
        ) == ["det-wall-clock", "det-wall-clock"]

    def test_flags_aliased_datetime_class(self, rule_ids) -> None:
        assert rule_ids(
            """
            from datetime import datetime as dt
            stamp = dt.now()
            """
        ) == ["det-wall-clock"]

    def test_allows_unrelated_names_bound_to_clock_words(self, rule_ids) -> None:
        # the rule keys on what the name is imported from, not its spelling
        assert rule_ids(
            """
            from repro.simulation import clock as time
            started = time.time()
            """
        ) == []

    def test_obs_package_is_exempt(self, rule_ids) -> None:
        assert rule_ids(
            """
            import time
            from time import perf_counter as pc
            started = time.perf_counter()
            tick = pc()
            """,
            module="repro.obs.tracing",
            path="src/repro/obs/tracing.py",
        ) == []

    def test_scripts_outside_library_still_checked(self, rule_ids) -> None:
        ids = rule_ids(
            """
            import time
            started = time.time()
            """,
            module=None,
            path="benchmarks/bench_thing.py",
        )
        assert "det-wall-clock" in ids


class TestSetOrder:
    def test_flags_for_loop_over_set_literal(self, rule_ids) -> None:
        assert "det-set-order" in rule_ids(
            """
            for name in {"a", "b"}:
                emit(name)
            """
        )

    def test_flags_list_of_set_call(self, rule_ids) -> None:
        assert "det-set-order" in rule_ids(
            """
            rows = list(set(names))
            """
        )

    def test_flags_join_over_set_union(self, rule_ids) -> None:
        assert "det-set-order" in rule_ids(
            """
            text = ",".join(set(a) | set(b))
            """
        )

    def test_flags_comprehension_over_set(self, rule_ids) -> None:
        assert "det-set-order" in rule_ids(
            """
            rows = [r for r in {1, 2, 3}]
            """
        )

    def test_allows_sorted_set(self, rule_ids) -> None:
        assert rule_ids(
            """
            for name in sorted({"a", "b"}):
                emit(name)
            rows = list(sorted(set(names)))
            """
        ) == []

    def test_allows_order_insensitive_consumers(self, rule_ids) -> None:
        assert rule_ids(
            """
            total = sum({1, 2, 3})
            n = len(set(names))
            biggest = max({1, 2})
            """
        ) == []
