"""Executor contract: item-order results, error transparency, fallback."""

from __future__ import annotations

from concurrent.futures import BrokenExecutor

import pytest

from repro.obs import global_registry
from repro.parallel import (
    ParallelExecutor,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.parallel import executor as executor_mod


# Worker functions must be module-level (picklable) and pure.
def _times(shared: int, item: int) -> int:
    return shared * item


def _boom(shared: int, item: int) -> int:
    if item == 3:
        raise RuntimeError("task failure must propagate")
    return shared * item


def _repeat(shared: list[int], item: int) -> list[int]:
    return shared * item


def _store_domains(shared, item: int) -> int:
    store, factor = shared
    return store.domain_count * factor * item


class TestSerialExecutor:
    def test_run_preserves_item_order(self) -> None:
        assert SerialExecutor().run(_times, 10, [3, 1, 2]) == [30, 10, 20]

    def test_run_stream_yields_index_result_pairs(self) -> None:
        pairs = list(SerialExecutor().run_stream(_times, 2, [5, 6]))
        assert pairs == [(0, 10), (1, 12)]

    def test_task_exception_propagates(self) -> None:
        with pytest.raises(RuntimeError, match="must propagate"):
            SerialExecutor().run(_boom, 1, [1, 2, 3])


class TestProcessExecutor:
    def test_rejects_single_worker(self) -> None:
        with pytest.raises(ValueError, match="workers >= 2"):
            ProcessExecutor(1)

    def test_run_returns_item_order_regardless_of_completion(self) -> None:
        assert ProcessExecutor(2).run(_times, 3, [4, 1, 9, 2]) == [12, 3, 27, 6]

    def test_run_stream_covers_every_index_exactly_once(self) -> None:
        pairs = dict(ProcessExecutor(2).run_stream(_times, 2, [7, 8, 9]))
        assert pairs == {0: 14, 1: 16, 2: 18}

    def test_empty_items_is_a_no_op(self) -> None:
        executor = ProcessExecutor(2)
        assert executor.run(_times, 1, []) == []
        assert list(executor.run_stream(_times, 1, [])) == []

    def test_task_exception_propagates_from_worker(self) -> None:
        with pytest.raises(RuntimeError, match="must propagate"):
            ProcessExecutor(2).run(_boom, 1, [1, 2, 3])

    def test_shared_payload_reaches_workers(self) -> None:
        # shared is a compound object, delivered via fork COW or pickle
        def check(results):
            assert results == [[1, 2, 3], [1, 2, 3, 1, 2, 3]]

        check(ProcessExecutor(2).run(_repeat, [1, 2, 3], [1, 2]))

    def test_broken_pool_falls_back_in_process(self, monkeypatch) -> None:
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise BrokenExecutor("pool refused to start")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", ExplodingPool)
        before = global_registry().value("parallel_fallbacks_total")
        executor = ProcessExecutor(4)
        assert executor.run(_times, 5, [1, 2, 3]) == [5, 10, 15]
        after = global_registry().value("parallel_fallbacks_total")
        assert after == before + 1

    def test_shared_slot_reset_after_fallback(self, monkeypatch) -> None:
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise BrokenExecutor("pool refused to start")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", ExplodingPool)
        ProcessExecutor(2).run(_times, 5, [1])
        assert executor_mod._SHARED is None

    def test_spawn_ships_columnar_store(self, tmp_path) -> None:
        # Under spawn the store pickles as its path and each worker
        # re-maps the file.
        from repro.datasets import ColumnarDataset, write_columnar
        from repro.simulation import ScenarioConfig, run_scenario

        world = run_scenario(ScenarioConfig(n_domains=40, seed=11))
        dataset, _ = world.run_crawl()
        path = write_columnar(dataset, tmp_path / "d.rcol")
        store = ColumnarDataset.open(path)

        executor = ProcessExecutor(2, start_method="spawn")
        results = executor.run(_store_domains, (store, 2), [1, 3])
        assert results == [store.domain_count * 2, store.domain_count * 6]


class TestResolveExecutor:
    def test_one_worker_is_serial(self) -> None:
        executor = resolve_executor(1)
        assert isinstance(executor, SerialExecutor)
        assert executor.workers == 1

    def test_zero_and_negative_are_serial(self) -> None:
        assert isinstance(resolve_executor(0), SerialExecutor)
        assert isinstance(resolve_executor(-3), SerialExecutor)

    def test_many_workers_is_a_process_pool(self) -> None:
        executor = resolve_executor(4)
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 4

    def test_both_satisfy_the_protocol(self) -> None:
        for executor in (resolve_executor(1), resolve_executor(2)):
            assert isinstance(executor, ParallelExecutor)
