"""Tests for the deterministic parallel map (repro.runtime.parallel)."""

from __future__ import annotations

import math
import os

import pytest

from repro.runtime import (
    WorkerFailure,
    WorkerPool,
    deterministic_chunksize,
    parallel_map,
    resolve_jobs,
)


def _pid(_item: object) -> int:
    return os.getpid()


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_none_and_zero_mean_all_cpus(self):
        expected = os.cpu_count() or 1
        assert resolve_jobs(None) == expected
        assert resolve_jobs(0) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestDeterministicChunksize:
    def test_pure_function_of_inputs(self):
        assert deterministic_chunksize(100, 4) == deterministic_chunksize(100, 4)

    def test_bounds(self):
        assert deterministic_chunksize(0, 4) == 1
        assert deterministic_chunksize(1, 8) == 1
        assert deterministic_chunksize(10_000, 1) == 32  # capped

    def test_roughly_four_chunks_per_worker(self):
        assert deterministic_chunksize(64, 4) == 4


class TestParallelMap:
    def test_serial_fallback_preserves_order(self):
        result = parallel_map(str.upper, ["a", "b", "c"], jobs=1)
        assert result == ["A", "B", "C"]

    def test_serial_on_result_callback_in_order(self):
        seen = []
        parallel_map(str.upper, ["a", "b"], jobs=1,
                     on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(0, "A"), (1, "B")]

    def test_parallel_matches_serial(self):
        values = list(range(40))
        serial = parallel_map(math.sqrt, values, jobs=1)
        parallel = parallel_map(math.sqrt, values, jobs=2)
        assert parallel == serial

    def test_parallel_on_result_delivers_every_item(self):
        # Completion order is not guaranteed under jobs>1, but every item
        # must be reported exactly once with its input index.
        seen = []
        parallel_map(math.sqrt, [4.0, 9.0, 16.0], jobs=2,
                     on_result=lambda i, r: seen.append((i, r)))
        assert sorted(seen) == [(0, 2.0), (1, 3.0), (2, 4.0)]

    def test_parallel_failure_still_delivers_completed_results(self):
        # A failing unit must not discard sibling results: every non-failing
        # chunk is gathered (and reported) before the error propagates.
        seen = []
        with pytest.raises(WorkerFailure) as excinfo:
            parallel_map(math.sqrt, [4.0, "x", 16.0, 25.0], jobs=2,
                         chunksize=1, on_result=lambda i, r: seen.append(i))
        assert sorted(seen) == [0, 2, 3]
        failure = excinfo.value
        assert failure.unit_index == 1
        assert failure.kind == "error"
        assert failure.attempts == 1
        assert isinstance(failure.__cause__, TypeError)

    def test_serial_failure_raises_the_original_exception(self):
        # jobs=1 is the reference path: no supervision wrapper, the unit's
        # own exception propagates unchanged.
        with pytest.raises(TypeError):
            parallel_map(math.sqrt, [4.0, "x"], jobs=1)

    def test_empty_input(self):
        assert parallel_map(str.upper, [], jobs=4) == []

    def test_worker_count_never_exceeds_items(self):
        # jobs=8 with 2 items must still work (pool sized down to 2).
        assert parallel_map(str.upper, ["x", "y"], jobs=8) == ["X", "Y"]


class TestWorkerPool:
    def test_the_pool_alone_sets_the_worker_count(self):
        pool = WorkerPool(2)
        try:
            # jobs is ignored: two workers, so the items leave this process.
            assert os.getpid() not in parallel_map(_pid, range(4), jobs=1, pool=pool)
        finally:
            pool.close()
        # And one worker means the serial path, whatever jobs says.
        assert set(parallel_map(_pid, range(4), jobs=4, pool=WorkerPool(1))) == {
            os.getpid()
        }

    def test_workers_outlive_a_call_until_close(self):
        pool = WorkerPool(2)
        try:
            assert parallel_map(math.sqrt, [4.0, 9.0], pool=pool) == [2.0, 3.0]
            executor = pool.executor()
            assert parallel_map(math.sqrt, [16.0, 25.0], pool=pool) == [4.0, 5.0]
            assert pool.executor() is executor
        finally:
            pool.close()
        assert pool.executor() is not executor  # closed: starts anew
        pool.close()

    def test_reset_disposes_only_the_executor_the_caller_saw(self):
        pool = WorkerPool(2)
        try:
            broken = pool.executor()
            pool.reset(broken)
            rebuilt = pool.executor()
            assert rebuilt is not broken
            # A second caller that saw the same executor break must not
            # dispose the one the first caller already rebuilt.
            pool.reset(broken)
            assert pool.executor() is rebuilt
            assert pool.resets == 1
            assert parallel_map(math.sqrt, [4.0, 9.0], pool=pool) == [2.0, 3.0]
        finally:
            pool.close()
