"""Per-stage closure broadcast in the process executor.

The stage function is cloudpickled once per stage on the driver and
deserialized once per stage in each worker, instead of a cloudpickle
round-trip per task — closures can carry a broadcast-hash join's whole
build map, so per-task serialization would scale that cost by task
count.
"""

from __future__ import annotations

import operator

import pytest

import repro.rdd.executors as ex
from repro.rdd import SJContext
from repro.rdd.executors import ProcessExecutor, _invoke_stage_task


# ----------------------------------------------------------------------
# worker-side cache (unit, no processes needed)
# ----------------------------------------------------------------------

@pytest.fixture(autouse=True)
def _reset_worker_cache():
    saved = dict(ex._WORKER_STAGE_CACHE)
    ex._WORKER_STAGE_CACHE.update(key=None, fn=None)
    yield
    ex._WORKER_STAGE_CACHE.update(saved)


def _payload(fn, monkeypatch, counter):
    real_loads = ex.cloudpickle.loads

    def counting_loads(b):
        counter[0] += 1
        return real_loads(b)

    monkeypatch.setattr(ex.cloudpickle, "loads", counting_loads)
    return ex.cloudpickle.dumps(fn)


def test_worker_deserializes_once_per_stage(monkeypatch):
    loads = [0]
    payload = _payload(lambda i, items: [x * 2 for x in items],
                       monkeypatch, loads)
    key = ("exec", 1)
    assert _invoke_stage_task(key, payload, 0, [1, 2]) == [2, 4]
    assert _invoke_stage_task(key, payload, 1, [3]) == [6]
    assert _invoke_stage_task(key, payload, 2, [4]) == [8]
    assert loads[0] == 1  # three tasks, one deserialization


def test_new_stage_key_invalidates_cache(monkeypatch):
    loads = [0]
    p1 = _payload(lambda i, items: items, monkeypatch, loads)
    p2 = ex.cloudpickle.dumps(lambda i, items: [-x for x in items])
    assert _invoke_stage_task(("e", 1), p1, 0, [5]) == [5]
    assert _invoke_stage_task(("e", 2), p2, 0, [5]) == [-5]
    assert _invoke_stage_task(("e", 2), p2, 1, [6]) == [-6]
    assert loads[0] == 2  # one per distinct stage key


def test_cache_distinguishes_executors(monkeypatch):
    # two executors may both be on stage 1; their keys must not collide
    loads = [0]
    pa = _payload(lambda i, items: ["a"] * len(items),
                  monkeypatch, loads)
    pb = ex.cloudpickle.dumps(lambda i, items: ["b"] * len(items))
    assert _invoke_stage_task(("exec-a", 1), pa, 0, [0]) == ["a"]
    assert _invoke_stage_task(("exec-b", 1), pb, 0, [0]) == ["b"]
    assert _invoke_stage_task(("exec-a", 1), pa, 0, [0]) == ["a"]
    assert loads[0] == 3  # alternation evicts; correctness intact


# ----------------------------------------------------------------------
# driver-side accounting + end-to-end on a spawn pool
# ----------------------------------------------------------------------

def test_spawn_pool_pickles_closure_once_per_stage():
    execr = ProcessExecutor(2, start_method="spawn")
    with SJContext(executor=execr, default_parallelism=4) as ctx:
        pairs = [(i % 5, i) for i in range(100)]
        got = dict(
            ctx.parallelize(pairs, 8)
            .map(lambda kv: (kv[0], kv[1] * 2))
            .aggregateByKey(0, operator.add, operator.add, 4)
            .collect()
        )
        want: dict = {}
        for k, v in pairs:
            want[k] = want.get(k, 0) + 2 * v
        assert got == want
        # narrow (8 tasks) + shuffle-map (8) + shuffle-reduce (4): the
        # closure crosses cloudpickle once per *stage*, not per task
        assert execr.closure_pickle_count == 3


def test_spawn_pool_broadcast_join_correct():
    left = [(i % 7, i) for i in range(60)]
    right = [(k, f"r{k}") for k in range(7)]
    want = sorted((k, (v, f"r{k}")) for k, v in left)
    execr = ProcessExecutor(2, start_method="spawn")
    with SJContext(executor=execr, default_parallelism=4) as ctx:
        got = sorted(
            ctx.parallelize(left, 6)
            .adaptiveJoin(ctx.parallelize(right, 2))
            .collect()
        )
        assert ctx.report.joins()[-1].strategy == "broadcast"
    assert got == want
