"""Unit tests for the MetricsRegistry."""

from __future__ import annotations

import threading

from repro.obs import MetricsRegistry


def test_counters_inc_and_read():
    m = MetricsRegistry()
    m.inc("a")
    m.inc("a", 2)
    m.inc("b", 5, labels={"op": "join"})
    assert m.counter("a") == 3
    assert m.counter("b", labels={"op": "join"}) == 5
    assert m.counter("b") == 0  # unlabelled series is distinct


def test_label_order_does_not_matter():
    m = MetricsRegistry()
    m.inc("x", labels={"a": "1", "b": "2"})
    m.inc("x", labels={"b": "2", "a": "1"})
    assert m.counter("x", labels={"a": "1", "b": "2"}) == 2


def test_gauges_overwrite():
    m = MetricsRegistry()
    m.set_gauge("depth", 3)
    m.set_gauge("depth", 7)
    assert m.gauge("depth") == 7
    assert m.gauge("missing") is None


def test_histogram_summary():
    m = MetricsRegistry()
    for v in (1.0, 2.0, 3.0):
        m.observe("lat", v)
    s = m.histogram_summary("lat")
    assert s["count"] == 3
    assert s["sum"] == 6.0
    assert s["min"] == 1.0
    assert s["max"] == 3.0
    assert s["mean"] == 2.0
    assert m.histogram_summary("missing") is None


def test_histogram_counts_every_observation_and_keeps_the_max():
    m = MetricsRegistry()
    for i in range(5000):
        m.observe("lat", float(i))
    s = m.histogram_summary("lat")
    assert s["count"] == 5000
    assert s["max"] == 4999.0


def test_snapshot_renders_labels_inline():
    m = MetricsRegistry()
    m.inc("rdd.stages", labels={"origin": "map"})
    m.set_gauge("cache.entries", 4)
    m.observe("lat", 0.5)
    snap = m.snapshot()
    assert snap["counters"] == {"rdd.stages{origin=map}": 1}
    assert snap["gauges"] == {"cache.entries": 4}
    assert snap["histograms"]["lat"]["count"] == 1


def test_merge_counts_skips_non_numeric_and_bools():
    m = MetricsRegistry()
    m.merge_counts(
        {"hits": 3, "rate": 0.5, "label": "x", "flag": True},
        prefix="cache.",
    )
    assert m.counter("cache.hits") == 3
    assert m.counter("cache.rate") == 0.5
    assert m.counter("cache.label") == 0
    assert m.counter("cache.flag") == 0


def test_clear():
    m = MetricsRegistry()
    m.inc("a")
    m.set_gauge("g", 1)
    m.observe("h", 1.0)
    m.clear()
    snap = m.snapshot()
    assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


def test_concurrent_increments_do_not_lose_updates():
    m = MetricsRegistry()

    def worker():
        for _ in range(1000):
            m.inc("n")

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert m.counter("n") == 4000
