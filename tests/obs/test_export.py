"""Exporter tests: JSON tree, chrome://tracing events, Prometheus text,
and the EXPLAIN ANALYZE renderer."""

from __future__ import annotations

import json

from repro.obs import (
    MetricsRegistry,
    Span,
    Tracer,
    to_chrome_trace,
    to_json_tree,
    to_prometheus,
)
from repro.obs.export import chrome_trace_json, render_analyze


def _sample_tree() -> Span:
    tr = Tracer()
    with tr.span("query", kind="query", tenant="default") as root:
        with tr.span("solve", kind="solve") as solve:
            solve.add("candidates_explored", 12)
        with tr.span("stage:map", kind="stage") as stage:
            stage.add("tasks", 2)
            t = stage.child("task:map[0]", kind="task",
                            attrs={"index": 0})
            t.start, t.end = stage.start, stage.start + 0.001
            t.add("rows_out", 10)
    return root


def test_json_tree_is_dumpable():
    root = _sample_tree()
    blob = json.dumps(to_json_tree(root))
    back = json.loads(blob)
    assert back["name"] == "query"
    assert back["children"][0]["name"] == "solve"


def test_chrome_trace_structure():
    root = _sample_tree()
    trace = json.loads(chrome_trace_json(root))
    events = trace["traceEvents"]
    assert trace["displayTimeUnit"] == "ms"
    assert {e["name"] for e in events} == {
        "query", "solve", "stage:map", "task:map[0]"
    }
    for e in events:
        assert e["ph"] == "X"
        assert isinstance(e["ts"], int)
        assert isinstance(e["dur"], int) and e["dur"] >= 0
        assert isinstance(e["pid"], int)
        assert e["tid"] == 1  # tasks run on the driver's thread
    by_name = {e["name"]: e for e in events}
    assert by_name["query"]["args"]["attrs"]["tenant"] == "default"
    assert by_name["solve"]["args"]["counters"] == {
        "candidates_explored": 12
    }


def test_chrome_trace_accepts_many_roots():
    roots = [_sample_tree(), _sample_tree()]
    trace = to_chrome_trace(roots)
    assert len(trace["traceEvents"]) == 8


def test_chrome_trace_filters_non_primitive_attrs():
    s = Span("x", kind="query")
    s.set("ok", "yes")
    s.set("bad", object())
    s.end = s.start
    args = to_chrome_trace(s)["traceEvents"][0]["args"]
    assert args["attrs"] == {"ok": "yes"}


def test_prometheus_text_format():
    m = MetricsRegistry()
    m.inc("rdd.stages", 3, labels={"origin": "map"})
    m.set_gauge("feed.lag_rows", 2)
    m.observe("serve.latency_s", 0.25)
    text = to_prometheus(m)
    lines = text.strip().splitlines()
    assert 'rdd_stages{origin="map"} 3' in lines
    assert "feed_lag_rows 2" in lines
    assert "serve_latency_s_count 1" in lines
    assert "serve_latency_s_sum 0.25" in lines
    assert text.endswith("\n")


def test_prometheus_escapes_label_values():
    # dataset and feed names become label values: separators inside a
    # value must not split it, and quotes, backslashes and newlines are
    # escaped as the exposition format requires
    m = MetricsRegistry()
    m.inc("scan.rows_read", 5, labels={"source": "cab,site=llnl"})
    m.inc("feed.rows", 2, labels={"feed": 'rack "A"'})
    m.set_gauge("feed.lag_s", 1, labels={"feed": "a\\b\nc"})
    m.observe("scan.time_s", 0.5, labels={"source": "x}y"})
    lines = to_prometheus(m).splitlines()
    assert 'scan_rows_read{source="cab,site=llnl"} 5' in lines
    assert 'feed_rows{feed="rack \\"A\\""} 2' in lines
    assert 'feed_lag_s{feed="a\\\\b\\nc"} 1' in lines
    assert 'scan_time_s_count{source="x}y"} 1' in lines
    assert len(lines) == 3 + 4  # a newline in a value opens no line


def test_prometheus_empty_registry():
    assert to_prometheus(MetricsRegistry()) == ""


def test_render_analyze_tree():
    root = Span("explain-analyze", kind="query")
    top = root.child("interpolation_join", kind="plan-node",
                     attrs={"label": "interpolation_join(a, b)"})
    top.start, top.end = 0.0, 0.01
    top.add("rows_out", 42)
    top.add("scan.rows_read", 100)
    top.add("scan.bytes_scanned", 2048)
    leaf = top.child("load", kind="plan-node",
                     attrs={"label": "load(rack_temperatures)"})
    leaf.start, leaf.end = 0.0, 0.002
    leaf.add("rows_out", 7)
    # non-plan-node children (stages) are not part of the rendering
    top.child("stage:map", kind="stage")

    text = render_analyze(root)
    lines = text.splitlines()
    assert lines[0] == (
        "interpolation_join(a, b)  [rows=42; time=10.0ms;"
        " scan.rows_read=100; scan.bytes_scanned=2.0KB]"
    )
    assert lines[1] == "  load(rack_temperatures)  [rows=7; time=2.0ms]"
    assert "stage:map" not in text
