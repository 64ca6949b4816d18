import importlib
import json

import pytest
from tracer import LAYER_METRICS, Span, Tracer, layer_metrics, self_times

import run


def test_self_time_subtracts_union_of_children():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5)
    # and [8, 12] (clipped to the root: 2); grandchild [2, 3] is inside the
    # first child and does not count against the root.
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),
        Span("c", 8.0, 12.0, parent=0),
        Span("a.x", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_nested_spans_record_parents_and_ops():
    tracer = Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.bump("events")
            tracer.bump("events")
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert outer.op == inner.op == 7
    assert inner.facts == {"events": 2}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_layer_metrics_per_pass_medians():
    spans = [
        Span("cli.main", 0.0, 1.0, op=0),
        Span("data_io.load", 0.1, 0.5, parent=0, op=0, facts={"bytes": 2e6, "matrices": 10}),
        Span("linalg.eigh_stack", 0.5, 0.6, parent=0, op=0, facts={"matrices": 20}),
        Span("cli.main", 2.0, 4.0, op=1),
        Span("data_io.load", 2.0, 3.0, parent=3, op=1, facts={"bytes": 2e6, "matrices": 10}),
    ]
    m = layer_metrics(spans, [([0], 1.0), ([1], 2.0)])
    assert m["data_io.load.calls"] == 1
    assert m["data_io.load.mb"] == pytest.approx(2.0)
    # per-pass rates 2/0.4 and 2/1.0, median of the two
    assert m["data_io.load.mb_per_s"] == pytest.approx((5.0 + 2.0) / 2)
    assert m["linalg.eigh_per_input"] == pytest.approx((2.0 + 0.0) / 2)
    assert m["cli.main.self_s"] == pytest.approx((0.5 + 1.0) / 2)
    assert m["cli.share"] == pytest.approx(0.5)
    assert set(m) == set(LAYER_METRICS)


def test_install_wraps_every_binding_and_uninstall_restores():
    run.import_program()
    experiments = importlib.import_module("spdsliced.experiments")
    sliced = importlib.import_module("spdsliced.sliced")
    linalg = importlib.import_module("spdsliced.linalg")
    before = (experiments.log_stack, sliced.log_stack, linalg.log_stack)
    assert before[0] is before[1] is before[2]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = (experiments.log_stack, sliced.log_stack, linalg.log_stack)
        assert all(w is not before[0] for w in wrapped)
    finally:
        tracer.uninstall()
    assert (experiments.log_stack, sliced.log_stack, linalg.log_stack) == before


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
