"""The tracer: wrappers nest, self time is exact, patches are undone."""

from repro.core.change_plan import ChangePlan
from repro.core import pipeline
from repro.routing import isis

from benchmarks.e2e import trace


def _spans(*rows):
    spans = []
    for name, start, end, parent in rows:
        span = trace.Span(name, parent, 0, trace.OP)
        span.start, span.end = start, end
        spans.append(span)
    return spans


def test_self_time_is_duration_minus_direct_children():
    spans = _spans(
        (trace.ROOT, 0.0, 10.0, -1),
        ("exec.run_routes", 1.0, 7.0, 0),
        ("routing.bgp.run", 2.0, 6.0, 1),
        ("traffic.simulate", 7.0, 9.0, 0),
    )
    assert trace._self_times(spans) == [2.0, 2.0, 4.0, 2.0]
    layer = trace.layer_metrics(spans, total_inputs=10, traced_wall={}, untraced_wall={})
    assert layer["routing.bgp.fixpoint_s"] == 4.0
    assert layer["routing.bgp.fixpoint_share"] == 0.4
    assert layer["exec.run_routes_self_s"] == 2.0
    assert layer["core.pipeline.self_s"] == 2.0
    assert layer["traffic.share"] == 0.2


def test_nested_spans_of_one_name_count_once():
    spans = _spans(
        (trace.ROOT, 0.0, 4.0, -1),
        ("routing.inputs.build_local", 0.0, 3.0, 0),
        ("routing.inputs.build_local", 1.0, 2.0, 1),
    )
    layer = trace.layer_metrics(spans, 1, {}, {})
    assert layer["routing.inputs.build_local_s"] == 3.0


def test_install_patches_every_binding_and_uninstall_restores_them():
    original_igp = isis.compute_igp
    original_build = ChangePlan.__dict__["build_updated_model"]
    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        # the pipeline imported compute_igp by name: its binding is patched too
        assert pipeline.compute_igp is isis.compute_igp is not original_igp
        assert ChangePlan.__dict__["build_updated_model"] is not original_build
    finally:
        trace.uninstall(tracer)
    assert pipeline.compute_igp is isis.compute_igp is original_igp
    assert ChangePlan.__dict__["build_updated_model"] is original_build


def test_wrappers_record_only_while_an_op_is_open():
    tracer = trace.Tracer()
    double = tracer.wrap("layer.double", lambda x: 2 * x)
    assert double(2) == 4 and tracer.spans == []
    tracer.open_op(1, trace.OP)
    with tracer.span(trace.ROOT):
        assert double(3) == 6
    tracer.close_op()
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        (trace.ROOT, -1, 1), ("layer.double", 0, 1),
    ]
