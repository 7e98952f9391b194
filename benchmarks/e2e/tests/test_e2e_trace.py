import inspect
import threading

import numpy as np
import pytest

from e2e import trace
from e2e.trace import Span, Target, Tracer

A, B = 1, 2  # thread ids of synthetic spans


def _by_id(selfs, spans, name):
    (span,) = [s for s in spans if s.name == name]
    return selfs[span.span_id]


def test_self_time_subtracts_nested_same_thread_children():
    spans = [
        Span(1, None, "root", A, 0.0, 10.0),
        Span(2, 1, "child", A, 1.0, 4.0),
        Span(3, 2, "grandchild", A, 2.0, 3.0),
        Span(4, 1, "child2", A, 5.0, 7.0),
    ]
    selfs = trace.self_times(spans)
    assert _by_id(selfs, spans, "root") == pytest.approx(10.0 - 3.0 - 2.0)
    assert _by_id(selfs, spans, "child") == pytest.approx(3.0 - 1.0)
    assert _by_id(selfs, spans, "grandchild") == pytest.approx(1.0)
    assert _by_id(selfs, spans, "child2") == pytest.approx(2.0)


def test_self_time_ignores_spans_of_other_threads():
    spans = [
        Span(1, None, "coordinator", A, 0.0, 10.0),
        # A worker-thread span overlapping the coordinator, even one that
        # names it as parent, covers none of the coordinator's time.
        Span(2, 1, "worker", B, 2.0, 8.0),
        Span(3, None, "worker", B, 8.0, 9.0),
    ]
    selfs = trace.self_times(spans)
    assert _by_id(selfs, spans, "coordinator") == pytest.approx(10.0)
    totals = trace.totals_by_name(spans)
    assert totals["worker"] == {"self_s": pytest.approx(7.0), "calls": 2}


def test_self_time_counts_only_the_covered_part_of_a_child():
    spans = [
        Span(1, None, "parent", A, 0.0, 4.0),
        Span(2, 1, "child", A, 3.0, 6.0),
    ]
    selfs = trace.self_times(spans)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(3.0)


def test_span_metrics_report_percent_of_wall_and_counts_per_pass():
    spans = [
        Span(1, None, "engine.dispatch", A, 0.0, 4.0),
        Span(2, 1, "engine.backend", A, 0.5, 3.5),
        Span(3, 2, "kernels.dist_calc", A, 1.0, 2.0),
        Span(4, 2, "kernels.sort_scan", A, 2.0, 3.0),
    ]
    out = trace.span_metrics(spans, {"engine.escalations": 2}, wall=5.0, n_passes=2)
    assert out["engine.dispatch_self_pct"] == pytest.approx(100.0 * 1.0 / 5.0)
    assert out["engine.backend_self_pct"] == pytest.approx(100.0 * 1.0 / 5.0)
    assert out["kernels.dist_calc_pct"] == pytest.approx(20.0)
    assert out["engine.tiles"] == pytest.approx(0.5)
    assert out["kernels.steps"] == pytest.approx(0.5)
    assert out["kernels.us_per_step"] == pytest.approx(2.0e6)
    assert out["engine.escalations"] == pytest.approx(1.0)


def _state(targets):
    state = []
    for target in targets:
        owner, name = trace._resolve(target)
        state.append((owner, name, name in vars(owner), inspect.getattr_static(owner, name)))
    return state


def test_tracer_restores_every_patched_attribute():
    before = _state(trace.TARGETS)
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            assert trace.installed_wrappers() == len(trace.TARGETS)
            raise RuntimeError("boom")
    after = _state(trace.TARGETS)
    assert trace.installed_wrappers() == 0
    for (owner, name, own, raw), (_, _, own_after, raw_after) in zip(before, after):
        assert own_after == own, name
        assert raw_after is raw, name


def test_tracer_records_the_layer_stack_of_a_real_job():
    from repro import matrix_profile

    series = np.random.default_rng(0).normal(size=(200, 2))
    tracer = Tracer()
    with tracer.installed(), tracer.op("job-a"):
        matrix_profile(series, m=16, mode="FP32", n_tiles=4)
    names = {s.name for s in tracer.spans}
    assert {"engine.dispatch", "engine.backend", "engine.run_tile",
            "kernels.dist_calc", "engine.merge"} <= names
    assert {s.op for s in tracer.spans} == {"job-a"}
    by_id = {s.span_id: s for s in tracer.spans}
    kernel = next(s for s in tracer.spans if s.name == "kernels.dist_calc")
    chain = []
    while kernel.parent_id is not None:
        kernel = by_id[kernel.parent_id]
        chain.append(kernel.name)
    assert chain[:3] == ["engine.run_tile", "engine.backend", "engine.dispatch"]
    assert tracer.counts["engine.escalations"] == 0


def labelled(*, label=None):
    """Stand-in for a callable whose keyword carries the op id."""
    return {"hits": 1}


def test_op_argument_and_harvest_apply_per_thread():
    target = Target(__name__, "labelled", "test.labelled", op_arg="label",
                    harvest=lambda result: result)
    tracer = Tracer()
    with tracer.installed([target]):
        worker = threading.Thread(target=lambda: globals()["labelled"](label="job7"))
        worker.start()
        worker.join(timeout=10)
        with tracer.op("client"):
            globals()["labelled"]()
    assert not worker.is_alive()
    assert sorted(s.op for s in tracer.spans) == ["client", "job7"]
    assert tracer.counts["hits"] == 2
    assert trace.installed_wrappers([target]) == 0
