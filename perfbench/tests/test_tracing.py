"""Self-time arithmetic, window attribution and wrapper installation."""

import pytest

from perfbench import tracing


def span(name, start, end, parent=-1, units=0.0):
    return (name, start, end, parent, units)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", 0.0, 10.0),        # 0: root
        span("b", 1.0, 4.0, 0),      # 1: child of a
        span("c", 2.0, 3.0, 1),      # 2: grandchild
        span("b", 5.0, 9.0, 0),      # 3: second child of a
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4])


def test_summarize_keeps_spans_inside_windows_and_reports_the_rest():
    spans = [
        span("setup", 0.0, 1.0),             # before the window: ignored
        span("work", 2.0, 5.0, units=7),
        span("inner", 3.0, 4.0, 1, units=2),
        span("work", 6.0, 7.0, units=1),
        span("late", 9.5, 11.0),             # straddles the window end: ignored
    ]
    table, window, unattributed = tracing.summarize(spans, [(2.0, 10.0)])
    assert set(table) == {"work", "inner"}
    assert table["work"] == {"calls": 2, "self_s": pytest.approx(2.0 + 1.0), "units": 8}
    assert table["inner"]["self_s"] == pytest.approx(1.0)
    assert window == 8.0
    # Self times plus unattributed add up to the window.
    assert unattributed + 3.0 + 1.0 == pytest.approx(window)


def test_layer_metrics_divide_by_repetitions():
    spans = [
        span("compiled.sequence", 0.0, 0.002, units=100),
        span("compiled.sequence", 1.0, 1.004, units=100),
        span("backends.bulk", 2.0, 2.5, units=30),
        span("backends.block", 3.0, 4.0, units=70),
    ]
    metrics = tracing.layer_metrics(spans, [(0.0, 5.0)], per=2)
    assert metrics["compiled.calls"] == 1
    assert metrics["compiled.edges_per_call"] == 100
    assert metrics["compiled.self_ms"] == pytest.approx(3.0)
    assert metrics["backends.bulk_frac"] == pytest.approx(0.3)
    assert metrics["trace.window_ms"] == pytest.approx(2500.0)
    assert metrics["trace.unattributed_ms"] == pytest.approx(2500.0 - 3.0 - 250.0 - 500.0)


def test_wrapper_records_nesting_and_survives_exceptions():
    tracer = tracing.Tracer()

    def inner():
        raise KeyError("x")

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        try:
            traced_inner()
        except KeyError:
            return 5

    assert tracer.wrap("outer", outer)() == 5
    (n0, s0, e0, p0, _), (n1, s1, e1, p1, _) = tracer.spans()
    assert (n0, p0, n1, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0


def test_install_patches_every_import_site_and_uninstall_restores():
    import repro.engine.streaming as streaming
    import repro.instances.compiled as compiled
    from repro.engine.backends import NumpyWeightBackend, WeightBackend

    original = compiled.compile_sequence
    tracer = tracing.Tracer().install()
    try:
        assert streaming.compile_sequence is compiled.compile_sequence
        assert compiled.compile_sequence is not original
        assert "process_arrival_indexed" in vars(NumpyWeightBackend)
        session = streaming.StreamingSession({0: 1, 1: 1}, algorithm="randomized", backend="numpy", seed=1)
        from repro.instances.request import Request

        session.submit_batch([Request(0, frozenset({0, 1}), 1.0), Request(1, frozenset({0}), 2.0)])
    finally:
        tracer.uninstall()
    assert compiled.compile_sequence is original and streaming.compile_sequence is original
    assert "process_arrival_indexed" not in vars(NumpyWeightBackend)
    assert NumpyWeightBackend.process_arrival_indexed is WeightBackend.process_arrival_indexed
    names = [name for name, *_ in tracer.spans()]
    assert names.count("streaming.submit_batch") == 1
    assert names.count("compiled.sequence") == 1
    assert names.count("randomized.process") == 2
    assert tracer.session is session


def test_offset_parents_shifts_only_real_parents():
    spans = [span("a", 0.0, 2.0), span("b", 0.5, 1.0, 0)]
    assert tracing.offset_parents(spans, 3) == [span("a", 0.0, 2.0), span("b", 0.5, 1.0, 3)]
