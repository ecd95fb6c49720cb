"""Self-time arithmetic, parent rules and call-site coverage of the tracer."""

import sys
import threading
import types

import pytest
from tracer import CoverageError, Span, Target, Tracer, covered_length, installed, self_times


def span(id, start, end, parent=None, thread=1, name="f", layer="l"):
    return Span(id, name, layer, start, end, parent, thread, 0)


def test_covered_length_merges_and_clips():
    assert covered_length((0.0, 10.0), []) == 0.0
    assert covered_length((0.0, 10.0), [(2.0, 4.0), (3.0, 6.0)]) == 4.0
    assert covered_length((0.0, 10.0), [(-5.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered_length((0.0, 10.0), [(1.0, 9.0), (2.0, 3.0)]) == 8.0
    assert covered_length((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_self_time_of_nested_spans_on_one_thread():
    spans = [span(1, 0.0, 10.0), span(2, 2.0, 5.0, parent=1),
             span(3, 3.0, 4.0, parent=2), span(4, 6.0, 7.5, parent=1)]
    assert self_times(spans) == {1: 10.0 - 3.0 - 1.5, 2: 2.0, 3: 1.0, 4: 1.5}


def test_self_time_with_children_on_other_threads():
    # an op waiting on two workers is charged only while neither is busy
    spans = [span(1, 0.0, 10.0, thread=1),
             span(2, 1.0, 5.0, parent=1, thread=2),
             span(3, 3.0, 8.0, parent=1, thread=3),
             span(4, 3.5, 4.5, parent=3, thread=3),
             span(5, 9.0, 9.5, parent=1, thread=1)]
    got = self_times(spans)
    assert got[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert got[2] == pytest.approx(4.0)
    assert got[3] == pytest.approx(4.0)
    assert got[4] == pytest.approx(1.0)
    # thread-seconds: the sum may exceed the op's wall time
    assert sum(got.values()) == pytest.approx(12.0)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_spans_nest_and_workers_attach_to_the_op_thread():
    tracer = Tracer(clock=FakeClock())

    def worker():
        with tracer.span("work", "pool"):
            pass

    with tracer.op_span(7):
        with tracer.span("outer", "a"):
            with tracer.span("inner", "b"):
                pass
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["op"].parent is None
    assert by_name["outer"].parent == by_name["op"].id
    assert by_name["inner"].parent == by_name["outer"].id
    # the worker had nothing open, so it hangs under the op thread's innermost span
    assert by_name["work"].parent == by_name["outer"].id
    assert by_name["work"].thread != by_name["outer"].thread
    assert {s.op for s in tracer.spans} == {7}


def test_wrap_records_counts_and_spans_of_failing_calls():
    tracer = Tracer()
    double = tracer.wrap(lambda x: 2 * x, "double", "math",
                         count=lambda args, kwargs, result: {"out": result})
    assert double(21) == 42

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom", "math")()
    assert [(s.name, s.attrs) for s in tracer.spans] == [("double", {"out": 42}),
                                                         ("boom", {})]


@pytest.fixture
def fake_package():
    """fakepkg.a defines f and Box.m; fakepkg.b imports f by name."""
    a = types.ModuleType("fakepkg.a")

    def f(x):
        return x + 1

    class Box:
        def m(self):
            return f(1)

    f.__module__ = Box.__module__ = "fakepkg.a"
    a.f, a.Box = f, Box
    b = types.ModuleType("fakepkg.b")
    b.f = f
    pkg = types.ModuleType("fakepkg")
    pkg.f = f
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield mods
    for name in mods:
        del sys.modules[name]


TARGETS = (Target("x", "fakepkg.a", "f"), Target("y", "fakepkg.a", "Box.m"))


def test_install_wraps_every_import_site_and_restores(fake_package):
    a, b, pkg = fake_package["fakepkg.a"], fake_package["fakepkg.b"], fake_package["fakepkg"]
    original = a.f
    tracer = Tracer()
    with installed(tracer, TARGETS, "fakepkg"):
        assert b.f(1) == pkg.f(1) == 2
        assert a.Box().m() == 2
    assert [s.name for s in tracer.spans] == ["f", "f", "Box.m"]
    assert a.f is b.f is pkg.f is original


def test_coverage_check_fails_on_an_unwrapped_reference(fake_package):
    b = fake_package["fakepkg.b"]
    b.HANDLERS = {"inc": fake_package["fakepkg.a"].f}
    with pytest.raises(CoverageError, match=r"fakepkg\.b\.HANDLERS\['inc'\]"):
        with installed(Tracer(), TARGETS, "fakepkg"):
            pass
    # a failed install leaves nothing patched
    assert b.f is fake_package["fakepkg.a"].f


def test_modecomb_targets_cover_every_call_site():
    import layers
    import modecomb
    from modecomb import cli, entanglement

    before = entanglement.decorrelate_iq
    with installed(Tracer(), layers.TARGETS, "modecomb"):
        assert entanglement.decorrelate_iq is not before
        assert modecomb.decorrelate_iq is entanglement.decorrelate_iq
        assert cli.run_scenario.__traced_original__ is not None
    assert entanglement.decorrelate_iq is before
