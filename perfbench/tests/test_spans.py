import sys
import types

import pytest

from layers import per_layer_metrics
from spans import Layer, Span, Tracer, self_times


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: the union [1, 5] counts once
        Span("c", 6.0, 7.0, 0),
        Span("leaf", 1.5, 2.0, 1),
        Span("other-root", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 1.0, 0.5, 1.0])


def test_tracer_records_nested_spans_with_parents():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(Layer("inner", "x:y"), lambda v: v + 1)
    outer = tracer.wrap(Layer("outer", "x:z"), lambda v: inner(v) * 2)
    assert outer(1) == 4
    assert [(s.layer, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 3.0, -1),
        ("inner", 1.0, 2.0, 0),
    ]
    assert tracer.summary() == {
        "outer": {"calls": 1, "busy_s": 3.0, "self_s": 2.0},
        "inner": {"calls": 1, "busy_s": 1.0, "self_s": 1.0},
    }


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return 2 * x

    class Thing:
        def run(self):
            return "ran"

    mod.work, mod.Thing = work, Thing
    user.work = work  # as after ``from .mod import work``
    user.call = lambda x: user.work(x)
    saved = {k: sys.modules.get(k) for k in ("fakepkg", "fakepkg.mod", "fakepkg.user")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.user": user})
    yield mod, user
    for k, v in saved.items():
        if v is None:
            sys.modules.pop(k)
        else:
            sys.modules[k] = v


def test_install_wraps_aliases_and_reports_removed_layers_as_absent(fake_package):
    mod, user = fake_package
    original = mod.work
    layers = [
        Layer("mod.work", "fakepkg.mod:work"),
        Layer("mod.Thing.run", "fakepkg.mod:Thing.run"),
        Layer("mod.removed", "fakepkg.mod:removed"),
        Layer("gone.module", "fakepkg.gone:work"),
    ]
    tracer = Tracer()
    absent = tracer.install(layers, package="fakepkg")
    assert absent == ["mod.removed", "gone.module"]
    assert user.call(3) == 6 and mod.work(1) == 2 and mod.Thing().run() == "ran"
    tracer.uninstall()
    assert mod.work is original and user.work is original
    user.call(3)  # after uninstall: not recorded
    summary = tracer.summary()
    assert summary["mod.work"]["calls"] == 2 and summary["mod.Thing.run"]["calls"] == 1

    facts = {"flops_per_call": 0, "bytes_per_call": 0, "draws": 0,
             "traced_wall_s": 1.0, "untraced_wall_s": 0.75}
    metrics = per_layer_metrics(
        ["mod.work.calls", "mod.removed.busy_s", "trace.absent_layers", "trace.overhead_s"],
        summary, tracer.sizes, absent, 1, facts,
    )
    assert metrics == {"mod.work.calls": 2, "mod.removed.busy_s": 0.0,
                       "trace.absent_layers": 2, "trace.overhead_s": 0.25}
