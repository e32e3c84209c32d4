"""The tracer: self-time algebra, guards, and leaving the program unchanged."""

import importlib
import sys

import pytest

from bench import trace
from bench.trace import ROOT_LAYER, Tracer, TraceError


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_children() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf() -> None:
        clock.now += 2.0

    traced_leaf = tracer.span("mem.demand", leaf)

    def mid() -> None:
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 1.0

    traced_mid = tracer.span("cpu.app", mid)
    traced_leaf()  # outside a rep: not recorded
    with tracer.rep():
        clock.now += 0.25
        traced_mid()
        clock.now += 0.25
    rep = tracer.last
    assert rep.wall_s == 6.5
    assert rep.self_s == {"mem.demand": 4.0, "cpu.app": 2.0, ROOT_LAYER: 0.5}
    assert rep.calls == {"mem.demand": 2, "cpu.app": 1, ROOT_LAYER: 1}
    assert sum(rep.self_s.values()) == rep.wall_s
    with pytest.raises(TraceError, match="unattributed"):
        rep.check()  # 0.5 of 6.5 s is unclaimed: above the 5% limit


def test_same_layer_reentry_is_one_span_and_phases_are_inclusive() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner() -> None:
        clock.now += 1.0

    traced_inner = tracer.span("core.prefetch", inner)

    def outer() -> None:
        clock.now += 1.0
        traced_inner()  # like RegulatedMLCPrefetcher.hint -> super().hint

    traced_outer = tracer.span("core.prefetch", outer, phase="run")
    with tracer.rep():
        traced_outer()
    rep = tracer.last
    assert rep.calls["core.prefetch"] == 1
    assert rep.self_s["core.prefetch"] == 2.0
    assert rep.phases == {"run": 2.0}
    rep.check()


def _entry_point_values():
    values = []
    for module_name, target, _layer, _phase in trace.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in target:
            class_name, attr = target.split(".")
            cls = getattr(module, class_name)
            for owner in [cls] + trace._subclasses(cls):
                values.extend((owner, name, value) for name, value in vars(owner).items() if callable(value))
        else:
            # Every module that imported the function by name is patched too.
            original = getattr(module, target)
            values.extend(
                (loaded, target, original)
                for name, loaded in list(sys.modules.items())
                if name.split(".")[0] == "repro" and getattr(loaded, target, None) is original
            )
    return values


def _ring64_digest() -> str:
    from repro.analysis.determinism import fingerprint_digest
    from repro.harness import figures
    from repro.harness.runner import run_experiment_summary

    exp = figures._bursty_experiment("ring64", 100.0, 64, antagonist=True).with_policy(
        importlib.import_module("repro.core.policies").idio()
    )
    return fingerprint_digest(run_experiment_summary(exp))


def test_install_then_uninstall_restores_attributes_and_fingerprint() -> None:
    import repro.api  # noqa: F401 - load every module the tracer patches
    from repro.obs.bus import EventBus
    from repro.sim.kernel import Simulator

    before = _ring64_digest()
    patched = _entry_point_values() + [
        (Simulator, "schedule_at", Simulator.__dict__["schedule_at"]),
        (EventBus, "subscribe", EventBus.__dict__["subscribe"]),
        (EventBus, "unsubscribe", EventBus.__dict__["unsubscribe"]),
    ]
    with Tracer() as tracer:
        with tracer.rep():
            traced = _ring64_digest()
        tracer.last.check()
        assert tracer.last.calls["mem.demand"] > 0
        assert tracer.last.calls["core.steer"] > 0
    assert traced == before
    for owner, name, value in patched:
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is value, f"{owner}.{name} not restored"
    assert _ring64_digest() == before


def test_unsubscribe_removes_the_wrapped_handler() -> None:
    from repro.obs.bus import EventBus

    class Listener:
        def __init__(self) -> None:
            self.seen = 0

        def on_event(self, event) -> None:
            self.seen += 1

    listener = Listener()
    bus = EventBus()
    with Tracer():
        bus.subscribe(int, listener.on_event)
        bus.publish(1)
        bus.unsubscribe(int, listener.on_event)  # a fresh bound-method object
        assert not bus.has_subscribers(int)
    assert listener.seen == 1


def test_event_without_a_layer_fails_the_traced_pass() -> None:
    from repro.sim.kernel import Simulator

    with Tracer():
        sim = Simulator()
        sim.schedule_at(0, lambda: None, "pmd-poll-c3")
        with pytest.raises(TraceError, match="mystery"):
            sim.schedule_at(0, lambda: None, "mystery")
