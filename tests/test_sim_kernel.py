"""Unit + property tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Event, EventQueue, PeriodicTask, SimulationError, Simulator


class TestEventQueue:
    def test_pop_returns_earliest(self):
        q = EventQueue()
        q.push(Event(10, 1, lambda: None))
        q.push(Event(5, 2, lambda: None))
        assert q.pop().time == 5

    def test_fifo_for_equal_times(self):
        q = EventQueue()
        first = Event(5, 1, lambda: None, "first")
        second = Event(5, 2, lambda: None, "second")
        q.push(second)
        q.push(first)
        assert q.pop().name == "first"

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        e1 = Event(1, 1, lambda: None)
        e2 = Event(2, 2, lambda: None)
        q.push(e1)
        q.push(e2)
        e1.cancel()
        assert q.pop() is e2

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
    def test_pop_order_is_sorted(self, times):
        q = EventQueue()
        for i, t in enumerate(times):
            q.push(Event(t, i, lambda: None))
        popped = []
        while len(q):
            try:
                popped.append(q.pop().time)
            except IndexError:
                break
        assert popped == sorted(popped)


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule_at(20, lambda: log.append("b"))
        sim.schedule_at(10, lambda: log.append("a"))
        sim.run()
        assert log == ["a", "b"]

    def test_now_advances_with_events(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule_at(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1, lambda: None)

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        log = []
        sim.schedule_at(10, lambda: log.append(1))
        sim.schedule_at(100, lambda: log.append(2))
        sim.run(until=50)
        assert log == [1]
        assert sim.now == 50

    def test_run_until_advances_clock_on_empty_queue(self):
        sim = Simulator()
        sim.run(until=123)
        assert sim.now == 123

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        log = []

        def chain():
            log.append(sim.now)
            if sim.now < 30:
                sim.schedule_after(10, chain)

        sim.schedule_at(10, chain)
        sim.run()
        assert log == [10, 20, 30]

    def test_max_events_limits_execution(self):
        sim = Simulator()
        log = []
        for t in range(5):
            sim.schedule_at(t + 1, lambda t=t: log.append(t))
        sim.run(max_events=3)
        assert log == [0, 1, 2]

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in range(4):
            sim.schedule_at(t, lambda: None)
        sim.run()
        assert sim.events_fired == 4

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        ev = sim.schedule_at(10, lambda: log.append("x"))
        ev.cancel()
        sim.run()
        assert log == []

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def bad():
            sim.run()

        sim.schedule_at(1, bad)
        with pytest.raises(SimulationError):
            sim.run()

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100))
    def test_execution_times_monotone(self, times):
        sim = Simulator()
        seen = []
        for t in times:
            sim.schedule_at(t, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(times)


class TestPeriodicTask:
    def test_fires_every_period(self):
        sim = Simulator()
        log = []
        PeriodicTask(sim, 10, lambda: log.append(sim.now))
        sim.run(until=35)
        assert log == [10, 20, 30]

    def test_start_offset(self):
        sim = Simulator()
        log = []
        PeriodicTask(sim, 10, lambda: log.append(sim.now), start_offset=0)
        sim.run(until=25)
        assert log == [0, 10, 20]

    def test_stop_halts_firing(self):
        sim = Simulator()
        log = []
        task = PeriodicTask(sim, 10, lambda: log.append(sim.now))
        sim.schedule_at(25, task.stop)
        sim.run(until=100)
        assert log == [10, 20]

    def test_nonpositive_period_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Simulator(), 0, lambda: None)
