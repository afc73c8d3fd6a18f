"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule_at(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_at(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_at_past_error_names_both_times(self):
        sim = Simulator()
        sim.run_until(4.0)
        with pytest.raises(ValueError, match=r"t=1.5.*now=4.0"):
            sim.schedule_at(1.5, lambda: None)

    def test_schedule_at_nan_rejected(self):
        # A NaN timestamp would silently corrupt the heap ordering.
        with pytest.raises(ValueError):
            Simulator().schedule_at(float("nan"), lambda: None)

    def test_schedule_at_current_instant_fires_after_earlier_peers(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(0.0, lambda: fired.append("first"))
        sim.schedule_at(0.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]

    def test_actions_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(n: int) -> None:
            fired.append(n)
            if n < 3:
                sim.schedule_at(sim.now + 1.0, lambda: chain(n + 1))

        sim.schedule_at(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestRunModes:
    def test_run_returns_fired_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        assert sim.run() == 5

    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        assert sim.run_until(2.0) == 2
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run_until(7.0)
        assert sim.now == 7.0

    def test_step_on_empty_returns_none(self):
        assert Simulator().step() is None
