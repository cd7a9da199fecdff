"""Tests for generator-based processes and futures."""

import pytest

from repro.sim import Future, Process, Simulator, all_of
from repro.util.errors import SimulationError


class TestFuture:
    def test_resolve_and_value(self):
        f = Future()
        assert not f.done
        f.resolve(42)
        assert f.done
        assert f.value == 42

    def test_value_before_resolve_raises(self):
        with pytest.raises(SimulationError):
            Future().value

    def test_double_resolve_rejected(self):
        f = Future()
        f.resolve(1)
        with pytest.raises(SimulationError):
            f.resolve(2)

    def test_callback_after_resolve_runs_immediately(self):
        f = Future()
        f.resolve("x")
        seen = []
        f.add_callback(seen.append)
        assert seen == ["x"]

    def test_callbacks_fire_in_order(self):
        f = Future()
        seen = []
        f.add_callback(lambda v: seen.append(("a", v)))
        f.add_callback(lambda v: seen.append(("b", v)))
        f.resolve(1)
        assert seen == [("a", 1), ("b", 1)]


class TestAllOf:
    def test_empty_resolves_immediately(self):
        assert all_of([]).done

    def test_waits_for_all(self):
        f1, f2 = Future(), Future()
        combined = all_of([f1, f2])
        f1.resolve(None)
        assert not combined.done
        f2.resolve(None)
        assert combined.done

    def test_already_resolved_inputs(self):
        f1 = Future()
        f1.resolve(None)
        assert all_of([f1]).done


class TestProcess:
    def test_sleep_sequence(self):
        sim = Simulator()
        times = []

        def proc():
            times.append(sim.now)
            yield 1.0
            times.append(sim.now)
            yield 2.5
            times.append(sim.now)

        Process(sim, proc())
        sim.run()
        assert times == [0.0, 1.0, 3.5]

    def test_wait_on_future_gets_value(self):
        sim = Simulator()
        f = Future()
        got = []

        def proc():
            value = yield f
            got.append((sim.now, value))

        Process(sim, proc())
        sim.schedule(2.0, f.resolve, "payload")
        sim.run()
        assert got == [(2.0, "payload")]

    def test_finished_resolves_with_return_value(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return "done"

        p = Process(sim, proc())
        sim.run()
        assert p.finished.done
        assert p.finished.value == "done"

    def test_negative_delay_rejected(self):
        sim = Simulator()

        def proc():
            yield -1.0

        Process(sim, proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_bad_yield_type_rejected(self):
        sim = Simulator()

        def proc():
            yield "nope"

        Process(sim, proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_exception_propagates(self):
        sim = Simulator()

        def proc():
            yield 1.0
            raise RuntimeError("boom")

        Process(sim, proc())
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_two_processes_interleave(self):
        sim = Simulator()
        log = []

        def proc(name, delay):
            for _ in range(3):
                yield delay
                log.append((name, sim.now))

        Process(sim, proc("fast", 1.0))
        Process(sim, proc("slow", 1.5))
        sim.run()
        # At t=3.0 both wake; slow's wake event was scheduled earlier
        # (at t=1.5 vs t=2.0), so FIFO tie-breaking fires it first.
        assert log == [
            ("fast", 1.0),
            ("slow", 1.5),
            ("fast", 2.0),
            ("slow", 3.0),
            ("fast", 3.0),
            ("slow", 4.5),
        ]

    def test_pingpong_via_futures(self):
        """Closed-loop request/response pattern used by workloads."""
        sim = Simulator()
        rtt = 2e-6
        completions = []

        def fake_send():
            f = Future()
            sim.schedule(rtt, f.resolve, None)
            return f

        def client():
            for _ in range(5):
                yield fake_send()
                completions.append(sim.now)

        Process(sim, client())
        sim.run()
        assert len(completions) == 5
        assert completions[-1] == pytest.approx(5 * rtt)


class TestResources:
    def test_store_put_then_get(self):
        from repro.sim import Store

        sim = Simulator()
        store = Store(sim)
        store.put("x")
        assert len(store) == 1
        got = store.get()
        assert got.done and got.value == "x"
        assert len(store) == 0

    def test_store_get_then_put(self):
        from repro.sim import Store

        sim = Simulator()
        store = Store(sim)
        got = store.get()
        assert not got.done
        store.put("y")
        assert got.done and got.value == "y"
