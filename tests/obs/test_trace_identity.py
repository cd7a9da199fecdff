"""The activation trace of ``examples/scenario_mixed.json`` is pinned.

Submits under an armed Nagle hold are answered from the standing hold
(``core/engine.py``) without asking the strategy; the record stream must
not show it.  The digest below was taken at the commit before the
standing hold existed (``5c50533``): same kinds in the same order, same
``backlog`` on every ``optimizer.activate``, same ``wake_at`` on every
``hold.arm``.
"""

import hashlib
import json

from repro.runtime.scenario import load_scenario_file, run_scenario

PARENT_EVENTS = 6915
PARENT_DIGEST = "fd8c8516ca710151a834f4c8d4e0ea71a56575dca92c990eb585086982cba841"


def _run(traced: bool):
    scenario = load_scenario_file("examples/scenario_mixed.json")
    scenario.pop("observability", None)
    if traced:
        scenario["observability"] = {"trace": True}
    report, cluster, _apps = run_scenario(scenario)
    return report, cluster


def activation_record(events) -> list:
    fields = {"optimizer.activate": ("trigger", "backlog"), "hold.arm": ("wake_at", "backlog")}
    return [
        [event.time, event.source, event.kind]
        + [event.detail[name] for name in fields.get(event.kind, ())]
        for event in events
    ]


def test_activation_trace_is_the_parents():
    _report, cluster = _run(traced=True)
    events = cluster.obs.sink.events
    assert len(events) == PARENT_EVENTS
    kinds = {event.kind for event in events}
    assert {"optimizer.activate", "hold.arm", "hold.fire", "engine.dispatch"} <= kinds
    digest = hashlib.sha256(json.dumps(activation_record(events)).encode()).hexdigest()
    assert digest == PARENT_DIGEST


def test_same_without_observability():
    """Tracing observes: the untraced twin dispatches identically."""
    outcomes = []
    for traced in (True, False):
        report, cluster = _run(traced)
        stats = [engine.stats for engine in cluster.engines.values()]
        outcomes.append(
            (
                report.messages,
                report.latency.mean,
                report.data_packets,
                sum(s.dispatches for s in stats),
                sum(s.holds for s in stats),
                sum(sum(s.activations.values()) for s in stats),
                cluster.sim.events_processed,
            )
        )
    assert outcomes[0] == outcomes[1]
