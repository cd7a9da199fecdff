"""Session helpers: run a workload on a cluster, return the report.

The benchmark harness and the examples use :func:`run_session` to keep
the "build cluster → start workloads → drain → report" sequence in one
place.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.runtime.cluster import Cluster
from repro.runtime.metrics import SessionReport
from repro.util.errors import SimulationError

__all__ = ["run_session"]

#: A workload installer: receives the cluster, starts processes /
#: subscriptions, and may return anything (ignored).
WorkloadInstaller = Callable[[Cluster], object]


def run_session(
    cluster: Cluster,
    workloads: Sequence[WorkloadInstaller],
    *,
    until: float | None = None,
    warmup: float = 0.0,
    max_events: int = 50_000_000,
) -> SessionReport:
    """Install workloads, run the cluster, and return the report.

    With ``until=None`` the simulation drains completely (finite
    workloads); otherwise it stops at the given virtual time.
    ``warmup`` excludes messages submitted before that time from the
    report (steady-state measurements).
    """
    if warmup < 0:
        raise SimulationError(f"warmup must be >= 0, got {warmup}")
    if until is not None and warmup >= until:
        raise SimulationError(f"warmup {warmup} must precede until {until}")
    for install in workloads:
        install(cluster)
    if until is None:
        cluster.run_until_idle(max_events=max_events)
    else:
        cluster.run(until=until)
    obs_plane = getattr(cluster, "obs", None)
    if obs_plane is not None:
        # Mirror end-of-run stats into the metrics registry so every
        # session exit leaves a complete exposition (idempotent); blame
        # is attributed when the registry is first read, not here.
        obs_plane.finalize()
    return cluster.report(since=warmup)
