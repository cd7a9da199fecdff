"""Runtime assembly: clusters, metrics, experiment sessions.

:class:`~repro.runtime.cluster.Cluster` builds a complete simulated
system (fabric + nodes + drivers + engines + reassemblers + APIs) from a
declarative spec; :class:`~repro.runtime.metrics.MetricsCollector`
gathers message records; :func:`~repro.runtime.session.run_session`
executes a workload and returns a :class:`~repro.runtime.metrics.SessionReport`.
"""

from repro.runtime.cluster import Cluster
from repro.runtime.metrics import MessageRecord, MetricsCollector, SessionReport
from repro.runtime.session import run_session

__all__ = [
    "Cluster",
    "MessageRecord",
    "MetricsCollector",
    "SessionReport",
    "run_session",
]
