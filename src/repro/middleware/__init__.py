"""Synthetic middleware workloads.

The paper's motivation (§1): modern applications stack "complex
conglomerates of multiple communication middlewares such as CORBA, JAVA
RMI or DSM", multiplying concurrent flows between node pairs.  This
package provides traffic generators with the fragment structure and
timing of those middlewares:

* :class:`~repro.middleware.mpi_like.PingPongApp` /
  :class:`~repro.middleware.mpi_like.StreamApp` — regular MPI-style
  schemes (closed-loop ping-pong, open-loop streams);
* :class:`~repro.middleware.rpc.RpcApp` — CORBA/RMI-style
  request/response with marshalled headers;
* :class:`~repro.middleware.dsm.DsmApp` — page-based distributed shared
  memory (fault → page transfer);
* :class:`~repro.middleware.global_arrays.GlobalArraysApp` — one-sided
  put/get traffic;
* :class:`~repro.middleware.control.ControlPlaneApp` — small
  latency-critical signalling messages.

Every app exposes ``install(cluster)`` (usable directly as a
:func:`repro.runtime.session.run_session` workload) and accumulates
app-level samples (RTTs, per-op latencies) for the benches.
"""

from repro.middleware.base import AppBase, CollectiveApp, MiddlewareApp
from repro.middleware.collectives import (
    AllReduceApp,
    BarrierApp,
    BroadcastApp,
    HaloExchangeApp,
)
from repro.middleware.control import ControlPlaneApp
from repro.middleware.dsm import DsmApp
from repro.middleware.global_arrays import GlobalArraysApp
from repro.middleware.mpi_like import PingPongApp, StreamApp, uniform_small_flows
from repro.middleware.rpc import RpcApp

__all__ = [
    "AllReduceApp",
    "AppBase",
    "BarrierApp",
    "BroadcastApp",
    "CollectiveApp",
    "ControlPlaneApp",
    "DsmApp",
    "GlobalArraysApp",
    "HaloExchangeApp",
    "MiddlewareApp",
    "PingPongApp",
    "RpcApp",
    "StreamApp",
    "uniform_small_flows",
]
