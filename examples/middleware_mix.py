#!/usr/bin/env python3
"""The paper's motivating scenario: a conglomerate of middlewares.

Modern applications stack MPI-like communication, RPC, DSM, and
one-sided put/get over the *same* network (paper §1, the PadicoTM
argument).  This example runs that conglomerate twice — once on the
legacy deterministic Madeleine, once on the optimizing engine — and
prints the head-to-head comparison.

Run:  python examples/middleware_mix.py
"""

from repro import Cluster
from repro.middleware import (
    ControlPlaneApp,
    DsmApp,
    GlobalArraysApp,
    PingPongApp,
    RpcApp,
    StreamApp,
)
from repro.network.virtual import TrafficClass
from repro.runtime import run_session
from repro.util.units import KiB, us


def conglomerate():
    """One PadicoTM-style stack: five middlewares over one node pair."""
    return [
        PingPongApp(count=60, size=32, name="mpi-latency"),
        StreamApp(size=16 * KiB, count=40, interval=5 * us,
                  traffic_class=TrafficClass.BULK, name="mpi-bulk"),
        RpcApp(calls=60, concurrency=4, service_time=2 * us, name="corba"),
        DsmApp(faults=30, name="dsm"),
        GlobalArraysApp(operations=60, name="ga"),
        ControlPlaneApp(count=80, interval=6 * us, name="signalling"),
    ]


def run(engine: str):
    cluster = Cluster(n_nodes=2, engine=engine, seed=2006)
    report = run_session(cluster, [app.install for app in conglomerate()])
    return cluster, report


def main() -> None:
    results = {engine: run(engine) for engine in ("legacy", "optimizing")}

    print(f"{'metric':<28}{'legacy':>14}{'optimizing':>14}")
    print("-" * 56)
    rows = [
        ("messages completed", lambda r: f"{r.messages}"),
        ("network transactions", lambda r: f"{r.network_transactions}"),
        ("aggregation ratio", lambda r: f"{r.aggregation_ratio:.2f}"),
        ("mean latency (us)", lambda r: f"{r.latency.mean * 1e6:.1f}"),
        ("p99 latency (us)", lambda r: f"{r.latency.p99 * 1e6:.1f}"),
        ("throughput (MB/s)", lambda r: f"{r.throughput / 1e6:.1f}"),
        ("rendezvous transfers", lambda r: f"{r.rdv_count}"),
    ]
    for label, fmt in rows:
        legacy_value = fmt(results["legacy"][1])
        optimized_value = fmt(results["optimizing"][1])
        print(f"{label:<28}{legacy_value:>14}{optimized_value:>14}")

    print()
    print("per-class mean latency (us):")
    for traffic_class in TrafficClass:
        line = f"  {traffic_class.value:<10}"
        for engine in ("legacy", "optimizing"):
            summary = results[engine][1].latency_by_class.get(traffic_class)
            line += f"{(summary.mean * 1e6 if summary else float('nan')):>14.1f}"
        print(line)

    gain = (
        results["optimizing"][1].throughput / results["legacy"][1].throughput
    )
    print()
    print(f"cross-flow optimization gain: {gain:.2f}x throughput with "
          f"{results['legacy'][1].network_transactions - results['optimizing'][1].network_transactions} "
          f"fewer network transactions")


if __name__ == "__main__":
    main()
