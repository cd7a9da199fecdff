#!/usr/bin/env python3
"""Surviving a rail outage: fault injection, retransmission, failover.

The paper's engine schedules over whatever rails are *currently* idle —
which makes it naturally tolerant of a rail disappearing, as long as a
reliability layer redrives the packets that were in flight.  This
example turns on the fault plane (5% drop, light duplication, one
scheduled outage of n0's first Myrinet rail), pushes mixed traffic over
two rails, and shows the stack degrading gracefully: the transport
retransmits lost packets, pending packets on the dead rail fail over to
the survivor, the engine re-routes queued traffic, and every message is
still delivered exactly once.  The same seed reproduces the same
counters; ``faults=None`` restores the lossless fabric bit-for-bit.

Run:  python examples/failover.py
"""

from repro import Cluster, TrafficClass
from repro.middleware import StreamApp, uniform_small_flows
from repro.network.faults import FaultConfig
from repro.runtime import run_session
from repro.util.units import KiB, us

#: A scenario "faults" block, read the way ``repro run`` reads one.
FAULTS = FaultConfig.from_spec(
    {
        "seed": 13,
        "drop": 0.05,
        "duplicate": 0.01,
        "outages": [{"nic": "n0.mx00", "at": 50 * us, "recover": 300 * us}],
        "reliability": {"max_retries": 16},
    }
)


def run(faults):
    cluster = Cluster(n_nodes=2, networks=[("mx", 2)], seed=42, faults=faults)
    workloads = [
        StreamApp(size=32 * KiB, count=20, interval=10 * us, header_size=0,
                  traffic_class=TrafficClass.BULK, name="bulk"),
    ] + uniform_small_flows(4, size=256, count=50, interval=2 * us)
    report = run_session(cluster, [a.install for a in workloads])
    return cluster, report


def describe(label, cluster, report):
    print(f"=== {label} ===")
    print(f"messages delivered : {report.messages}")
    print(f"virtual time       : {cluster.sim.now * 1e3:.3f} ms")
    print(f"packets dropped    : {report.packets_dropped}")
    print(f"packets duplicated : {report.packets_duplicated}")
    print(f"retransmits        : {report.retransmits}")
    print(f"failovers          : {report.failovers}")
    if cluster.transport is not None:
        stats = cluster.transport.stats
        print(f"dedup discards     : {stats.dups_discarded}")
        print(f"acks sent          : {stats.acks_sent}")


def main() -> None:
    lossy, lossy_report = run(FAULTS)
    describe("lossy rails + scheduled outage", lossy, lossy_report)

    again, again_report = run(FAULTS)
    identical = (
        lossy_report.packets_dropped,
        lossy_report.retransmits,
        lossy_report.failovers,
    ) == (
        again_report.packets_dropped,
        again_report.retransmits,
        again_report.failovers,
    )
    print(f"\nsame seed, same counters: {identical}")

    clean, clean_report = run(faults=None)
    print()
    describe("lossless baseline (faults off)", clean, clean_report)


if __name__ == "__main__":
    main()
