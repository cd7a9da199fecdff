"""Experiment definitions E1–E11 (see DESIGN.md §4 for the paper mapping).

Every function takes ``quick`` (smaller axes/counts for CI) and returns
an :class:`~repro.bench.harness.ExperimentResult`.  The functions also
*assert* the qualitative shape each experiment is supposed to show, so
a regression in the engine turns the benchmark red rather than silently
producing a different table.
"""

from __future__ import annotations

import time

from repro.bench.harness import ExperimentResult
from repro.core.channels import OneToOneChannels, PooledChannels
from repro.core.config import EngineConfig
from repro.core.strategies import BoundedSearchStrategy, NagleStrategy
from repro.middleware import (
    ControlPlaneApp,
    DsmApp,
    GlobalArraysApp,
    PingPongApp,
    StreamApp,
    uniform_small_flows,
)
from repro.network.virtual import TrafficClass
from repro.obs.recorder import ListSink
from repro.runtime import Cluster, run_session
from repro.util.units import KiB, MiB, us

__all__ = [
    "ALL_EXPERIMENTS",
    "e10_copy_vs_gather",
    "e11_offered_load",
    "e1_architecture",
    "e2_aggregation",
    "e3_pingpong",
    "e4_lookahead",
    "e5_search_budget",
    "e6_multirail",
    "e7_traffic_classes",
    "e8_nagle",
    "e9_adaptive",
]


# ----------------------------------------------------------------------
# E1 — Figure 1: the three-layer architecture, validated executably
# ----------------------------------------------------------------------
def e1_architecture(quick: bool = False) -> ExperimentResult:
    """Reproduce Figure 1: collect → optimize → transfer over a mixed
    fabric (2×Myrinet + 1×Quadrics), with RDV, PIO and put/get requests
    in flight simultaneously; validate the layer interaction sequence."""
    result = ExperimentResult(
        "E1",
        "Figure 1 — three-layer architecture over 2xMX + 1xElan",
        ["nic", "technology", "requests", "eager", "rdv_data", "control", "busy_us"],
    )
    cluster = Cluster(
        networks=[("mx", 2), ("elan", 1)],
        seed=1,
        config=EngineConfig(stripe_chunk=32 * KiB),
    )
    recorded = ListSink()
    cluster.sim.tracer.subscribe(recorded)

    def of_kind(kind: str) -> list:
        return [e for e in recorded.events if e[2] == kind]

    n = 10 if quick else 40
    apps = [
        StreamApp(size=25 * KiB, count=max(n // 4, 4), interval=4 * us, name="bulkish"),
        StreamApp(size=64, count=n, interval=1 * us, name="tiny"),
        GlobalArraysApp(operations=n, name="putget"),
        StreamApp(size=80 * KiB, count=max(n // 6, 3), interval=8 * us, name="rdvs"),
    ]
    run_session(cluster, [a.install for a in apps])

    # --- layer-interaction checks (the "figure") -----------------------
    kinds = [e[2] for e in recorded.events]
    assert "collect.enqueue" in kinds, "collect layer must enqueue"
    assert "optimizer.activate" in kinds, "optimizing layer must activate"
    assert "nic.send" in kinds, "transfer layer must send"
    first_dispatch = kinds.index("engine.dispatch")
    first_collect = kinds.index("collect.enqueue")
    assert first_collect < first_dispatch, "nothing is sent before it is collected"

    activations = of_kind("optimizer.activate")
    # optimizer.activate: (time, source, kind, trigger, backlog)
    triggers = {e[3] for e in activations}
    assert "idle" in triggers, "NIC-idle transitions must trigger the optimizer"
    max_backlog = max(e[4] for e in activations)
    assert max_backlog > 1, "a backlog must accumulate while NICs are busy"

    parked = of_kind("rdv.park")
    ready = of_kind("rdv.ready")
    assert parked and ready, "rendezvous protocol must run"
    assert parked[0][0] < ready[0][0]

    for node in cluster.fabric.nodes:
        for nic in node.nics:
            stats = nic.stats
            result.add_row(
                nic=nic.name,
                technology=nic.link.name,
                requests=stats.requests,
                eager=stats.kind_counts.get("eager", 0),
                rdv_data=stats.kind_counts.get("rdv_data", 0),
                control=sum(
                    stats.kind_counts.get(k, 0) for k in ("rdv_req", "rdv_ack", "ctrl")
                ),
                busy_us=stats.busy_time * 1e6,
            )
    sender_nics = cluster.fabric.node("n0").nics
    assert all(nic.stats.requests > 0 for nic in sender_nics), "all sender rails used"

    engine_stats = cluster.engine("n0").stats
    result.note(
        f"optimizer activations: {dict(sorted(engine_stats.activations.items()))}"
    )
    result.note(f"max backlog observed at activation: {max_backlog} entries")
    result.note(
        f"aggregation ratio {engine_stats.aggregation_ratio:.2f} segments/packet, "
        f"{engine_stats.rdv_parked} rendezvous"
    )
    return result


# ----------------------------------------------------------------------
# E2 — the headline claim: cross-flow aggregation of eager segments
# ----------------------------------------------------------------------
def e2_aggregation(quick: bool = False) -> ExperimentResult:
    """N independent small-message flows, optimizing vs legacy engine."""
    result = ExperimentResult(
        "E2",
        "cross-flow eager aggregation gain vs number of flows",
        [
            "flows",
            "legacy_MBps",
            "opt_MBps",
            "gain",
            "legacy_tx",
            "opt_tx",
            "opt_agg",
            "legacy_lat_us",
            "opt_lat_us",
        ],
    )
    flow_axis = [1, 2, 4, 8, 16] if quick else [1, 2, 4, 8, 16, 32]
    count = 60 if quick else 200

    def run(engine: str, n_flows: int):
        cluster = Cluster(engine=engine, seed=100 + n_flows)
        apps = uniform_small_flows(n_flows, size=256, count=count, interval=1 * us)
        return run_session(cluster, [a.install for a in apps])

    for n_flows in flow_axis:
        legacy = run("legacy", n_flows)
        optimized = run("optimizing", n_flows)
        result.add_row(
            flows=n_flows,
            legacy_MBps=legacy.throughput / 1e6,
            opt_MBps=optimized.throughput / 1e6,
            gain=optimized.throughput / legacy.throughput,
            legacy_tx=legacy.network_transactions,
            opt_tx=optimized.network_transactions,
            opt_agg=optimized.aggregation_ratio,
            legacy_lat_us=legacy.latency.mean * 1e6,
            opt_lat_us=optimized.latency.mean * 1e6,
        )

    gains = result.column("gain")
    multi = [g for f, g in zip(result.column("flows"), gains) if f >= 4]
    assert min(multi) > 1.5, "paper claim: large gains once several flows are mixed"
    assert result.rows[-1]["opt_tx"] < result.rows[-1]["legacy_tx"] / 2
    result.figure = ("flows", ["legacy_MBps", "opt_MBps"], True)
    result.note("gain = optimizing/legacy throughput; >=2 flows is the paper's regime")
    result.note(
        "the 1-flow gain comes from cross-MESSAGE aggregation within the flow; "
        "legacy Madeleine only aggregates fragments of one flush"
    )
    return result


# ----------------------------------------------------------------------
# E3 — ping-pong latency/bandwidth sweep with protocol crossovers
# ----------------------------------------------------------------------
def e3_pingpong(quick: bool = False) -> ExperimentResult:
    """Classic single-flow ping-pong: the optimizer must not regress."""
    result = ExperimentResult(
        "E3",
        "ping-pong latency/bandwidth vs message size (MX)",
        [
            "size",
            "legacy_lat_us",
            "opt_lat_us",
            "opt_BW_MBps",
            "mode",
            "protocol",
        ],
    )
    sizes = [8, 512, 4 * KiB, 64 * KiB, 1 * MiB] if quick else [
        8, 64, 512, 4 * KiB, 16 * KiB, 32 * KiB, 64 * KiB, 256 * KiB, 1 * MiB,
    ]
    rounds = 10 if quick else 30

    def half_rtt(engine: str, size: int) -> float:
        cluster = Cluster(engine=engine, seed=3)
        app = PingPongApp(size=size, count=rounds, header_size=16, name="pp")
        run_session(cluster, [app.install])
        return sum(app.rtts) / len(app.rtts) / 2

    probe = Cluster(seed=0).engine("n0").drivers[0]
    for size in sizes:
        legacy_lat = half_rtt("legacy", size)
        opt_lat = half_rtt("optimizing", size)
        mode = probe.choose_mode(size).value
        protocol = "rdv" if probe.wants_rendezvous(size) else "eager"
        result.add_row(
            size=size,
            legacy_lat_us=legacy_lat * 1e6,
            opt_lat_us=opt_lat * 1e6,
            opt_BW_MBps=size / opt_lat / 1e6,
            mode=mode,
            protocol=protocol,
        )
        # No material regression vs legacy on single-flow ping-pong.
        assert opt_lat < legacy_lat * 1.10, f"regression at {size} B"

    protocols = result.column("protocol")
    assert "eager" in protocols and "rdv" in protocols, "rdv crossover must appear"
    result.figure = ("size", ["legacy_lat_us", "opt_lat_us"], True)
    result.note(
        f"PIO->DMA crossover at {probe.nic.link.pio_dma_crossover():.0f} B, "
        f"eager->rdv at {probe.caps.eager_threshold} B (driver capabilities)"
    )
    return result


# ----------------------------------------------------------------------
# E4 — future work: packet lookahead window size
# ----------------------------------------------------------------------
def e4_lookahead(quick: bool = False) -> ExperimentResult:
    """Sweep the lookahead window under a bursty multi-flow load."""
    result = ExperimentResult(
        "E4",
        "lookahead window sweep (bursty 8-flow load)",
        ["window", "MBps", "mean_lat_us", "p99_lat_us", "agg_ratio", "tx"],
    )
    windows = [1, 4, 16, 64] if quick else [1, 2, 4, 8, 16, 32, 64]
    count = 80 if quick else 250

    for window in windows:
        cluster = Cluster(
            seed=4, config=EngineConfig(lookahead_window=window)
        )
        apps = uniform_small_flows(8, size=512, count=count, interval=2 * us)
        report = run_session(cluster, [a.install for a in apps])
        result.add_row(
            window=window,
            MBps=report.throughput / 1e6,
            mean_lat_us=report.latency.mean * 1e6,
            p99_lat_us=report.latency.p99 * 1e6,
            agg_ratio=report.aggregation_ratio,
            tx=report.network_transactions,
        )

    # Shape: a wider window aggregates more and spends fewer transactions.
    assert result.rows[-1]["agg_ratio"] > result.rows[0]["agg_ratio"]
    assert result.rows[-1]["tx"] < result.rows[0]["tx"]
    result.figure = ("window", ["MBps"], True)
    result.note("window=1 degenerates to send-in-arrival-order")
    return result


# ----------------------------------------------------------------------
# E5 — future work: bounding the rearrangement search
# ----------------------------------------------------------------------
def e5_search_budget(quick: bool = False) -> ExperimentResult:
    """Sweep the bounded-search budget; gain plateaus early."""
    result = ExperimentResult(
        "E5",
        "bounded rearrangement-search budget sweep",
        ["budget", "MBps", "mean_lat_us", "agg_ratio", "candidates", "wall_ms"],
    )
    budgets = [1, 8, 64] if quick else [1, 2, 4, 8, 16, 32, 64, 128, 256]
    count = 50 if quick else 120

    for budget in budgets:
        cluster = Cluster(
            n_nodes=3,
            seed=5,
            strategy=lambda b=budget: BoundedSearchStrategy(budget=b),
        )
        api = cluster.api("n0")
        apps = []
        for i in range(6):
            apps.append(
                StreamApp(
                    "n0",
                    "n1" if i % 2 == 0 else "n2",
                    size=256 * (1 + i),
                    count=count,
                    interval=2 * us,
                    size_sigma=0.8,
                    name=f"s{i}",
                )
            )
        start = time.perf_counter()
        report = run_session(cluster, [a.install for a in apps])
        wall = (time.perf_counter() - start) * 1e3
        result.add_row(
            budget=budget,
            MBps=report.throughput / 1e6,
            mean_lat_us=report.latency.mean * 1e6,
            agg_ratio=report.aggregation_ratio,
            # The exact cost of the search; wall_ms is the noisy one.
            candidates=sum(
                engine.strategy.candidates_evaluated
                for engine in cluster.engines.values()
            ),
            wall_ms=wall,
        )

    assert result.rows[-1]["MBps"] >= result.rows[0]["MBps"] * 0.9
    candidates = [row["candidates"] for row in result.rows]
    assert candidates == sorted(candidates), "a larger budget evaluated fewer candidates"
    result.figure = ("budget", ["MBps", "candidates"], True)
    result.note(
        "communication metrics saturate after a handful of evaluations while "
        "the candidates evaluated keep growing until the search exhausts the "
        "window - bounding the search is free (the paper's announced plan)"
    )
    return result


# ----------------------------------------------------------------------
# E6 — multirail load balancing, homogeneous and heterogeneous
# ----------------------------------------------------------------------
def e6_multirail(quick: bool = False) -> ExperimentResult:
    """Aggregate bandwidth vs rail configuration and binding policy."""
    result = ExperimentResult(
        "E6",
        "multi-NIC load balancing (pooled vs static binding)",
        ["config", "rails", "MBps", "speedup", "rail_balance"],
    )
    n_bulk = 6 if quick else 16
    bulk_size = 256 * KiB

    configs = [
        ("1 x mx", [("mx", 1)], "pooled"),
        ("2 x mx pooled", [("mx", 2)], "pooled"),
        ("2 x mx static", [("mx", 2)], "static"),
        ("4 x mx pooled", [("mx", 4)], "pooled"),
        ("mx+elan pooled", [("mx", 1), ("elan", 1)], "pooled"),
        ("mx+elan static", [("mx", 1), ("elan", 1)], "static"),
    ]
    baseline_tput = None
    for label, networks, binding in configs:
        cluster = Cluster(
            networks=networks,
            seed=6,
            config=EngineConfig(stripe_chunk=32 * KiB, rail_binding=binding),
        )
        apps = [
            StreamApp(
                size=bulk_size,
                count=n_bulk,
                interval=1 * us,
                header_size=0,
                traffic_class=TrafficClass.BULK,
                name=f"bulk{i}",
            )
            for i in range(4)
        ]
        report = run_session(cluster, [a.install for a in apps])
        nics = cluster.fabric.node("n0").nics
        bytes_per_rail = [nic.stats.payload_bytes for nic in nics]
        balance = (
            min(bytes_per_rail) / max(bytes_per_rail) if max(bytes_per_rail) else 0.0
        )
        if baseline_tput is None:
            baseline_tput = report.throughput
        result.add_row(
            config=label,
            rails=len(nics),
            MBps=report.throughput / 1e6,
            speedup=report.throughput / baseline_tput,
            rail_balance=balance,
        )

    rows = {row["config"]: row for row in result.rows}
    assert rows["2 x mx pooled"]["speedup"] > 1.5, "near-linear 2-rail scaling"
    assert rows["4 x mx pooled"]["speedup"] > rows["2 x mx pooled"]["speedup"]
    assert (
        rows["mx+elan pooled"]["MBps"] >= rows["mx+elan static"]["MBps"]
    ), "pooled balancing beats static binding on heterogeneous rails"
    result.note("rail_balance = min/max payload bytes across rails (1.0 = perfect)")
    result.note(
        "static binding pins each channel to one NIC; a single busy traffic "
        "class then leaves the other rails idle - the pooling argument of paper S2"
    )
    return result


# ----------------------------------------------------------------------
# E7 — traffic classes vs one-to-one mapping
# ----------------------------------------------------------------------
def e7_traffic_classes(quick: bool = False) -> ExperimentResult:
    """Control-message latency under bulk interference, per channel policy."""
    result = ExperimentResult(
        "E7",
        "traffic-class channel assignment vs one-to-one fallback",
        ["policy", "ctl_p50_us", "ctl_p99_us", "bulk_MBps", "total_tx"],
    )
    n_ctl = 80 if quick else 250
    n_bulk = 20 if quick else 60

    def workload():
        return [
            StreamApp(
                size=24 * KiB,
                count=n_bulk,
                interval=2 * us,
                traffic_class=TrafficClass.BULK,
                name=f"bulk{i}",
            )
            for i in range(4)
        ] + [
            ControlPlaneApp(count=n_ctl, interval=4 * us, name="ctl"),
            DsmApp(faults=max(n_ctl // 10, 5), name="dsm"),
        ]

    from repro.core.channels import WeightedChannels

    policies = [
        ("classes (pooled)", lambda: PooledChannels(by_class=True)),
        ("weighted fair", WeightedChannels),
        ("single channel", lambda: PooledChannels(by_class=False)),
        ("one-to-one", OneToOneChannels),
    ]
    for label, policy in policies:
        cluster = Cluster(seed=7, policy=policy)
        report = run_session(cluster, [a.install for a in workload()])
        ctl = report.latency_by_class[TrafficClass.CONTROL]
        bulk = report.latency_by_class[TrafficClass.BULK]
        bulk_bytes = sum(
            r.size for r in cluster.metrics.records
            if r.traffic_class is TrafficClass.BULK
        )
        result.add_row(
            policy=label,
            ctl_p50_us=ctl.p50 * 1e6,
            ctl_p99_us=ctl.p99 * 1e6,
            bulk_MBps=bulk_bytes / report.duration / 1e6,
            total_tx=report.network_transactions,
        )

    # Floor: control traffic alone, no interference.
    floor_cluster = Cluster(seed=7)
    floor_report = run_session(
        floor_cluster,
        [ControlPlaneApp(count=n_ctl, interval=4 * us, name="ctl").install],
    )
    floor = floor_report.latency_by_class[TrafficClass.CONTROL]
    result.add_row(
        policy="(floor: ctl only)",
        ctl_p50_us=floor.p50 * 1e6,
        ctl_p99_us=floor.p99 * 1e6,
        bulk_MBps=0.0,
        total_tx=floor_report.network_transactions,
    )

    by_policy = {row["policy"]: row for row in result.rows}
    assert (
        by_policy["classes (pooled)"]["ctl_p99_us"]
        < by_policy["single channel"]["ctl_p99_us"]
    ), "class separation must shield control latency from bulk backlog"
    result.note("class-based pooling serves the CONTROL channel first (priority)")
    return result


# ----------------------------------------------------------------------
# E8 — Nagle-style artificial delay
# ----------------------------------------------------------------------
def e8_nagle(quick: bool = False) -> ExperimentResult:
    """Sweep the artificial delay under sparse arrivals."""
    result = ExperimentResult(
        "E8",
        "Nagle-style artificial delay sweep (sparse 4-flow load)",
        ["delay_us", "agg_ratio", "tx", "mean_lat_us", "MBps"],
    )
    delays_us = [0, 4, 16] if quick else [0, 1, 2, 4, 8, 16, 32]
    count = 80 if quick else 200

    for delay in delays_us:
        cluster = Cluster(
            seed=8,
            strategy=lambda: NagleStrategy(),
            config=EngineConfig(
                nagle_delay=delay * us, nagle_min_bytes=4 * KiB
            ),
        )
        apps = uniform_small_flows(4, size=128, count=count, interval=3 * us)
        report = run_session(cluster, [a.install for a in apps])
        result.add_row(
            delay_us=delay,
            agg_ratio=report.aggregation_ratio,
            tx=report.network_transactions,
            mean_lat_us=report.latency.mean * 1e6,
            MBps=report.throughput / 1e6,
        )

    assert result.rows[-1]["agg_ratio"] > result.rows[0]["agg_ratio"]
    assert result.rows[-1]["tx"] < result.rows[0]["tx"]
    assert result.rows[-1]["mean_lat_us"] > result.rows[0]["mean_lat_us"]
    result.figure = ("delay_us", ["mean_lat_us"], False)
    result.note("delay buys aggregation (fewer transactions) at a latency cost")
    return result


# ----------------------------------------------------------------------
# E9 — dynamic reassignment of resources to traffic classes (paper §2)
# ----------------------------------------------------------------------
def e9_adaptive(quick: bool = False) -> ExperimentResult:
    """Bulk traffic joins mid-run; the adaptive policy promotes it to a
    dedicated channel at run time and control latency recovers, while
    using only as many multiplexing units as the moment needs."""
    from repro.core.adaptive import AdaptiveChannels

    result = ExperimentResult(
        "E9",
        "dynamic class->channel reassignment (bulk joins mid-run)",
        ["policy", "ctl_p50_us", "ctl_p99_us", "channels_used", "adaptations"],
    )
    n_ctl = 150 if quick else 400
    n_bulk = 25 if quick else 60

    def workload():
        # Control runs from t=0; bulk joins after a quiet phase.
        return [
            ControlPlaneApp(count=n_ctl, interval=3 * us, name="ctl"),
            StreamApp(
                size=16 * KiB,
                count=n_bulk,
                interval=2 * us,
                traffic_class=TrafficClass.BULK,
                name="bulk",
            ),
        ]

    holder: dict[str, object] = {}

    def adaptive_factory():
        policy = AdaptiveChannels(promote_bytes=32 * KiB, window_dispatches=8)
        holder.setdefault("policy", policy)
        return policy

    policies = [
        ("adaptive", adaptive_factory),
        ("static by-class", lambda: PooledChannels(by_class=True)),
        ("static shared", lambda: PooledChannels(by_class=False)),
    ]
    for label, factory in policies:
        holder.clear()
        cluster = Cluster(seed=9, policy=factory)
        report = run_session(cluster, [a.install for a in workload()])
        ctl = report.latency_by_class[TrafficClass.CONTROL]
        if label == "adaptive":
            policy = holder["policy"]
            channels_used = policy.channels_in_use
            adaptations = len(policy.adaptations)
            assert ("promote", TrafficClass.BULK) in policy.adaptations, (
                "bulk must be promoted to its own channel at run time"
            )
        else:
            channels_used = len(cluster.fabric.node("n0").channels)
            adaptations = 0
        result.add_row(
            policy=label,
            ctl_p50_us=ctl.p50 * 1e6,
            ctl_p99_us=ctl.p99 * 1e6,
            channels_used=channels_used,
            adaptations=adaptations,
        )

    rows = {row["policy"]: row for row in result.rows}
    assert (
        rows["adaptive"]["ctl_p99_us"] < rows["static shared"]["ctl_p99_us"] / 2
    ), "run-time promotion must recover most of the class-separation benefit"
    assert rows["adaptive"]["channels_used"] < rows["static by-class"]["channels_used"]
    result.note(
        "adaptive starts on ONE shared channel and promotes classes as traffic "
        "appears - the paper's 'change the assignment as the needs evolve'"
    )
    return result


# ----------------------------------------------------------------------
# E10 — ablation: by-copy vs gather aggregation, and host CPU cost
# ----------------------------------------------------------------------
def e10_copy_vs_gather(quick: bool = False) -> ExperimentResult:
    """Capability ablation (DESIGN.md §5.3): the same aggregation
    strategy over drivers with/without hardware gather, and the host-CPU
    accounting of PIO vs DMA."""
    import dataclasses

    from repro.drivers.mx import MX_CAPABILITIES

    result = ExperimentResult(
        "E10",
        "aggregation mechanism ablation on MX (copy vs gather vs none)",
        ["capabilities", "MBps", "mean_lat_us", "agg_ratio", "host_ms", "nic_busy_ms"],
    )
    count = 80 if quick else 200
    variants = [
        ("gather+copy (stock MX)", MX_CAPABILITIES),
        (
            "copy only (no gather)",
            dataclasses.replace(MX_CAPABILITIES, supports_gather=False, max_gather_entries=1),
        ),
        (
            "no aggregation",
            None,  # stock caps, but the eager strategy sends one entry per packet
        ),
        (
            "dma only (no PIO)",
            dataclasses.replace(MX_CAPABILITIES, supports_pio=False),
        ),
    ]
    for label, caps in variants:
        strategy = "eager" if label == "no aggregation" else "aggregate"
        cluster = Cluster(
            seed=10,
            strategy=strategy,
            driver_caps={"mx": caps} if caps is not None else None,
        )
        apps = uniform_small_flows(8, size=2 * KiB, count=count, interval=1 * us)
        report = run_session(cluster, [a.install for a in apps])
        busy = sum(
            nic.stats.busy_time for nic in cluster.fabric.node("n0").nics
        )
        result.add_row(
            capabilities=label,
            MBps=report.throughput / 1e6,
            mean_lat_us=report.latency.mean * 1e6,
            agg_ratio=report.aggregation_ratio,
            host_ms=report.host_time * 1e3,
            nic_busy_ms=busy * 1e3,
        )

    rows = {row["capabilities"]: row for row in result.rows}
    assert rows["gather+copy (stock MX)"]["MBps"] >= rows["copy only (no gather)"]["MBps"]
    assert rows["copy only (no gather)"]["MBps"] > rows["no aggregation"]["MBps"]
    assert rows["copy only (no gather)"]["host_ms"] > rows["gather+copy (stock MX)"]["host_ms"]
    result.note(
        "strategies never hardcode the mechanism: the same aggregation code "
        "degrades from zero-copy gather to by-copy staging to nothing as "
        "driver capabilities shrink"
    )
    result.note(
        "the dma-only row matches stock: once aggregation is active, packets "
        "exceed the PIO window anyway, so removing PIO costs nothing here"
    )
    return result


# ----------------------------------------------------------------------
# E11 — offered-load saturation sweep
# ----------------------------------------------------------------------
def e11_offered_load(quick: bool = False) -> ExperimentResult:
    """Delivered throughput and latency vs offered load, both engines.

    The classic saturation curve: both engines track the offered load
    while unloaded; the legacy engine hits its per-packet ceiling first,
    the optimizer keeps tracking until the aggregated-packet ceiling.
    """
    result = ExperimentResult(
        "E11",
        "offered-load sweep (8 flows of 512 B messages)",
        [
            "offered_MBps",
            "legacy_MBps",
            "opt_MBps",
            "legacy_lat_us",
            "opt_lat_us",
        ],
    )
    n_flows = 8
    size = 512
    intervals_us = [64, 16, 4, 2] if quick else [64, 32, 16, 8, 4, 2, 1]
    count = 60 if quick else 150

    def run(engine: str, interval: float):
        cluster = Cluster(engine=engine, seed=11)
        apps = uniform_small_flows(
            n_flows, size=size, count=count, interval=interval
        )
        return run_session(cluster, [a.install for a in apps])

    for interval_us in intervals_us:
        interval = interval_us * us
        offered = n_flows * size / interval
        legacy = run("legacy", interval)
        optimized = run("optimizing", interval)
        result.add_row(
            offered_MBps=offered / 1e6,
            legacy_MBps=legacy.throughput / 1e6,
            opt_MBps=optimized.throughput / 1e6,
            legacy_lat_us=legacy.latency.mean * 1e6,
            opt_lat_us=optimized.latency.mean * 1e6,
        )

    # Shapes: unloaded parity; the optimizer's ceiling is >2x legacy's.
    first = result.rows[0]
    assert first["legacy_MBps"] > 0.8 * first["offered_MBps"], "unloaded: both track"
    last = result.rows[-1]
    assert last["opt_MBps"] > 1.5 * last["legacy_MBps"], "saturation ceilings differ"
    assert last["legacy_lat_us"] > 5 * first["legacy_lat_us"], "legacy past its knee"
    result.figure = ("offered_MBps", ["legacy_MBps", "opt_MBps"], True)
    result.note(
        "legacy saturates at the per-packet ceiling; cross-flow aggregation "
        "moves the ceiling, which is the paper's practical payoff"
    )
    return result


#: experiment id → function, for the module CLI and the bench targets.
ALL_EXPERIMENTS = {
    "E1": e1_architecture,
    "E2": e2_aggregation,
    "E3": e3_pingpong,
    "E4": e4_lookahead,
    "E5": e5_search_budget,
    "E6": e6_multirail,
    "E7": e7_traffic_classes,
    "E8": e8_nagle,
    "E9": e9_adaptive,
    "E10": e10_copy_vs_gather,
    "E11": e11_offered_load,
}
