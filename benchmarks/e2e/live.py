"""Live-plane workloads: real two-peer socket meshes.

A run starts ``run_live_scenario`` meshes of a fixed size one after the
other until ``--seconds`` are used, so a slow host gets fewer meshes, not
a longer run.  Each mesh is cut into blocks of consecutive completions;
a block's duration is corrected (see refload.py) and the metric is the
median over the blocks of all meshes.  Every mesh also gives one sample
of the set-up cost (spawn, hello, collect, teardown).  With ``--trace
1`` a further short ``trace=True`` mesh feeds the program's own causal
attribution for the blame buckets.

The runner, the coordinator inside ``run_live_scenario`` and both peer
processes share the one CPU ``run.py`` pinned them to.  Traffic crosses
Unix-domain sockets on this host's loopback, never a real link: round
trips are software latency, not wire latency.
"""

from __future__ import annotations

import copy
import os
import resource
import statistics
from time import time

from metrics import median_iqr, percentile
from refload import Sampler, children_cpu_seconds, slowdown

__all__ = ["run"]

#: Completions (or round trips) per block.
BLOCK = 1000
_BUCKETS = ("hold", "nic_queue", "service", "wire", "reorder", "unattributed")


def _sized(spec: dict, seed: int, count: int) -> dict:
    scenario = copy.deepcopy(spec["scenario"])
    scenario.setdefault("cluster", {})["seed"] = seed
    for entry in scenario["workloads"]:
        entry["count"] = count
    return scenario


class _Mesh:
    """One finished mesh run and what the benchmark reads from it.

    The program's timestamps count from an epoch the coordinator takes
    right after it forks the peers, a few milliseconds after
    ``run_live_scenario`` is entered, so a block's span on the sampler's
    clock is known to well within one sampling interval.
    """

    def __init__(self, scenario: dict, trace: bool = False) -> None:
        from repro.live import run_live_scenario

        self.scenario = scenario
        cpu0 = children_cpu_seconds()
        with Sampler() as sampler:
            self.epoch = time()
            self.result = run_live_scenario(scenario, transport="uds", trace=trace, timeout=150.0)
            self.wall_s = time() - self.epoch
        self.cpu_s = children_cpu_seconds() - cpu0
        self.sampler = sampler
        #: Larger peer; the benchmark's own children's rusage maximum if
        #: the sampler could not read /proc.
        self.peak_rss_mb = max(
            sampler.child_peak_kb.values(),
            default=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024.0
        self.report = self.result.report
        # A ping-pong iteration is two messages, a stream message is one.
        self.expected = sum(
            e["count"] * (2 if e["app"] == "pingpong" else 1) for e in scenario["workloads"]
        )
        self.done = sorted(r.complete_time for r in self.result.records)
        #: Corrected seconds per second of the program's clock, during
        #: the traffic and over the whole call.
        self.traffic_scale = self.worked(self.done[0], self.done[-1]) / (
            self.done[-1] - self.done[0])
        self.scale = self.worked(0.0, self.wall_s) / self.wall_s

    def worked(self, start: float, end: float) -> float:
        """Corrected seconds between two of the program's timestamps."""
        return self.sampler.worked(self.epoch + start, self.epoch + end)

    @property
    def setup_s(self) -> float:
        """Spawn, hello, collect and teardown: the call minus the traffic."""
        return (self.wall_s - self.report.duration) * self.scale

    def problems(self) -> list[str]:
        result, report = self.result, self.report
        checks = {
            "submitted":
                sum(p["transport"]["submitted"] for p in result.peer_reports) == self.expected,
            "delivered": report.messages == self.expected,
            "bytes_verified": result.bytes_verified == report.total_bytes,
            "corrupt_slices": result.corrupt_slices == 0,
            "lost_messages": report.lost_messages == 0,
            "degraded": not report.degraded,
            "rtts": len(result.rtts) == sum(
                e["count"] for e in self.scenario["workloads"] if e["app"] == "pingpong"
            ),
        }
        return [name for name, ok in checks.items() if not ok]

    def block_rates(self) -> tuple[list[float], list[float]]:
        """msgs/s of each block of ``BLOCK`` completions: raw, corrected."""
        marks = self.done[::BLOCK]
        spans = [(a, b, BLOCK) for a, b in zip(marks, marks[1:]) if b > a]
        if not spans:  # smoke sizes: one short block
            spans = [(self.done[0], self.done[-1], len(self.done) - 1)]
        return ([n / (b - a) for a, b, n in spans],
                [n / self.worked(a, b) for a, b, n in spans])

    def rtt_blocks(self) -> list[tuple[float, float]]:
        """Corrected (p50, p90) in µs of each block of ``BLOCK`` round trips."""
        rtts = self.result.rtts
        size = min(BLOCK, len(rtts))
        blocks = []
        for start in range(0, len(rtts) - size + 1, max(size, 1)):
            block = sorted(rtts[start:start + size])
            if block:
                # The completions are in time order like the round trips,
                # so the same share of both lists covers the same span.
                share = (len(self.done) - 1) / len(rtts)
                a, b = self.done[int(start * share)], self.done[int((start + size) * share)]
                scale = self.worked(a, b) / (b - a) * 1e6
                blocks.append((percentile(block, 0.5) * scale, percentile(block, 0.9) * scale))
        return blocks


def run(spec: dict, seed: int, seconds: float, trace: bool, smoke: bool,
        check: bool, src_dir: str, out_dir: str) -> dict:
    """One run of a live workload; returns metrics, counts and gates."""
    # Peers are spawned with this process's environment.
    os.environ["PYTHONPATH"] = src_dir
    scenario = _sized(spec, seed, spec["smoke_count"] if smoke else spec["mesh_count"])
    budget = 0.0 if smoke else seconds * (0.5 if trace else 1.0)
    at_least = 1 if smoke else 2
    gates: list[tuple[str, bool, str]] = []
    metrics: dict[str, float] = {}

    started = time()
    plain = [_Mesh(scenario)]
    # Another mesh while more than half of it still fits.
    while len(plain) < at_least or time() + 0.5 * plain[-1].wall_s < started + budget:
        plain.append(_Mesh(scenario))
    meshes = list(plain)
    per_mesh = [m.block_rates() for m in plain]
    raw_rates = [rate for raw, _corrected in per_mesh for rate in raw]
    rates = [rate for _raw, corrected in per_mesh for rate in corrected]
    msgs = sum(m.report.messages for m in plain)
    packets = sum(m.report.network_transactions for m in plain)

    if not trace:
        metrics["msgs_per_s"] = statistics.median(rates)
        metrics["peak_rss_mb"] = statistics.median(m.peak_rss_mb for m in plain)
        metrics["setup_s"] = statistics.median(m.setup_s for m in plain)
    else:
        from repro.obs.causal import attribute_events

        traced = _Mesh(_sized(spec, seed, spec["smoke_count" if smoke else "traced_count"]),
                       trace=True)
        meshes.append(traced)
        blame = attribute_events(traced.result.aligned_events)
        n_blamed = max(len(blame.messages), 1)
        gates.append(("blame_covers_messages", len(blame.messages) == traced.report.messages,
                      f"{len(blame.messages)} of {traced.report.messages} attributed"))
        blamed_s = sum(b.e2e for b in blame.messages)
        # Corrected microseconds; a mesh's own scale applies to its clock.
        rtts = sorted(r * m.traffic_scale * 1e6 for m in plain for r in m.result.rtts)
        traced_rtts = sorted(r * traced.traffic_scale * 1e6 for r in traced.result.rtts)
        rtt_blocks = [block for m in plain for block in m.rtt_blocks()]
        engines = [p["engine"] for m in plain for p in m.result.peer_reports]
        dispatches = max(sum(e["dispatches"] for e in engines), 1)
        data_packets = sum(m.report.data_packets for m in plain)
        agg_ratio = sum(e["data_segments"] for e in engines) / max(data_packets, 1)
        traffic_s = sum(m.report.duration * m.traffic_scale for m in plain)
        raw_rate, raw_iqr = median_iqr(raw_rates)
        if rtt_blocks:
            metrics["rtt_p50_us"] = statistics.median(b[0] for b in rtt_blocks)
            metrics["rtt_p90_us"] = statistics.median(b[1] for b in rtt_blocks)
        metrics.update({
            "live.rtt_min_us": rtts[0] if rtts else 0.0,
            "live.rtt_p99_us": percentile(rtts, 0.99) if rtts else 0.0,
            "live.mb_per_s": sum(m.report.total_bytes for m in plain) / traffic_s / 1e6,
            "live.agg_ratio": agg_ratio,
            "live.packets_per_msg": data_packets / msgs,
            "live.peer_cpu_us_per_msg": sum(m.cpu_s * m.scale for m in plain) / msgs * 1e6,
            "live.retransmits": float(sum(m.report.retransmits for m in plain)),
            "live.traced_rtt_p50_us": percentile(traced_rtts, 0.5) if traced_rtts else 0.0,
            "core.dispatches_per_msg": dispatches / msgs,
            "core.activations_per_dispatch":
                sum(sum(e["activations"].values()) for e in engines) / dispatches,
            "core.agg_ratio": agg_ratio,
            "core.holds_per_msg": sum(e["holds"] for e in engines) / msgs,
            "core.rdv_per_msg": sum(m.report.rdv_count for m in plain) / msgs,
            "network.packets_per_msg": packets / msgs,
            "bench.raw_msgs_per_s": raw_rate,
            "bench.raw_iqr_frac": raw_iqr,
            "bench.corrected_iqr_frac": median_iqr(rates)[1],
            "bench.host_slowdown":
                slowdown(statistics.median(q for m in plain for q in m.sampler.quanta)),
            "bench.stolen_frac": statistics.fmean(m.sampler.stolen_frac for m in plain),
            "bench.trace_overhead_x":
                (traced.report.duration * traced.traffic_scale / traced.report.messages)
                / (traffic_s / msgs),
            "bench.unattributed_frac":
                sum(b.buckets["unattributed"] for b in blame.messages) / blamed_s
                if blamed_s else 0.0,
            "bench.segments": float(len(rates)),
        })
        for bucket in _BUCKETS:
            metrics[f"live.blame.{bucket}_us"] = (
                sum(b.buckets[bucket] for b in blame.messages) / n_blamed
                * traced.traffic_scale * 1e6
            )

    failures = [f"mesh {i}: {', '.join(bad)}" for i, m in enumerate(meshes)
                if (bad := m.problems())]
    gates.append(("delivered", not failures, "; ".join(failures)))
    attempted = sum(m.expected for m in meshes)
    delivered = sum(min(m.report.messages, m.expected) for m in meshes)
    return {"metrics": metrics, "attempted": attempted,
            "failed": attempted - delivered, "gates": gates}
