"""Sim-plane workloads: forked, deterministic segments.

``repro`` is imported once; every segment then runs in an ``os.fork()``
child, because the module-level id counters of the program leak between
runs of one process (835/832/824 messages on in-process repeats of
``scenario_mixed``; a fork always gives 835).  A segment builds the
scenario (untimed), times ``run_session``, verifies the outputs and
reports over a pipe.  All segments of a run execute the same work, so
their corrected times (see refload.py) are samples of one quantity, of
which the median is reported, and their counters must match exactly.
"""

from __future__ import annotations

import copy
import json
import os
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter, process_time

from hooks import OpCounter, SpanTracer
from layers import LAYERS, LayerMap
from metrics import median_iqr
from refload import children_cpu_seconds, quantum, slowdown, stolen_seconds

__all__ = ["run"]

#: Fresh interpreters started per run for ``setup_s`` (median reported).
SETUP_PROBES = 5
#: Public function names the span hook counts calls of.
WATCHED = ("make_plan", "service_order")

_PROBE = (
    "import json, sys\n"
    "from repro.runtime.scenario import build_scenario\n"
    "build_scenario(json.load(sys.stdin))\n"
)


def _segment(scenario: dict, mode: str, index: int, layer_map: LayerMap) -> dict:
    """One build + run + verify; runs inside the forked child."""
    from repro.runtime.scenario import build_scenario
    from repro.runtime.session import run_session

    t0 = perf_counter()
    cluster, apps = build_scenario(scenario)
    build_s = perf_counter() - t0
    installers = [app.install for app in apps]
    run_spec = scenario.get("run", {})
    if mode == "ops":
        hook = OpCounter(layer_map)
    elif mode == "spans":
        hook = SpanTracer(layer_map, index, WATCHED)
    else:
        hook = nullcontext()
    ref_before = quantum()
    cpu0 = process_time()
    t0 = perf_counter()
    with hook:
        report = run_session(
            cluster, installers,
            until=run_spec.get("until"), warmup=run_spec.get("warmup", 0.0),
        )
    wall_s = perf_counter() - t0
    cpu_s = process_time() - cpu0
    # Host slowdown at this moment, from the quanta on either side.
    host = slowdown(ref_before, quantum())
    t0 = perf_counter()
    cluster.report()
    report_s = perf_counter() - t0

    stats = [engine.stats for engine in cluster.engines.values()]
    sink = cluster.obs.sink if cluster.obs is not None else None
    out = {
        # "worked_s" is the corrected time of the run (see refload.py):
        # CPU seconds, which leave out what the hypervisor stole, divided
        # by the host slowdown.  "wall_s" is the plain reading.
        "worked_s": cpu_s / host, "host": host, "wall_s": wall_s,
        "build_s": build_s, "report_s": report_s,
        "submitted": sum(s.messages_submitted for s in stats),
        "apps_done": all(app.done.done for app in apps),
        "incomplete": sum(r.incomplete_messages for r in cluster.reassemblers.values()),
        "lost": report.lost_messages,
        # Everything below must be identical in every segment of a run.
        "counts": {
            "messages": report.messages,
            "total_bytes": report.total_bytes,
            "latency_us": report.latency.mean * 1e6,
            "dispatches": sum(s.dispatches for s in stats),
            "activations": sum(sum(s.activations.values()) for s in stats),
            "data_packets": report.data_packets,
            "data_segments": sum(s.data_segments for s in stats),
            "holds": sum(s.holds for s in stats),
            "rdv": report.rdv_count,
            "packets": report.network_transactions,
            "events": cluster.sim.events_processed,
            "candidates": sum(
                getattr(engine.strategy, "candidates_evaluated", 0)
                for engine in cluster.engines.values()
            ),
            "obs_events": sink.seen if sink is not None else 0,
        },
    }
    if mode == "ops":
        out["ops"] = hook.ops
        out["calls"] = hook.calls
    elif mode == "spans":
        for span in hook.spans:
            span["start"] -= hook.started
            span["end"] -= hook.started
        out.update(
            # Span clocks are wall clocks; scale them to the corrected total.
            self_s=[t * (cpu_s / host) / hook.wall for t in hook.self_time],
            unattributed=1.0 - sum(hook.self_time) / hook.wall,
            crossings=hook.crossings,
            watch_calls=hook.watch_calls, backlog_sum=hook.backlog_sum,
            backlog_samples=hook.backlog_samples, spans=hook.spans, by_name=hook.by_name,
        )
    return out


def _forked(fn) -> tuple[dict, float]:
    """Run ``fn`` in a forked child; returns its result and peak RSS (MB)."""
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            payload = json.dumps(fn())
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    _pid, status, usage = os.wait4(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"segment child failed (wait status {status})")
    return json.loads(payload), usage.ru_maxrss / 1024.0


def _setup_seconds(scenario: dict, src_dir: str) -> float:
    """Fresh interpreter → import + ``build_scenario`` done, median."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    payload = json.dumps(scenario)
    samples = []
    for _ in range(SETUP_PROBES):
        ref_before = quantum()
        cpu0 = children_cpu_seconds()
        subprocess.run(
            [sys.executable, "-c", _PROBE], input=payload, text=True, env=env, check=True,
        )
        cpu_s = children_cpu_seconds() - cpu0
        samples.append(cpu_s / slowdown(ref_before, quantum()))
    return statistics.median(samples)


class _Run:
    """Segments of one run, with the gates that hold between them."""

    def __init__(self, scenario: dict, layer_map: LayerMap) -> None:
        self.scenario = scenario
        self.layer_map = layer_map
        self.gates: list[tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.reference: dict | None = None
        self._index = 0
        self._undelivered: list[str] = []
        self._differing: list[str] = []

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append((name, bool(ok), detail))

    def segment(self, mode: str = "plain", scenario: dict | None = None) -> dict:
        index = self._index
        self._index += 1
        chosen = self.scenario if scenario is None else scenario
        seg, rss = _forked(lambda: _segment(chosen, mode, index, self.layer_map))
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        counts = seg["counts"]
        self.attempted += seg["submitted"]
        self.failed += seg["submitted"] - counts["messages"]
        label = f"segment {index} ({mode})"
        if not (seg["apps_done"] and seg["incomplete"] == 0 and seg["lost"] == 0):
            self._undelivered.append(
                f"{label}: apps_done={seg['apps_done']} "
                f"incomplete={seg['incomplete']} lost={seg['lost']}")
        if scenario is None:
            if self.reference is None:
                self.reference = counts
            elif counts != self.reference:
                diff = {k: (self.reference[k], v) for k, v in counts.items()
                        if v != self.reference[k]}
                self._differing.append(f"{label}: {diff}")
        return seg

    def finish(self) -> None:
        self.gate("delivered", not self._undelivered, "; ".join(self._undelivered))
        self.gate("segments_identical", not self._differing, "; ".join(self._differing))

    def plain_for(self, seconds: float, at_least: int) -> list[dict]:
        """Untraced segments until ``seconds`` of wall time are used."""
        segments = []
        deadline = perf_counter() + seconds
        while len(segments) < at_least or perf_counter() < deadline:
            segments.append(self.segment())
        return segments


def run(spec: dict, seed: int, seconds: float, trace: bool, smoke: bool,
        check: bool, src_dir: str, out_dir: str) -> dict:
    """One run of a sim workload; returns metrics, counts and gates."""
    # Import the program once, here, so that no forked segment pays for it.
    import repro.runtime.scenario  # noqa: F401
    import repro.runtime.session  # noqa: F401

    scenario = copy.deepcopy(spec["scenario"])
    scenario.setdefault("cluster", {})["seed"] = seed
    layer_map = LayerMap(os.path.join(src_dir, "repro"))
    state = _Run(scenario, layer_map)
    at_least = 2 if smoke else 5
    metrics: dict[str, float] = {}

    if not trace:
        metrics["setup_s"] = _setup_seconds(scenario, src_dir)
        segments = state.plain_for(0.0 if smoke else seconds, at_least)
        msgs = state.reference["messages"]
        metrics["msgs_per_s"] = msgs / statistics.median(s["worked_s"] for s in segments)
        metrics["peak_rss_mb"] = state.peak_rss_mb
    else:
        stolen0, t0 = stolen_seconds(), perf_counter()
        segments = state.plain_for(0.0 if smoke else 0.3 * seconds, at_least)
        stolen_frac = (stolen_seconds() - stolen0) / (perf_counter() - t0)
        counts = state.reference
        msgs = counts["messages"]
        dispatches = max(counts["dispatches"], 1)
        worked_s, corrected_iqr = median_iqr([s["worked_s"] for s in segments])
        raw_rate, raw_iqr = median_iqr([msgs / s["wall_s"] for s in segments])

        ops_seg = state.segment("ops")
        total_ops = sum(ops_seg["ops"])
        if check:
            again = state.segment("ops")
            state.gate("ops_repeat_exactly", again["ops"] == ops_seg["ops"],
                       f"{sum(again['ops'])} vs {total_ops}")

        span_segs = [state.segment("spans")]
        deadline = perf_counter() + (0.0 if smoke else 0.2 * seconds)
        while len(span_segs) < 3 and perf_counter() + span_segs[-1]["wall_s"] < deadline:
            span_segs.append(state.segment("spans"))

        without = spec.get("twin_without")
        if without:
            # The same inputs with the named block removed must dispatch
            # identically (e.g. traced == untraced).
            twin = {k: v for k, v in scenario.items() if k != without}
            twin_counts = state.segment(scenario=twin)["counts"]
            same = ("messages", "latency_us", "dispatches", "data_packets", "events")
            state.gate(f"same_without_{without}",
                       all(twin_counts[k] == counts[k] for k in same),
                       f"{[(k, twin_counts[k], counts[k]) for k in same]}")
        for layer in spec.get("idle_layers", ()):
            # A plane that is switched off must execute nothing at all.
            idle_ops = ops_seg["ops"][LAYERS.index(layer)]
            state.gate(f"idle:{layer}", idle_ops == 0, f"{idle_ops} bytecodes")
        floor = spec.get("min_backlog_at_decision")
        backlog = (sum(s["backlog_sum"] for s in span_segs)
                   / max(sum(s["backlog_samples"] for s in span_segs), 1))
        if floor is not None:
            state.gate("deep_backlog", backlog >= floor, f"{backlog:.1f} < {floor}")

        n_spans = len(span_segs)
        traced_s = sum(s["worked_s"] for s in span_segs) / n_spans
        self_s = [sum(s["self_s"][i] for s in span_segs) / n_spans for i in range(len(LAYERS))]
        watch = [sum(s["watch_calls"][i] for s in span_segs) / n_spans
                 for i in range(len(WATCHED))]
        obs_ops = ops_seg["ops"][LAYERS.index("obs")]

        metrics["py_ops_per_msg"] = total_ops / msgs
        metrics["sim_latency_us"] = counts["latency_us"]
        for i, layer in enumerate(LAYERS):
            metrics[f"{layer}.ops_per_msg"] = ops_seg["ops"][i] / msgs
            metrics[f"{layer}.calls_per_msg"] = ops_seg["calls"][i] / msgs
            metrics[f"{layer}.self_us_per_msg"] = self_s[i] / msgs * 1e6
        metrics.update({
            "core.dispatches_per_msg": counts["dispatches"] / msgs,
            "core.activations_per_dispatch": counts["activations"] / dispatches,
            "core.make_plan_calls_per_dispatch": watch[0] / dispatches,
            "core.service_order_calls_per_dispatch": watch[1] / dispatches,
            "core.candidates_per_decision": counts["candidates"] / dispatches,
            "core.agg_ratio": counts["data_segments"] / max(counts["data_packets"], 1),
            "core.holds_per_msg": counts["holds"] / msgs,
            "core.rdv_per_msg": counts["rdv"] / msgs,
            "core.backlog_at_decision": backlog,
            "network.packets_per_msg": counts["packets"] / msgs,
            "sim.events_per_msg": counts["events"] / msgs,
            "obs.events_per_msg": counts["obs_events"] / msgs,
            "obs.ops_per_event": obs_ops / counts["obs_events"] if counts["obs_events"] else 0.0,
            "runtime.build_ms": statistics.median(s["build_s"] for s in segments) * 1e3,
            "runtime.report_ms": statistics.median(s["report_s"] for s in segments) * 1e3,
            "bench.raw_msgs_per_s": raw_rate,
            "bench.raw_iqr_frac": raw_iqr,
            "bench.corrected_iqr_frac": corrected_iqr,
            "bench.host_slowdown": statistics.median(s["host"] for s in segments),
            "bench.stolen_frac": stolen_frac,
            "bench.trace_overhead_x": traced_s / worked_s,
            "bench.unattributed_frac": max(s["unattributed"] for s in span_segs),
            "bench.segments": float(len(segments)),
        })
        state.gate("self_times_sum_to_wall", metrics["bench.unattributed_frac"] <= 0.05,
                   f"unattributed {metrics['bench.unattributed_frac']:.4f}")
        _write_trace(out_dir, spec["name"], seed, msgs, ops_seg, span_segs)

    state.finish()
    return {"metrics": metrics, "attempted": state.attempted, "failed": state.failed,
            "gates": state.gates}


def _write_trace(out_dir: str, name: str, seed: int, msgs: int,
                 ops_seg: dict, span_segs: list[dict]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    by_name: dict[str, list] = {}
    for seg in span_segs:
        for span_name, (count, total, self_s) in seg["by_name"].items():
            agg = by_name.setdefault(span_name, [0, 0.0, 0.0])
            agg[0] += count
            agg[1] += total
            agg[2] += self_s
    doc = {
        "workload": name,
        "seed": seed,
        "messages_per_segment": msgs,
        "ops": dict(zip(LAYERS, ops_seg["ops"])),
        "ops_total": sum(ops_seg["ops"]),
        "calls": dict(zip(LAYERS, ops_seg["calls"])),
        "segments": [
            {"worked_s": s["worked_s"],
             "self_s": dict(zip(LAYERS, s["self_s"])),
             "crossings": dict(zip(LAYERS, s["crossings"]))}
            for s in span_segs
        ],
        "by_name": {
            k: {"count": v[0], "total_s": v[1], "self_s": v[2]}
            for k, v in sorted(by_name.items(), key=lambda kv: -kv[1][2])
        },
        "spans": [span for seg in span_segs for span in seg["spans"]],
    }
    with open(os.path.join(out_dir, f"{name}.trace.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
