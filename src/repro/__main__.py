"""Top-level command line interface.

Usage::

    python -m repro info                 # versions, technologies, strategies
    python -m repro run scenario.json    # execute a declarative scenario
    python -m repro run scenario.json --trace-out trace.json \
        --metrics-out metrics.prom --sample-interval 1e-5
    python -m repro live run scenario.json --serve :9464 --trace-out merged.json
    python -m repro obs analyze trace.json   # timelines + decision summary
    python -m repro obs diff base.json cand.json --check   # regression gate
    python -m repro obs tail merged.jsonl --scenario s.json --check  # SLO gate
    python -m repro obs why trace.jsonl --slowest 5   # causal latency blame
    python -m repro bench [ids] [flags]    # alias for python -m repro.bench
"""

from __future__ import annotations

import argparse
import math
import sys

import repro
from repro.util.units import format_rate, format_time


def _cmd_info(_args) -> int:
    from repro.bench.experiments import ALL_EXPERIMENTS
    from repro.core.strategies import STRATEGY_TYPES
    from repro.network.technologies import TECHNOLOGIES
    from repro.runtime.scenario import APP_TYPES, POLICY_TYPES

    print(f"repro {repro.__version__} — NewMadeleine-style optimization engine")
    print(f"technologies : {', '.join(sorted(TECHNOLOGIES))}")
    print(f"strategies   : {', '.join(sorted(STRATEGY_TYPES))}")
    print(f"policies     : {', '.join(sorted(POLICY_TYPES))}")
    print(f"workload apps: {', '.join(sorted(APP_TYPES))}")
    print(f"experiments  : {', '.join(ALL_EXPERIMENTS)}")
    return 0


def _parse_faults_arg(value: str) -> dict | None:
    """Parse the ``--faults`` override: ``off`` or ``key=val,key=val``.

    Values parse as floats; ``drop=0.05,jitter=1e-6`` is the typical
    shape.  Nested blocks (outages, per-NIC overrides) stay in the
    scenario file — the CLI knob covers the scalar lotteries plus
    ``seed``.
    """
    from repro.util.errors import ConfigurationError

    if value == "off":
        return None
    faults: dict = {}
    for pair in value.split(","):
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(
                f"--faults expects 'off' or key=val[,key=val...], got {value!r}"
            )
        try:
            faults[key] = int(raw) if key == "seed" else float(raw)
        except ValueError:
            raise ConfigurationError(
                f"--faults value for {key!r} is not a number: {raw!r}"
            ) from None
    return faults


def _print_report(report, counted: str, verified: str | None = None) -> None:
    """The ``SessionReport`` block both planes print.

    ``counted`` is the plane's word for a message that made it
    (``completed`` in virtual time, ``delivered`` over sockets);
    ``verified`` is the live plane's byte-verification line.
    """
    print(f"messages {counted:<12}: {report.messages}")
    print(f"payload delivered    : {report.total_bytes} B")
    if verified is not None:
        print(f"bytes verified       : {verified}")
    print(f"throughput           : {format_rate(report.throughput)}")
    print(f"mean latency         : {report.latency.mean * 1e6:.2f} us")
    print(f"p99 latency          : {report.latency.p99 * 1e6:.2f} us")
    if not math.isnan(report.latency_p99_us):
        print(
            f"sketch p99 / p999    : {report.latency_p99_us:.2f} / "
            f"{report.latency_p999_us:.2f} us"
        )
    print(f"network transactions : {report.network_transactions}")
    print(f"aggregation ratio    : {report.aggregation_ratio:.2f}")
    print(f"rendezvous transfers : {report.rdv_count}")


def _cmd_run(args) -> int:
    import json

    from repro.network.virtual import TrafficClass
    from repro.runtime.scenario import load_scenario_file, run_scenario

    scenario = load_scenario_file(args.scenario)
    if args.faults is not None:
        override = _parse_faults_arg(args.faults)
        if override is None:
            scenario.pop("faults", None)
        else:
            merged = dict(scenario.get("faults", {}))
            merged.update(override)
            scenario["faults"] = merged
    if args.trace_out or args.metrics_out or args.sample_interval is not None:
        obs_spec = dict(scenario.get("observability", {}))
        if args.sample_interval is not None:
            obs_spec["sample_interval"] = args.sample_interval
        if args.trace_out:
            obs_spec["trace"] = True  # the explicit flag beats the scenario
        scenario["observability"] = obs_spec
    report, cluster, apps = run_scenario(scenario)
    name = scenario.get("name", args.scenario)
    if args.json:
        incomplete = [a.name for a in apps if not a.done.done]
        payload = {
            "scenario": name,
            "virtual_time": cluster.sim.now,
            "report": report.to_dict(),
            "incomplete_workloads": incomplete,
        }
        if cluster.tuner is not None:
            payload["tuner"] = cluster.tuner.summary()
        print(json.dumps(payload, indent=2))
        return 1 if incomplete else 0
    print(f"== scenario: {name} ==")
    print(f"virtual time         : {format_time(cluster.sim.now)}")
    _print_report(report, "completed")
    if cluster.fault_plane is not None:
        print(f"packets dropped      : {report.packets_dropped}")
        print(f"packets corrupted    : {report.packets_corrupted}")
        print(f"packets duplicated   : {report.packets_duplicated}")
        print(f"retransmits          : {report.retransmits}")
        print(f"failovers            : {report.failovers}")
        print(f"rdv timeouts         : {report.rdv_timeouts}")
    if report.latency_by_class:
        print("per-class mean latency:")
        for traffic_class in TrafficClass:
            summary = report.latency_by_class.get(traffic_class)
            if summary is not None:
                print(
                    f"  {traffic_class.value:<8} {summary.mean * 1e6:10.2f} us "
                    f"(n={summary.count})"
                )
    if args.histogram and report.messages > 1:
        from repro.util.stats import ascii_histogram

        latencies_us = [r.latency * 1e6 for r in cluster.metrics.records]
        print("latency histogram (us):")
        print(ascii_histogram(latencies_us, fmt="{:.1f}"))
    if cluster.tuner is not None:
        print("tuner:")
        for node, state in cluster.tuner.summary()["nodes"].items():
            print(f"  {node:<6} rail-refreshes={state['rails']['refreshes']}")
    plane = cluster.obs
    if plane is not None:
        plane.finalize()
        if plane.sink is not None and plane.sink.dropped:
            print(
                f"flight recorder      : kept {len(plane.sink.events)} of "
                f"{plane.sink.seen} events (oldest evicted)"
            )
        if args.trace_out:
            fmt = plane.write_trace(args.trace_out)
            print(f"trace written        : {args.trace_out} ({fmt})")
        if args.metrics_out:
            plane.write_metrics(args.metrics_out)
            print(f"metrics written      : {args.metrics_out} (prometheus)")
    incomplete = [a.name for a in apps if not a.done.done]
    if incomplete:
        print(f"WARNING: workloads not finished: {incomplete}")
        return 1
    return 0


def _cmd_live_run(args) -> int:
    import json

    from repro.live import run_live_scenario
    from repro.runtime.scenario import load_scenario_file

    scenario = load_scenario_file(args.scenario)
    if args.chaos:
        import os as _os

        scenario = dict(scenario)
        if _os.path.exists(args.chaos):
            with open(args.chaos, encoding="utf-8") as f:
                scenario["faults"] = json.load(f)
        else:
            scenario["faults"] = json.loads(args.chaos)
    observability = dict(scenario.get("observability", {}))
    if args.sample_interval is not None:
        observability["sample_interval"] = args.sample_interval
    if args.trace_out:
        observability["trace"] = True
    result = run_live_scenario(
        scenario,
        transport=args.transport,
        time_scale=args.time_scale,
        trace=bool(args.trace_out),
        timeout=args.timeout,
        observability=observability or None,
        serve=args.serve,
    )
    report = result.report
    if args.trace_out:
        from repro.obs.export import write_trace

        fmt = write_trace(args.trace_out, result.aligned_events)
    if args.metrics_out and result.cluster_registry is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as f:
            f.write(result.cluster_registry.to_prometheus())
    name = scenario.get("name", args.scenario)
    if args.json:
        payload = {
            "scenario": name,
            "transport": args.transport,
            "report": report.to_dict(),
            "bytes_verified": result.bytes_verified,
            "corrupt_slices": result.corrupt_slices,
            "done_frames_sent": result.done_frames_sent,
            "rtt_samples": len(result.rtts),
            "clock_offsets": result.offsets,
            "crossings_matched": result.crossings_matched,
            "crossings_clamped": result.crossings_clamped,
            "tails": result.tails,
            "dead_peers": [
                {
                    "rank": d.rank,
                    "node": d.node,
                    "reason": d.reason,
                    "time_to_detect": d.time_to_detect,
                }
                for d in result.dead_peers
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"== live scenario: {name} ({args.transport}) ==")
    print(f"wall time            : {format_time(report.duration)}")
    _print_report(
        report,
        "delivered",
        verified=f"{result.bytes_verified} (corrupt: {result.corrupt_slices})",
    )
    if report.retransmits or report.packets_dropped:
        print(
            f"chaos recovery       : {report.retransmits} retransmits "
            f"({report.packets_dropped} dropped, "
            f"{report.packets_corrupted} corrupted on the wire)"
        )
    if report.degraded:
        dead = ", ".join(
            f"{d.node} ({d.reason}, {d.time_to_detect:.2f}s)"
            for d in result.dead_peers
        )
        print(f"DEGRADED run         : lost {report.lost_messages} messages; dead: {dead}")
    if result.rtts:
        mean_rtt = sum(result.rtts) / len(result.rtts)
        print(f"mean ping-pong RTT   : {mean_rtt * 1e6:.2f} us (n={len(result.rtts)})")
    if result.offsets:
        worst = max(abs(v) for v in result.offsets.values())
        print(
            f"clock offsets        : {len(result.offsets)} peers aligned "
            f"(max |offset| {worst * 1e6:.2f} us)"
        )
    if result.crossings_matched:
        print(
            f"wire crossings       : {result.crossings_matched} correlated "
            f"({result.crossings_clamped} clamped)"
        )
    if args.trace_out:
        print(f"trace written        : {args.trace_out} ({fmt})")
    if args.metrics_out and result.cluster_registry is not None:
        print(f"metrics written      : {args.metrics_out} (prometheus)")
    return 0


def _cmd_obs_analyze(args) -> int:
    from repro.obs.analyze import main as analyze_main

    return analyze_main(args)


def _cmd_obs_diff(args) -> int:
    from repro.obs.diff import main as diff_main

    return diff_main(args)


def _cmd_obs_tail(args) -> int:
    from repro.obs.tails import main as tail_main

    return tail_main(args)


def _cmd_obs_why(args) -> int:
    from repro.obs.causal import main as why_main

    return why_main(args)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["bench"]:
        # The alias forwards its argv verbatim: bench/__main__.py owns
        # the only flag table.
        from repro.bench.__main__ import main as bench_main

        return bench_main(argv[1:])

    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="list registered components").set_defaults(
        func=_cmd_info
    )

    run_parser = subparsers.add_parser("run", help="execute a scenario file")
    run_parser.add_argument("scenario", help="path to a scenario JSON file")
    run_parser.add_argument(
        "--histogram", action="store_true", help="show the latency histogram"
    )
    run_parser.add_argument(
        "--faults",
        metavar="SPEC",
        help=(
            "override the scenario's faults block: 'off' to disable, or "
            "key=val pairs, e.g. --faults drop=0.05,duplicate=0.01,seed=7"
        ),
    )
    run_parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help=(
            "write the captured trace: .jsonl/.ndjson for JSON Lines, "
            "anything else for Chrome trace JSON (open in ui.perfetto.dev)"
        ),
    )
    run_parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write end-of-run metrics as Prometheus text exposition",
    )
    run_parser.add_argument(
        "--sample-interval",
        type=float,
        metavar="SECONDS",
        help="periodic time-series sample interval in simulated seconds",
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full session report as JSON on stdout (no human text)",
    )
    run_parser.set_defaults(func=_cmd_run)

    live_parser = subparsers.add_parser(
        "live", help="run the engine over real sockets (repro.live)"
    )
    live_sub = live_parser.add_subparsers(dest="live_command", required=True)
    live_run = live_sub.add_parser(
        "run", help="execute a scenario file over a local socket mesh"
    )
    live_run.add_argument("scenario", help="path to a scenario JSON file")
    live_run.add_argument(
        "--transport",
        choices=("uds", "tcp"),
        default="uds",
        help="peer interconnect: Unix-domain sockets (default) or TCP loopback",
    )
    live_run.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="real seconds per virtual second (stretch engine delays)",
    )
    live_run.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="hard wall-clock budget before the run is declared hung",
    )
    live_run.add_argument(
        "--trace-out",
        metavar="PATH",
        help=(
            "write the cross-peer merged trace, clock-aligned with flow "
            "events per wire crossing (.jsonl/.ndjson or Chrome JSON)"
        ),
    )
    live_run.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the merged cluster registry as Prometheus text",
    )
    live_run.add_argument(
        "--sample-interval",
        type=float,
        metavar="SECONDS",
        help="periodic per-peer time-series sample interval (virtual seconds)",
    )
    live_run.add_argument(
        "--serve",
        metavar="[HOST:]PORT",
        help=(
            "expose live cluster /metrics (Prometheus) and /status (JSON) "
            "over HTTP while the run is in flight, e.g. --serve :9464"
        ),
    )
    live_run.add_argument(
        "--chaos",
        metavar="SPEC",
        help=(
            "chaos-inject the run: a scenario 'faults' block as inline JSON "
            "or a path to a JSON file, e.g. "
            "--chaos '{\"drop\": 0.05, \"disconnect\": {\"every\": 40}, \"seed\": 7}' "
            "(overrides the scenario's own faults block)"
        ),
    )
    live_run.add_argument(
        "--json", action="store_true", help="emit the report as JSON on stdout"
    )
    live_run.set_defaults(func=_cmd_live_run)

    obs_parser = subparsers.add_parser("obs", help="observability tools")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    analyze_parser = obs_sub.add_parser(
        "analyze", help="reconstruct timelines + decision summary from a trace"
    )
    analyze_parser.add_argument("trace", help="trace file (.jsonl or Chrome JSON)")
    analyze_parser.add_argument(
        "--width", type=int, default=60, help="sparkline width in columns"
    )
    analyze_parser.add_argument(
        "--top", type=int, default=5, help="channels to list in the miss summary"
    )
    analyze_parser.set_defaults(func=_cmd_obs_analyze)

    diff_parser = obs_sub.add_parser(
        "diff",
        help="compare two traces or benchmarks/e2e/run.py results metric-by-metric",
    )
    diff_parser.add_argument("baseline", help="baseline trace or bench JSON")
    diff_parser.add_argument("candidate", help="candidate trace or bench JSON")
    diff_parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative change treated as a regression (default 0.2 = 20%%)",
    )
    diff_parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="GLOB",
        help="metric keys to exclude (fnmatch glob, repeatable)",
    )
    diff_parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when any non-ignored metric regressed",
    )
    diff_parser.set_defaults(func=_cmd_obs_diff)

    tail_parser = obs_sub.add_parser(
        "tail",
        help="per-edge tail-latency report + SLO burn rates from a trace",
    )
    tail_parser.add_argument(
        "trace", help="trace file (.jsonl or Chrome JSON; merged live or sim)"
    )
    tail_parser.add_argument(
        "--scenario",
        metavar="PATH",
        help=(
            "scenario JSON whose observability.slo block defines the "
            "objectives to evaluate (multi-window burn rates)"
        ),
    )
    tail_parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit nonzero when no edge was correlated or any SLO is "
            "violated in every configured window"
        ),
    )
    tail_parser.set_defaults(func=_cmd_obs_tail)

    why_parser = obs_sub.add_parser(
        "why",
        help="causal latency attribution: why was this message late?",
    )
    why_parser.add_argument(
        "trace", help="trace file (.jsonl or Chrome JSON; merged live or sim)"
    )
    why_parser.add_argument(
        "--message",
        metavar="ID",
        help="explain one message: 'NODE#mID' (e.g. n0#m3) or a bare id",
    )
    why_parser.add_argument(
        "--slowest",
        type=int,
        default=5,
        metavar="K",
        help="show waterfalls for the K slowest messages (default 5)",
    )
    why_parser.add_argument(
        "--edge",
        metavar="SRC:DST",
        help="restrict the report to one edge, e.g. n0:n1",
    )
    why_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the attribution report as JSON on stdout",
    )
    why_parser.set_defaults(func=_cmd_obs_why)

    # Listed for --help only; ``bench`` is dispatched above.
    subparsers.add_parser("bench", help="run experiments (python -m repro.bench)")

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
