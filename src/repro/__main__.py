"""Top-level command line interface.

Usage::

    python -m repro info                 # versions, technologies, strategies
    python -m repro run scenario.json    # execute a declarative scenario
    python -m repro run scenario.json --trace-out trace.jsonl \
        --metrics-out metrics.prom --sample-interval 1e-5
    python -m repro run scenario.json --trace-out trace.json  # Perfetto view
    python -m repro live run scenario.json --serve :9464 --trace-out merged.jsonl
    python -m repro obs analyze trace.jsonl  # timelines + decision summary
    python -m repro obs analyze merged.jsonl --scenario s.json --check  # SLO gate
    python -m repro obs diff base.json cand.json --check   # regression gate
    python -m repro obs diff benchmarks/gates.json results/ --check  # CI gates
    python -m repro obs why trace.jsonl --slowest 5   # causal latency blame
    python -m repro bench [ids] [flags]    # alias for python -m repro.bench
"""

from __future__ import annotations

import argparse
import importlib
import sys

import repro
from repro.util.errors import ConfigurationError
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


def _apply_flags(scenario: dict, args) -> None:
    """Apply ``--faults``, ``--sample-interval`` and ``--trace-out`` to
    the scenario, the same way for ``run`` and ``live run``.

    ``--faults`` is ``off`` (drop the block) or ``key=val,key=val``
    merged over it: values parse as floats (``seed`` as an integer),
    ``drop=0.05,jitter=1e-6`` being the typical shape.  Nested blocks
    (outages, per-NIC overrides, ``die``, ``disconnect``) stay in the
    scenario file.
    """
    if args.faults == "off":
        scenario.pop("faults", None)
    elif args.faults is not None:
        faults = dict(scenario.get("faults", {}))
        for pair in args.faults.split(","):
            key, sep, raw = pair.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigurationError(
                    f"--faults expects 'off' or key=val[,key=val...], got {args.faults!r}"
                )
            try:
                faults[key] = int(raw) if key == "seed" else float(raw)
            except ValueError:
                raise ConfigurationError(
                    f"--faults value for {key!r} is not a number: {raw!r}"
                ) from None
        scenario["faults"] = faults
    obs = {}
    if args.sample_interval is not None:
        obs["sample_interval"] = args.sample_interval
    if args.trace_out:
        obs["trace"] = True  # the explicit flag beats the scenario
    if obs:
        scenario["observability"] = {**scenario.get("observability", {}), **obs}


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
    print(
        f"p99 / p999 latency   : {report.latency.p99 * 1e6:.2f} / "
        f"{report.latency.p999 * 1e6:.2f} us"
    )
    print(f"network transactions : {report.network_transactions}")
    print(f"aggregation ratio    : {report.aggregation_ratio:.2f}")
    print(f"rendezvous transfers : {report.rdv_count}")


def _cmd_run(args) -> int:
    import json

    from repro.network.virtual import TrafficClass
    from repro.runtime.scenario import load_scenario_file, run_scenario

    scenario = load_scenario_file(args.scenario)
    _apply_flags(scenario, args)
    if args.metrics_out:
        scenario.setdefault("observability", {})
    report, cluster, apps = run_scenario(scenario)
    name = scenario.get("name", args.scenario)
    plane = cluster.obs
    tuned = {
        node: engine.rail_order.summary()
        for node, engine in cluster.engines.items()
        if engine.rail_order is not None
    }
    written: list[str] = []
    if plane is not None and args.trace_out:
        fmt = plane.write_trace(args.trace_out)
        written.append(f"trace written        : {args.trace_out} ({fmt})")
    if plane is not None and args.metrics_out:
        plane.write_metrics(args.metrics_out)
        written.append(f"metrics written      : {args.metrics_out} (prometheus)")
    if args.json:
        incomplete = [a.name for a in apps if not a.done.done]
        payload = {
            "scenario": name,
            "virtual_time": cluster.sim.now,
            "report": report.to_dict(),
            "incomplete_workloads": incomplete,
        }
        if tuned:
            payload["tuner"] = {"nodes": {n: {"rails": s} for n, s in tuned.items()}}
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
    if tuned:
        print("tuner:")
        for node, state in tuned.items():
            print(f"  {node:<6} rail-refreshes={state['refreshes']}")
    if plane is not None and plane.sink is not None and plane.sink.dropped:
        print(
            f"flight recorder      : kept {len(plane.sink.events)} of "
            f"{plane.sink.seen} events (oldest evicted)"
        )
    for line in written:
        print(line)
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
    _apply_flags(scenario, args)
    result = run_live_scenario(
        scenario,
        transport=args.transport,
        time_scale=args.time_scale,
        timeout=args.timeout,
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
            "data_bytes_sent": result.data_bytes_sent,
            "cpu_s": result.cpu_s,
            "rtt_samples": len(result.rtts),
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
    crossings = sum(edge["count"] for edge in result.tails["edges"].values())
    if crossings:
        print(f"wire crossings       : {crossings} correlated")
    if args.trace_out:
        print(f"trace written        : {args.trace_out} ({fmt})")
    if args.metrics_out and result.cluster_registry is not None:
        print(f"metrics written      : {args.metrics_out} (prometheus)")
    return 0


def _main_of(module: str):
    """The ``func`` of a subcommand whose entry point is
    ``module.main(args)``, imported only when it runs."""
    return lambda args: importlib.import_module(module).main(args)


def _shared_flags() -> argparse.ArgumentParser:
    """The flags ``run`` and ``live run`` share, declared once."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--faults",
        metavar="SPEC",
        help=(
            "override the scenario's faults block: 'off' to disable, or "
            "key=val pairs, e.g. --faults drop=0.05,duplicate=0.01,seed=7"
        ),
    )
    shared.add_argument(
        "--trace-out",
        metavar="PATH",
        help=(
            "write the captured trace (on the live plane, every peer's "
            "merged): .jsonl/.ndjson for JSON Lines (what 'obs' reads), "
            "anything else for Chrome trace JSON (open in ui.perfetto.dev)"
        ),
    )
    shared.add_argument(
        "--metrics-out",
        metavar="PATH",
        help=(
            "write end-of-run metrics (on the live plane, the merged "
            "cluster registry) as Prometheus text exposition"
        ),
    )
    shared.add_argument(
        "--sample-interval",
        type=float,
        metavar="SECONDS",
        help="periodic time-series sample interval in virtual seconds",
    )
    shared.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON on stdout (no human text)",
    )
    return shared


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
    shared = _shared_flags()

    subparsers.add_parser("info", help="list registered components").set_defaults(
        func=_cmd_info
    )

    run_parser = subparsers.add_parser(
        "run", parents=[shared], help="execute a scenario file"
    )
    run_parser.add_argument("scenario", help="path to a scenario JSON file")
    run_parser.add_argument(
        "--histogram", action="store_true", help="show the latency histogram"
    )
    run_parser.set_defaults(func=_cmd_run)

    live_parser = subparsers.add_parser(
        "live", help="run the engine over real sockets (repro.live)"
    )
    live_sub = live_parser.add_subparsers(dest="subcommand", required=True)
    live_run = live_sub.add_parser(
        "run", parents=[shared], help="execute a scenario file over a local socket mesh"
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
        "--serve",
        metavar="[HOST:]PORT",
        help=(
            "expose live cluster /metrics (Prometheus) and /status (JSON) "
            "over HTTP while the run is in flight, e.g. --serve :9464"
        ),
    )
    live_run.set_defaults(func=_cmd_live_run)

    obs_parser = subparsers.add_parser("obs", help="observability tools")
    obs_sub = obs_parser.add_subparsers(dest="subcommand", required=True)
    analyze_parser = obs_sub.add_parser(
        "analyze", help="reconstruct timelines + decision summary from a trace"
    )
    analyze_parser.add_argument("trace", help="trace file (.jsonl)")
    analyze_parser.add_argument(
        "--width", type=int, default=60, help="sparkline width in columns"
    )
    analyze_parser.add_argument(
        "--top", type=int, default=5, help="channels to list in the miss summary"
    )
    analyze_parser.add_argument(
        "--scenario",
        metavar="PATH",
        help=(
            "scenario JSON whose observability.slo block defines the "
            "objectives to evaluate (multi-window burn rates)"
        ),
    )
    analyze_parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit nonzero when no edge was correlated or any SLO is "
            "violated in every configured window"
        ),
    )
    analyze_parser.set_defaults(func=_main_of("repro.obs.analyze"))

    diff_parser = obs_sub.add_parser(
        "diff",
        help="compare two traces or run.py results metric-by-metric, or check gates.json",
    )
    diff_parser.add_argument("baseline", help="baseline trace, bench JSON or gates file")
    diff_parser.add_argument("candidate", help="candidate trace, bench JSON or results dir")
    diff_parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative change treated as a regression where no bound is declared (default 0.2)",
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
    diff_parser.set_defaults(func=_main_of("repro.obs.diff"))

    why_parser = obs_sub.add_parser(
        "why",
        help="causal latency attribution: why was this message late?",
    )
    why_parser.add_argument(
        "trace", help="trace file (.jsonl; merged live or sim)"
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
    why_parser.set_defaults(func=_main_of("repro.obs.causal"))

    # Listed for --help only; ``bench`` is dispatched above.
    subparsers.add_parser("bench", help="run experiments (python -m repro.bench)")

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as exc:
        # A bad scenario, flag or file is the user's to fix: one line.
        # Any other error is a bug or a failed live run, and keeps its
        # traceback.
        command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
        print(f"repro {command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
