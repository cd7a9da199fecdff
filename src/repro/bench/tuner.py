"""Benchmarks of the online adaptation plane (:mod:`repro.tuner`).

Two questions, answered with numbers in ``BENCH_tuner.json``:

* **What does the per-decision hook cost?**  Decisions per second of
  the plain ``make_plan`` vs the same strategy behind an installed
  :class:`~repro.tuner.TunedStrategy` (no sweep, no rails) on the same
  loaded engine — the price every tuned run pays per decision.
* **Does tail-acting rail selection help the tail?**  p99 message
  latency on a skewed-rail cluster (slow TCP rail listed first, fast
  MX rail second) with selection on vs off, measured after a warmup
  long enough for the selector to have rail statistics.

Unlike :mod:`repro.bench.kernel` there is no checked-in baseline: the
``--check`` gate enforces an *absolute* invariant (selection-on p99 <
selection-off p99), so a regression is a property violation, not a
percentage.  The decision rates are reported, not gated.

Usage::

    python -m repro.bench.tuner             # print + BENCH_tuner.json
    python -m repro.bench.tuner --check     # fail on any invariant violation
    python -m repro.bench.tuner --quick     # reduced iterations (CI)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.kernel import _bump_version, build_loaded_cluster
from repro.core.config import EngineConfig
from repro.core.strategies.search import BoundedSearchStrategy
from repro.runtime.cluster import Cluster
from repro.tuner import Tuner, TunerConfig
from repro.tuner.config import RailsConfig

__all__ = [
    "decision_rates",
    "skewed_rail_p99",
    "run_suite",
    "check_invariants",
]

#: Default location of the emitted results (repository root).
RESULT_FILE = "BENCH_tuner.json"

_DEPTH = 16  # backlog depth for the decision-rate comparison


def decision_rates(
    depth: int = _DEPTH, *, iterations: int = 300, repeats: int = 9
) -> dict[str, float]:
    """Decisions per second: general vs tuned wrapper.

    Both run the bounded search over the same backlog.  ``general``
    calls the strategy's own ``make_plan``; ``wrapper`` goes through an
    installed :class:`~repro.tuner.TunedStrategy`, paying the
    per-decision hook on every call.

    Measured *interleaved* — one timed round of each configuration per
    repeat, best-of-N per configuration — so scheduler drift hits both
    alike (the same discipline as
    :func:`repro.bench.kernel.tracing_overhead`); a sequential
    measurement would let a frequency ramp masquerade as a difference.
    """

    def make_round(tuned: bool):
        cluster = build_loaded_cluster(
            depth,
            strategy=lambda: BoundedSearchStrategy(budget=16),
            config=EngineConfig(lookahead_window=16),
        )
        engine = cluster.engine("n0")
        driver = engine.drivers[0]
        queues = list(engine.waiting.non_empty())
        if tuned:
            Tuner(engine, TunerConfig()).install()

        def timed() -> float:
            start = time.perf_counter()
            for _ in range(iterations):
                plan = engine.strategy.make_plan(engine, driver)
                assert plan is not None
                for queue in queues:
                    _bump_version(queue)
            elapsed = time.perf_counter() - start
            return iterations / elapsed if elapsed > 0 else 0.0

        return timed

    rounds = {"general": make_round(False), "wrapper": make_round(True)}
    best = {name: 0.0 for name in rounds}
    for _ in range(repeats):
        for name, timed in rounds.items():
            best[name] = max(best[name], timed())
    return {
        f"decisions_per_sec/{name}/d{depth}": rate for name, rate in best.items()
    }


def skewed_rail_p99(
    *, count: int = 400, interval: float = 1e-4, size: int = 4096
) -> dict[str, float]:
    """p99 message latency (µs) on a skewed-rail cluster, selection on/off.

    The cluster lists a slow TCP rail *first* and a fast MX rail second,
    so the engine's in-order rail scan parks sparse traffic on TCP.
    With tail-acting selection on, the selector observes TCP's p99 blow
    the budget and reorders MX ahead of it.  p99 is measured over the
    second half of the run — the selector needs ``min_samples`` spans
    on the slow rail before it can act, and the warmup window is the
    price of learning, not the steady state being compared.
    """
    warmup = count // 2 * interval

    def one_run(selection: bool) -> float:
        tuner_spec = None
        if selection:
            tuner_spec = TunerConfig(
                rails=RailsConfig(
                    p99_budget_us=50.0, min_samples=16, refresh_every=8
                ),
            )
        cluster = Cluster(
            n_nodes=2,
            networks=[("tcp", 1), ("mx", 1)],
            engine="optimizing",
            strategy="aggregate",
            seed=11,
            observability={"sample_interval": 1e-4},
            tuner=tuner_spec,
        )
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        for i in range(count):
            cluster.sim.at(i * interval, lambda: api.send(flow, size))
        cluster.run_until_idle()
        report = cluster.report(since=warmup)
        return report.latency.p99 * 1e6

    return {
        "skewed_rail/p99_us/selection_off": one_run(False),
        "skewed_rail/p99_us/selection_on": one_run(True),
    }


def run_suite(*, quick: bool = False) -> dict[str, float]:
    """Run every tuner benchmark; returns a flat metric mapping."""
    scale = 0.25 if quick else 1.0
    metrics: dict[str, float] = {}
    metrics.update(
        decision_rates(iterations=max(int(300 * scale), 50), repeats=3 if quick else 5)
    )
    metrics.update(skewed_rail_p99(count=max(int(400 * scale), 200)))
    return metrics


def check_invariants(metrics: dict[str, float]) -> list[str]:
    """The acceptance invariants; returns human-readable violations."""
    failures: list[str] = []
    p99_off = metrics["skewed_rail/p99_us/selection_off"]
    p99_on = metrics["skewed_rail/p99_us/selection_on"]
    if not p99_on < p99_off:
        failures.append(
            f"rail selection did not lower p99: on {p99_on:,.1f}us vs "
            f"off {p99_off:,.1f}us"
        )
    return failures


def _render(metrics: dict[str, float]) -> str:
    width = max(len(k) for k in metrics)
    lines = []
    for name, value in sorted(metrics.items()):
        if "per_sec" in name:
            lines.append(f"  {name.ljust(width)}  {value:>14,.0f}/s")
        else:
            lines.append(f"  {name.ljust(width)}  {value:>12,.1f}us")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the suite, write JSON, optionally gate."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.tuner", description=__doc__
    )
    parser.add_argument(
        "--out", default=RESULT_FILE, help="result JSON path (default: %(default)s)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any tuner invariant is violated",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced iterations/counts"
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    metrics = run_suite(quick=args.quick)
    elapsed = time.perf_counter() - start
    print("== tuner benchmarks ==")
    print(_render(metrics))
    print(f"  ({elapsed:.1f}s)")

    payload = {
        "schema": 1,
        "suite": "tuner",
        "quick": args.quick,
        "metrics": metrics,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"\nresults written to {args.out}")

    if args.check:
        failures = check_invariants(metrics)
        if failures:
            print("\ntuner invariants violated:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("all tuner invariants hold")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
