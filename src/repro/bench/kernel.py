"""Kernel micro-benchmarks of the optimizer hot path.

Not a paper table: these measure the *substrate* — how fast one
scheduling decision runs, how many candidate plans the bounded search
scores per second, and how fast the waiting-list primitives are — as a
function of backlog depth.  The suite emits ``BENCH_kernel.json`` so CI
can gate on regressions against a checked-in baseline
(``benchmarks/baselines/kernel_baseline.json``).

Methodology
-----------
Every metric is a throughput (higher is better), measured as the best
of ``repeats`` timed runs (min-of-N suppresses scheduler noise).  The
decision benchmarks defeat any cross-decision caching by invalidating
the queue's version stamp between iterations (when the queue exposes
one): in a real run every decision is followed by a dispatch that
mutates the queue, so cross-decision cache hits would be unrealistic.

Usage::

    python -m repro.bench.kernel                     # print + BENCH_kernel.json
    python -m repro.bench.kernel --check             # fail on >25% regression
    python -m repro.bench.kernel --update-baseline   # refresh the baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable

from repro.core.config import EngineConfig
from repro.core.strategies.search import BoundedSearchStrategy
from repro.core.waiting import ChannelQueue
from repro.madeleine.message import Flow, Message
from repro.madeleine.submit import EntryKind, SubmitEntry
from repro.runtime.cluster import Cluster

__all__ = [
    "DEPTHS",
    "build_loaded_cluster",
    "decision_rate",
    "drain_rate",
    "queue_op_rates",
    "run_suite",
    "scored_candidates_rate",
    "tracing_overhead",
    "check_regressions",
]

#: Backlog depths the suite sweeps (entries pending per decision).
DEPTHS = (16, 64, 256, 1024)

#: Regression threshold the CI gate enforces (fraction of baseline).
MAX_REGRESSION = 0.25

#: Allowed decision-rate overhead of the disabled observability plane
#: (NullTracer, no sinks) over the bare-guard floor.
TRACE_NULL_OVERHEAD = 0.02

#: Default location of the emitted results (repository root).
RESULT_FILE = "BENCH_kernel.json"

#: Default location of the checked-in baseline.
BASELINE_FILE = "benchmarks/baselines/kernel_baseline.json"

_ENTRY_SIZE = 256  # small enough that no driver wants a rendezvous


def _data_entry(flow: Flow, size: int = _ENTRY_SIZE) -> SubmitEntry:
    message = Message(flow)
    fragment = message.add_fragment(size)
    message.mark_flushed(0.0)
    return SubmitEntry(EntryKind.DATA, flow.dst, 0.0, fragment=fragment, flow=flow)


def build_loaded_cluster(
    depth: int,
    *,
    n_flows: int = 8,
    strategy=None,
    config: EngineConfig | None = None,
) -> Cluster:
    """A 2-node cluster whose ``n0`` engine holds ``depth`` pending entries.

    Entries are enqueued directly (no pump is triggered), interleaved
    round-robin over ``n_flows`` independent flows so cross-flow
    aggregation opportunities exist at every seed.
    """
    cluster = Cluster(seed=0, strategy=strategy, config=config)
    engine = cluster.engine("n0")
    flows = [
        Flow(f"bench-f{i}", "n0", "n1") for i in range(n_flows)
    ]
    for i in range(depth):
        engine._enqueue(_data_entry(flows[i % n_flows]))
    return cluster


def _bump_version(queue) -> None:
    """Invalidate any cross-decision caches the queue may keep."""
    invalidate = getattr(queue, "invalidate_caches", None)
    if invalidate is not None:
        invalidate()


def _best_rate(work: Callable[[], int], repeats: int) -> float:
    """Operations per second: best (max) of ``repeats`` timed runs."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        n_ops = work()
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, n_ops / elapsed)
    return best


def decision_rate(
    depth: int, strategy_name: str, *, iterations: int = 200, repeats: int = 5
) -> float:
    """Scheduling decisions per second at a fixed backlog depth.

    ``strategy_name`` is ``"aggregate"`` (the greedy default) or
    ``"search"`` (bounded search, budget 64 over a 32-entry window —
    representative optimizer settings).
    """
    if strategy_name == "search":
        strategy = lambda: BoundedSearchStrategy(budget=64)  # noqa: E731
        config = EngineConfig(lookahead_window=32)
    else:
        strategy = strategy_name
        config = None
    cluster = build_loaded_cluster(depth, strategy=strategy, config=config)
    engine = cluster.engine("n0")
    driver = engine.drivers[0]
    queues = list(engine.waiting.non_empty())

    def work() -> int:
        for _ in range(iterations):
            plan = engine.strategy.make_plan(engine, driver)
            assert plan is not None
            for queue in queues:
                _bump_version(queue)
        return iterations

    return _best_rate(work, repeats)


def scored_candidates_rate(
    depth: int, *, budget: int = 256, iterations: int = 50, repeats: int = 5
) -> float:
    """Candidate plans evaluated per second by the bounded search."""
    strategy_holder: list[BoundedSearchStrategy] = []

    def factory() -> BoundedSearchStrategy:
        strategy = BoundedSearchStrategy(budget=budget)
        strategy_holder.append(strategy)
        return strategy

    cluster = build_loaded_cluster(
        depth, strategy=factory, config=EngineConfig(lookahead_window=32)
    )
    engine = cluster.engine("n0")
    driver = engine.drivers[0]
    strategy = strategy_holder[0]
    queues = list(engine.waiting.non_empty())

    counted = hasattr(strategy, "candidates_evaluated")
    if not counted:
        # Pre-refactor strategies keep no counter: count fresh score
        # calls through a transparent cost-model proxy instead.
        inner_cost = engine.cost

        class _CountingCost:
            calls = 0

            def score(self, plan, now):
                _CountingCost.calls += 1
                return inner_cost.score(plan, now)

            def __getattr__(self, name):
                return getattr(inner_cost, name)

        engine.cost = _CountingCost()

    def work() -> int:
        before = (
            strategy.candidates_evaluated if counted else engine.cost.calls
        )
        for _ in range(iterations):
            engine.strategy.make_plan(engine, driver)
            for queue in queues:
                _bump_version(queue)
        after = strategy.candidates_evaluated if counted else engine.cost.calls
        return after - before

    return _best_rate(work, repeats)


def queue_op_rates(
    depth: int, *, iterations: int = 2000, repeats: int = 5
) -> dict[str, float]:
    """Raw waiting-list primitive throughput at a fixed depth.

    ``remove`` removes (and re-appends) entries from the *middle* of the
    queue — the rendezvous-parking pattern that made ``deque.remove``
    O(n).
    """
    flow = Flow("bench-q", "n0", "n1")
    queue = ChannelQueue(0)
    entries = [_data_entry(flow) for _ in range(depth)]
    for entry in entries:
        queue.append(entry)

    rates: dict[str, float] = {}

    def query_work() -> int:
        for _ in range(iterations):
            len(queue)
            queue.pending_bytes
            queue.oldest_submit_time
            _bump_version(queue)
        return iterations * 3

    rates["query"] = _best_rate(query_work, repeats)

    def window_work() -> int:
        for _ in range(iterations):
            queue.pending(16)
            _bump_version(queue)
        return iterations

    rates["pending_window"] = _best_rate(window_work, repeats)

    middle = entries[depth // 2]

    def churn_work() -> int:
        for _ in range(iterations):
            queue.remove(middle)
            queue.append(middle)
        return iterations * 2

    rates["remove_append"] = _best_rate(churn_work, repeats)
    return rates


def drain_rate(depth: int, *, repeats: int = 5) -> float:
    """Entries fully dispatched per wall-second draining a deep backlog.

    Unlike :func:`decision_rate` this includes the whole engine cycle —
    plan, validate, consume, queue removal, wire delivery — so it is
    where O(n) queue removal shows up as O(n²) drain time.
    """

    def work() -> int:
        cluster = build_loaded_cluster(depth)
        engine = cluster.engine("n0")
        engine._kick("bench")
        cluster.run_until_idle()
        assert engine.waiting.total_pending == 0
        return depth

    return _best_rate(work, repeats)


class _InertTracer:
    """The cheapest possible tracer: one attribute, always off.

    The floor the NullTracer fast path is gated against — if ``enabled``
    ever grows back into a property (or the guard sites start doing work
    before checking it), the ``off`` rate falls measurably below this.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


def tracing_overhead(
    depth: int = 256, *, iterations: int = 100, repeats: int = 7
) -> dict[str, float]:
    """Decision-rate cost of the observability plane at one backlog depth.

    Three configurations, measured interleaved (one timed round of each
    per repeat, best-of-N per configuration) so scheduler drift hits all
    three alike:

    * ``inert`` — the engine's tracer swapped for :class:`_InertTracer`:
      the bare cost of the guard branches;
    * ``off``   — the production default: NullTracer, no sinks,
      ``enabled`` False;
    * ``full``  — an :class:`~repro.obs.plane.ObservabilityPlane` with
      a 4096-event flight recorder installed, i.e. exactly the sinks a
      traced run pays for (ring buffer, tail recorder, exemplar
      reservoir) plus the tail view on the engine: explain collection,
      score breakdowns, a ``tail_hint`` lookup and one
      ``optimizer.decide`` record per decision.

    Every loop replicates the pump's emission guard, so ``full`` pays
    for the decide record exactly as a traced run does.  Returns the
    three rates plus ``overhead_off`` (off vs inert) and
    ``overhead_full`` (full vs off) as fractions.
    """
    from repro.obs.plane import ObservabilityConfig, ObservabilityPlane

    def setup(traced: bool):
        cluster = build_loaded_cluster(
            depth,
            strategy=lambda: BoundedSearchStrategy(budget=64),
            config=EngineConfig(lookahead_window=32),
        )
        engine = cluster.engine("n0")
        if traced:
            ObservabilityPlane(ObservabilityConfig(ring_buffer=4096)).install(cluster)
        return engine

    engines = {
        "inert": setup(traced=False),
        "off": setup(traced=False),
        "full": setup(traced=True),
    }
    engines["inert"].sim.tracer = _InertTracer()  # type: ignore[assignment]

    def one_round(engine) -> float:
        driver = engine.drivers[0]
        queues = list(engine.waiting.non_empty())
        tracer = engine.sim.tracer
        start = time.perf_counter()
        for _ in range(iterations):
            plan = engine.strategy.make_plan(engine, driver)
            assert plan is not None
            if tracer.enabled:
                engine._emit_decide(plan, tracer)
            for queue in queues:
                _bump_version(queue)
        elapsed = time.perf_counter() - start
        return iterations / elapsed if elapsed > 0 else 0.0

    best = {name: 0.0 for name in engines}
    for _ in range(repeats):
        for name, engine in engines.items():
            best[name] = max(best[name], one_round(engine))

    return {
        f"inert/d{depth}": best["inert"],
        f"off/d{depth}": best["off"],
        f"full/d{depth}": best["full"],
        "overhead_off": 1.0 - best["off"] / best["inert"] if best["inert"] else 0.0,
        "overhead_full": 1.0 - best["full"] / best["off"] if best["off"] else 0.0,
    }


def run_suite(
    depths: tuple[int, ...] = DEPTHS, *, quick: bool = False
) -> dict[str, float]:
    """Run every micro-benchmark; returns a flat metric → rate mapping."""
    if quick:
        depths = tuple(d for d in depths if d <= 256)
    scale = 0.25 if quick else 1.0
    metrics: dict[str, float] = {}
    for depth in depths:
        iters = max(int(200 * scale), 20)
        metrics[f"decisions_per_sec/aggregate/d{depth}"] = decision_rate(
            depth, "aggregate", iterations=iters
        )
        metrics[f"decisions_per_sec/search/d{depth}"] = decision_rate(
            depth, "search", iterations=max(int(50 * scale), 10)
        )
        metrics[f"scored_candidates_per_sec/d{depth}"] = scored_candidates_rate(
            depth, iterations=max(int(50 * scale), 10)
        )
        for op, rate in queue_op_rates(
            depth, iterations=max(int(2000 * scale), 200)
        ).items():
            metrics[f"queue_ops_per_sec/{op}/d{depth}"] = rate
        metrics[f"drain_entries_per_sec/d{depth}"] = drain_rate(depth)
    return metrics


def check_regressions(
    metrics: dict[str, float],
    baseline: dict[str, float],
    *,
    max_regression: float = MAX_REGRESSION,
) -> list[str]:
    """Metrics slower than ``baseline * (1 - max_regression)``.

    Baseline metrics missing from ``metrics`` fail too (a silently
    dropped benchmark must not pass the gate); new metrics with no
    baseline are ignored.
    """
    failures = []
    for name, reference in sorted(baseline.items()):
        current = metrics.get(name)
        if current is None:
            failures.append(f"{name}: missing from current results")
        elif current < reference * (1.0 - max_regression):
            failures.append(
                f"{name}: {current:.0f}/s is {current / reference:.2f}x the "
                f"baseline {reference:.0f}/s (floor {1.0 - max_regression:.2f}x)"
            )
    return failures


def _render(metrics: dict[str, float]) -> str:
    width = max(len(k) for k in metrics)
    return "\n".join(
        f"  {name.ljust(width)}  {rate:>14,.0f}/s" for name, rate in sorted(metrics.items())
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the suite, write JSON, optionally gate."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.kernel", description=__doc__
    )
    parser.add_argument(
        "--out", default=RESULT_FILE, help="result JSON path (default: %(default)s)"
    )
    parser.add_argument(
        "--baseline",
        default=BASELINE_FILE,
        help="checked-in baseline JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        # argparse %-expands help strings, so spell the percent sign %%.
        help=f"exit 1 on >{MAX_REGRESSION * 100:.0f}%% regression vs the baseline",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=MAX_REGRESSION,
        help="allowed fractional slowdown for --check (default: %(default)s)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file with this run's results",
    )
    parser.add_argument("--quick", action="store_true", help="reduced depths/iterations")
    parser.add_argument(
        "--trace-gate",
        action="store_true",
        help=(
            f"measure observability overhead and exit 1 when the disabled "
            f"plane costs >{TRACE_NULL_OVERHEAD * 100:.0f}%% decision rate "
            f"(the cost of full tracing is printed, and gated end to end by "
            f"the sim_traced workload of benchmarks/e2e)"
        ),
    )
    args = parser.parse_args(argv)

    if args.trace_gate:
        rates = tracing_overhead(iterations=40 if args.quick else 100)
        print("== observability overhead (search decisions/s, d256, best-of-N) ==")
        for name, value in rates.items():
            if name.startswith("overhead"):
                print(f"  {name:<16} {value:8.2%}")
            else:
                print(f"  {name:<16} {value:12,.0f}/s")
        if rates["overhead_off"] > TRACE_NULL_OVERHEAD:
            print(
                f"\ntracing overhead gate failed: disabled plane costs "
                f"{rates['overhead_off']:.2%} decision rate "
                f"(gate {TRACE_NULL_OVERHEAD:.0%})",
                file=sys.stderr,
            )
            return 1
        print(f"within gate (off <= {TRACE_NULL_OVERHEAD:.0%}; full is reported, not gated)")
        return 0

    metrics = run_suite(quick=args.quick)
    print("== kernel micro-benchmarks (ops per wall-second, best of 3) ==")
    print(_render(metrics))

    payload = {
        "schema": 1,
        "suite": "kernel",
        "quick": args.quick,
        "metrics": metrics,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"\nresults written to {args.out}")

    if args.update_baseline:
        baseline_path = Path(args.baseline)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"baseline updated at {args.baseline}")

    if args.check:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"no baseline at {args.baseline}; nothing to check", file=sys.stderr)
            return 1
        baseline = json.loads(baseline_path.read_text())["metrics"]
        failures = check_regressions(
            metrics, baseline, max_regression=args.max_regression
        )
        if failures:
            print("\nperformance regressions detected:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.baseline} (floor {1 - args.max_regression:.2f}x)")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
