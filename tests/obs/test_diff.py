"""Tests for ``repro obs diff``: declared directions, gating, the gates
file, file loading."""

from __future__ import annotations

import argparse
import json
import sys
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from repro.obs import diff
from repro.obs.analyze import SUMMARY_BETTER, analyze_file, summary_metrics
from repro.obs.diff import (
    DEFAULT_THRESHOLD,
    check_gates,
    compare,
    declared,
    load_comparable,
    main,
)
from repro.obs.export import write_trace
from repro.runtime.scenario import load_scenario_file, run_scenario
from repro.util.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
GATES = json.loads((ROOT / "benchmarks" / "gates.json").read_text())["gates"]
RUNNING = "%d.%d" % sys.version_info[:2]


def _verdicts(key: str) -> tuple[bool, bool]:
    """Whether doubling, and whether halving, ``key`` is a regression,
    under the declarations it is read with (trace keys have a ``/``)."""
    rules = declared("trace" if "/" in key else "bench")
    (up,) = compare({key: 1.0}, {key: 2.0}, rules)
    (down,) = compare({key: 1.0}, {key: 0.5}, rules)
    return up.regressed, down.regressed


class TestDirection:
    @pytest.mark.parametrize(
        "key",
        [
            "edge/n0->n1/latency_p90_us",
            "retransmit/storms",
            "crossings/clamped",
            "decide/miss_fraction",
            "hold/starved_samples",
            "py_ops_per_msg",
            "core.decide.calls_per_msg",
            "obs.ops_per_event",
        ],
    )
    def test_higher_is_worse(self, key):
        assert _verdicts(key) == (True, False)

    @pytest.mark.parametrize("key", ["msgs_per_s", "live.mb_per_s"])
    def test_lower_is_worse(self, key):
        assert _verdicts(key) == (False, True)

    def test_unclassifiable_is_neutral(self):
        assert SUMMARY_BETTER["backlog/*"] is None
        assert _verdicts("backlog/peak") == (False, False)

    def test_every_benchmark_metric_gets_its_better(self):
        rules = declared("bench")
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            name, better = metric["name"], metric["better"]
            assert rules[name] == (better, metric.get("bound")), name
            assert _verdicts(name) == (better == "lower", better == "higher"), name
            assert compare({name: 1.0}, {name: 1.0}, rules)[0].rule == better

    def test_every_summary_key_is_declared(self, tmp_path):
        """Sampled, faulty and truncated traces emit every key kind; each
        key matches a declaration and every declaration matches a key."""
        keys = set()
        for name, observability in (
            ("scenario_mixed", {"trace": True, "sample_interval": 2e-5}),
            ("scenario_faulty", {"trace": True}),
            ("scenario_mixed", {"trace": True, "ring_buffer": 2000}),
        ):
            scenario = load_scenario_file(ROOT / "examples" / f"{name}.json")
            scenario["observability"] = observability
            _, cluster, _ = run_scenario(scenario)
            cluster.obs.write_trace(tmp_path / "trace.jsonl")
            keys |= set(summary_metrics(analyze_file(tmp_path / "trace.jsonl")))
        assert "trace/dropped" in keys and "backlog/peak" in keys
        for key in keys:
            assert any(fnmatchcase(key, glob) for glob in SUMMARY_BETTER), key
        for glob in SUMMARY_BETTER:
            assert any(fnmatchcase(key, glob) for key in keys), glob

    def test_undeclared_bench_key_is_reported_not_gated(self):
        key = "aggregation/ratio"
        (entry,) = compare({key: 3.0}, {key: 0.1}, declared("bench"))
        assert entry.rule == "ungated"
        assert not entry.regressed


class TestCompare:
    def test_no_change_no_regressions(self):
        base = {"py_ops_per_msg": 10.0, "core.agg_ratio": 2.0}
        assert not any(e.regressed for e in compare(base, dict(base), declared("bench")))

    def test_latency_regression_beyond_threshold(self):
        key = "edge/n0->n1/latency_p50_us"
        (entry,) = compare({key: 10.0}, {key: 13.0}, declared("trace"))
        assert entry.regressed  # +30% > default 20%

    def test_latency_within_threshold_passes(self):
        key = "edge/n0->n1/latency_p50_us"
        (entry,) = compare({key: 10.0}, {key: 11.0}, declared("trace"))
        assert not entry.regressed

    def test_throughput_drop_regresses(self):
        (entry,) = compare({"live.mb_per_s": 100.0}, {"live.mb_per_s": 50.0}, declared("bench"))
        assert entry.regressed

    def test_throughput_gain_passes(self):
        (entry,) = compare({"live.mb_per_s": 100.0}, {"live.mb_per_s": 200.0}, declared("bench"))
        assert not entry.regressed

    def test_neutral_keys_never_gate(self):
        (entry,) = compare({"backlog/peak": 1.0}, {"backlog/peak": 1000.0}, declared("trace"))
        assert not entry.regressed

    def test_zero_baseline_higher_worse_any_positive_fails(self):
        key = "retransmit/events"
        (entry,) = compare({key: 0.0}, {key: 1.0}, declared("trace"))
        assert entry.regressed
        assert entry.note == "was zero"

    def test_missing_key_is_structural_regression(self):
        entries = compare(
            {"crossings/total": 1.0, "backlog/peak": 2.0}, {"backlog/peak": 2.0}, declared("trace")
        )
        missing = [e for e in entries if e.key == "crossings/total"]
        assert missing[0].regressed
        assert missing[0].note == "missing from candidate"

    def test_new_key_is_not_a_regression(self):
        (entry,) = compare({}, {"crossings/total": 5.0}, declared("trace"))
        assert not entry.regressed

    def test_ignore_globs(self):
        entries = compare(
            {"rtt_p50_us": 10.0, "core.agg_ratio": 2.0},
            {"rtt_p50_us": 99.0, "core.agg_ratio": 2.0},
            declared("bench"),
            ignore=("*_us",),
        )
        assert [e.key for e in entries] == ["core.agg_ratio"]

    def test_regressions_sort_first(self):
        entries = compare(
            {"py_ops_per_msg": 10.0, "sim.ops_per_msg": 5.0, "core.agg_ratio": 2.0},
            {"py_ops_per_msg": 10.0, "sim.ops_per_msg": 5.0, "core.agg_ratio": 0.5},
            declared("bench"),
        )
        assert entries[0].key == "core.agg_ratio"
        assert entries[0].regressed

    def test_threshold_default(self):
        assert DEFAULT_THRESHOLD == 0.2

    @pytest.mark.parametrize("rate, regressed", [(76.0, False), (74.0, True)])
    def test_declared_bound_replaces_the_threshold(self, rate, regressed):
        """``msgs_per_s`` is bounded at 25 %: a 24 % drop passes although
        the threshold is 20 %, a 26 % drop fails."""
        (entry,) = compare({"msgs_per_s": 100.0}, {"msgs_per_s": rate}, declared("bench"))
        assert entry.regressed is regressed


def _bench_file(tmp_path, name, metrics):
    path = tmp_path / name
    path.write_text(
        json.dumps({"schema": 1, "suite": "live", "quick": True,
                    "transport": "uds", "metrics": metrics})
    )
    return path


class TestLoadComparable:
    def test_bench_json(self, tmp_path):
        path = _bench_file(tmp_path, "result.json", {"a/ratio": 2.0})
        kind, metrics = load_comparable(path)
        assert kind == "bench"
        assert metrics == {"a/ratio": 2.0}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_comparable(tmp_path / "nope.json")

    def test_trace_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"time": 0.0, "source": "nic:n0.mx00", "kind": "nic.idle", "detail": {}})
            + "\n"
        )
        kind, metrics = load_comparable(path)
        assert kind == "trace"
        assert metrics["trace/events"] == 1.0

    def test_gates_file_by_its_shape(self):
        kind, rows = load_comparable(ROOT / "benchmarks" / "gates.json")
        assert kind == "gates"
        assert rows == GATES


def _args(baseline, candidate, *, check=False, threshold=None, ignore=()):
    return argparse.Namespace(
        baseline=str(baseline), candidate=str(candidate), check=check,
        threshold=threshold, ignore=list(ignore),
    )


def _ledger_output(tmp_path, name, msgs_per_s, peak_rss_mb=41.3):
    """Saved stdout of ``benchmarks/e2e/run.py --workload sim_mixed
    --smoke``: the printed table, then the result object on the last line."""
    result = {
        "correct": True,
        "attempted": 1664,
        "failed": 0,
        "metrics": {
            "msgs_per_s": {"value": msgs_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "py_ops_per_msg": {"value": 8358.28, "unit": "count"},
            "sim_latency_us": {"value": 241.967708, "unit": "us"},
            "core.agg_ratio": {"value": 2.819583, "unit": "count"},
        },
    }
    path = tmp_path / name
    path.write_text(
        "== sim_mixed  seed=2006  trace=0  attempted=1664 failed=0\n"
        f"msgs_per_s {msgs_per_s:>16.6f} 1/s\n"
        "gate delivered                    ok \n"
        + json.dumps(result)
        + "\n"
    )
    return path


class TestMain:
    @pytest.mark.parametrize("cand_rate, exit_code", [(10900.0, 0), (5450.0, 1)])
    def test_ledger_result_line_is_gated(self, tmp_path, capsys, cand_rate, exit_code):
        base = _ledger_output(tmp_path, "base.json", 10900.0)
        cand = _ledger_output(tmp_path, "cand.json", cand_rate)
        assert load_comparable(base)[1]["sim_latency_us"] == 241.967708
        assert main(_args(base, cand, check=True)) == exit_code
        assert f"{exit_code} regression(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("rise, exit_code", [(1.11, 1), (1.09, 0)])
    def test_peak_rss_is_gated_by_its_declared_bound(self, tmp_path, rise, exit_code):
        """BENCHMARK.json bounds ``peak_rss_mb`` at 10 %, below the 20 %
        threshold: an 11 % rise fails, a 9 % one passes."""
        base = _ledger_output(tmp_path, "base.json", 10900.0, peak_rss_mb=40.0)
        cand = _ledger_output(tmp_path, "cand.json", 10900.0, peak_rss_mb=40.0 * rise)
        assert main(_args(base, cand, check=True)) == exit_code

    def test_missing_benchmark_json_exits_2(self, tmp_path, capsys, monkeypatch):
        missing = tmp_path / "BENCHMARK.json"
        monkeypatch.setattr(diff, "BENCHMARK", missing)
        base = _ledger_output(tmp_path, "base.json", 10900.0)
        assert main(_args(base, base, check=True)) == 2
        assert str(missing) in capsys.readouterr().out

    def test_injected_regression_fails_check(self, tmp_path, capsys):
        base = _bench_file(tmp_path, "base.json", {"rtt_p50_us": 100.0, "core.agg_ratio": 3.0})
        cand = _bench_file(tmp_path, "cand.json", {"rtt_p50_us": 100.0, "core.agg_ratio": 1.1})
        assert main(_args(base, cand, check=True)) == 1
        out = capsys.readouterr().out
        assert "core.agg_ratio" in out
        assert "1 regression(s)" in out

    def test_clean_diff_passes_check(self, tmp_path):
        base = _bench_file(tmp_path, "base.json", {"core.agg_ratio": 3.0})
        cand = _bench_file(tmp_path, "cand.json", {"core.agg_ratio": 3.1})
        assert main(_args(base, cand, check=True)) == 0

    def test_regression_without_check_reports_but_passes(self, tmp_path):
        base = _bench_file(tmp_path, "base.json", {"core.agg_ratio": 3.0})
        cand = _bench_file(tmp_path, "cand.json", {"core.agg_ratio": 0.5})
        assert main(_args(base, cand, check=False)) == 0

    def test_ignored_regression_passes(self, tmp_path):
        base = _bench_file(tmp_path, "base.json", {"rtt_p50_us": 10.0})
        cand = _bench_file(tmp_path, "cand.json", {"rtt_p50_us": 50.0})
        assert main(_args(base, cand, check=True, ignore=["*_us"])) == 0

    def test_load_error_exits_2(self, tmp_path):
        base = _bench_file(tmp_path, "base.json", {})
        assert main(_args(base, tmp_path / "missing.json", check=True)) == 2

    def test_chrome_trace_exits_2(self, tmp_path, capsys):
        """A Chrome trace is a write-only export: diff its ``.jsonl``."""
        chrome = tmp_path / "trace.json"
        write_trace(chrome, [(0.0, "nic:n0.mx00", "nic.idle")])
        assert main(_args(chrome, chrome, check=True)) == 2
        assert "write the trace as .jsonl" in capsys.readouterr().out

    def test_custom_threshold(self, tmp_path):
        base = _bench_file(tmp_path, "base.json", {"py_ops_per_msg": 100.0})
        cand = _bench_file(tmp_path, "cand.json", {"py_ops_per_msg": 130.0})
        assert main(_args(base, cand, check=True, threshold=0.5)) == 0
        assert main(_args(base, cand, check=True, threshold=0.1)) == 1


def _results(directory: Path, row: dict, value: float) -> Path:
    """Saved results from which ``row`` reads ``value``: a glob metric is
    split over two matching names beside a large one that does not
    match, a difference is taken from an offset pair."""
    directory.mkdir(exist_ok=True)
    metric = row["metric"]
    if "*" in metric:
        half = value / 2
        metrics = {metric.replace("*", "a"): half, metric.replace("*", "b"): half, "x": 1e9}
    else:
        metrics = {metric: value + 1000.0 if "minus" in row else value}
    if "minus" in row:
        _bench_file(directory, f"{row['minus']}.json", {metric: 1000.0})
    _bench_file(directory, f"{row['workload']}.json", metrics)
    return directory


def _row_id(row: dict) -> str:
    minus = f"-{row['minus']}" if "minus" in row else ""
    return f"{row['workload']}{minus}/{row['metric']}"


def _past(row: dict, python: str) -> list[float]:
    """Values just beyond what ``row`` allows."""
    if row["kind"] == "exact":
        value = row["value"][python]
        return [value + 1e-6, value - 1e-6]
    return [row["limit"][python] * (1 + 1e-6) + 1e-9]


class TestGates:
    def test_every_bench_smoke_gate_is_one_row(self):
        assert len(GATES) == 21
        assert [row["kind"] for row in GATES].count("exact") == 12
        assert len({_row_id(row) for row in GATES}) == 21
        for row in GATES:
            assert row["kind"] in ("exact", "ceiling") and row["why"], row
            assert set(row) <= {"workload", "minus", "metric", "kind", "value", "limit", "why"}
            assert ("limit" in row) == (row["kind"] == "ceiling"), row

    @pytest.mark.parametrize("row", GATES, ids=_row_id)
    def test_measured_value_passes(self, row, tmp_path):
        for python, value in row["value"].items():
            results = _results(tmp_path / python, row, value)
            (entry,) = check_gates([row], results, python)
            assert not entry.regressed, entry

    @pytest.mark.parametrize("row", GATES, ids=_row_id)
    def test_just_past_the_limit_fails(self, row, tmp_path):
        for python in row["value"]:
            for past in _past(row, python):
                results = _results(tmp_path / f"{python}-{past}", row, past)
                (entry,) = check_gates([row], results, python)
                assert entry.regressed and entry.note == row["why"], entry

    @pytest.mark.parametrize("row", GATES, ids=_row_id)
    def test_missing_interpreter_fails_naming_it(self, row, tmp_path):
        (python, value), *_ = row["value"].items()
        results = _results(tmp_path, row, value)
        (entry,) = check_gates([row], results, "3.99")
        assert entry.regressed
        assert entry.note == "no value for Python 3.99"

    def test_ceiling_needs_a_positive_result(self, tmp_path):
        row = next(row for row in GATES if row["kind"] == "ceiling")
        (python, _), *_ = row["value"].items()
        (entry,) = check_gates([row], _results(tmp_path, row, 0.0), python)
        assert entry.regressed

    def test_missing_result_fails(self, tmp_path):
        (entry,) = check_gates(GATES[:1], tmp_path, "3.11")
        assert entry.regressed
        assert entry.note.startswith("no result")

    def test_main_reads_a_results_directory(self, tmp_path, capsys):
        row = {"workload": "w", "metric": "m", "kind": "ceiling", "value": {RUNNING: 1.0},
               "limit": {RUNNING: 2.0}, "why": "m grew"}
        gates = tmp_path / "gates.json"
        gates.write_text(json.dumps({"gates": [row]}))
        passing = _results(tmp_path / "pass", row, 1.5)
        failing = _results(tmp_path / "fail", row, 2.5)
        assert main(_args(gates, passing, check=True)) == 0
        assert main(_args(gates, failing, check=True)) == 1
        assert "(m grew)" in capsys.readouterr().out
        assert main(_args(gates, gates, check=True)) == 2
