"""Tests for ``repro obs diff``: direction rules, gating, file loading."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.obs.diff import (
    DEFAULT_THRESHOLD,
    compare,
    direction_of,
    load_comparable,
    main,
)
from repro.util.errors import ConfigurationError


class TestDirection:
    @pytest.mark.parametrize(
        "key",
        [
            "pingpong/rtt_mean_us",
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
        assert direction_of(key) == "higher-is-worse"

    @pytest.mark.parametrize(
        "key",
        [
            "aggregation/ratio",
            "aggregation/throughput_MBps",
            "pingpong/bytes_verified",
            "traced/flow_crossings",
            "msgs_per_s",
            "live.mb_per_s",
        ],
    )
    def test_lower_is_worse(self, key):
        assert direction_of(key) == "lower-is-worse"

    def test_unclassifiable_is_neutral(self):
        assert direction_of("backlog/peak") == "neutral"


class TestCompare:
    def test_no_change_no_regressions(self):
        base = {"a/latency_us": 10.0, "b/ratio": 2.0}
        assert not any(e.regressed for e in compare(base, dict(base)))

    def test_latency_regression_beyond_threshold(self):
        entries = compare({"a/latency_us": 10.0}, {"a/latency_us": 13.0})
        assert entries[0].regressed  # +30% > default 20%

    def test_latency_within_threshold_passes(self):
        entries = compare({"a/latency_us": 10.0}, {"a/latency_us": 11.0})
        assert not entries[0].regressed

    def test_throughput_drop_regresses(self):
        entries = compare({"x/throughput": 100.0}, {"x/throughput": 50.0})
        assert entries[0].regressed

    def test_throughput_gain_passes(self):
        entries = compare({"x/throughput": 100.0}, {"x/throughput": 200.0})
        assert not entries[0].regressed

    def test_neutral_keys_never_gate(self):
        entries = compare({"backlog/peak": 1.0}, {"backlog/peak": 1000.0})
        assert not entries[0].regressed

    def test_zero_baseline_higher_worse_any_positive_fails(self):
        entries = compare({"r/corrupt_slices": 0.0}, {"r/corrupt_slices": 1.0})
        assert entries[0].regressed
        assert entries[0].note == "was zero"

    def test_missing_key_is_structural_regression(self):
        entries = compare({"a/latency_us": 1.0, "backlog/peak": 2.0}, {"backlog/peak": 2.0})
        missing = [e for e in entries if e.key == "a/latency_us"]
        assert missing[0].regressed
        assert missing[0].note == "missing from candidate"

    def test_new_key_is_not_a_regression(self):
        entries = compare({}, {"a/latency_us": 5.0})
        assert not entries[0].regressed

    def test_ignore_globs(self):
        entries = compare(
            {"a/latency_us": 10.0, "b/ratio": 2.0},
            {"a/latency_us": 99.0, "b/ratio": 2.0},
            ignore=("*_us",),
        )
        assert [e.key for e in entries] == ["b/ratio"]

    def test_regressions_sort_first(self):
        entries = compare(
            {"a/latency_us": 10.0, "z/ratio": 2.0},
            {"a/latency_us": 10.0, "z/ratio": 0.5},
        )
        assert entries[0].key == "z/ratio"
        assert entries[0].regressed

    def test_threshold_default(self):
        assert DEFAULT_THRESHOLD == 0.2


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


def _args(baseline, candidate, *, check=False, threshold=None, ignore=()):
    return argparse.Namespace(
        baseline=str(baseline), candidate=str(candidate), check=check,
        threshold=threshold, ignore=list(ignore),
    )


def _ledger_output(tmp_path, name, msgs_per_s):
    """Saved stdout of ``benchmarks/e2e/run.py --workload sim_mixed
    --smoke``: the printed table, then the result object on the last line."""
    result = {
        "correct": True,
        "attempted": 1664,
        "failed": 0,
        "metrics": {
            "msgs_per_s": {"value": msgs_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": 41.3, "unit": "MB"},
            "py_ops_per_msg": {"value": 8358.28, "unit": "count"},
            "sim_latency_us": {"value": 235.037918, "unit": "us"},
            "core.agg_ratio": {"value": 2.730298, "unit": "count"},
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
        assert load_comparable(base)[1]["sim_latency_us"] == 235.037918
        assert main(_args(base, cand, check=True)) == exit_code
        assert f"{exit_code} regression(s)" in capsys.readouterr().out

    def test_injected_regression_fails_check(self, tmp_path, capsys):
        base = _bench_file(
            tmp_path, "base.json",
            {"pingpong/rtt_mean_us": 100.0, "aggregation/ratio": 3.0},
        )
        cand = _bench_file(
            tmp_path, "cand.json",
            {"pingpong/rtt_mean_us": 100.0, "aggregation/ratio": 1.1},
        )
        assert main(_args(base, cand, check=True)) == 1
        out = capsys.readouterr().out
        assert "aggregation/ratio" in out
        assert "1 regression(s)" in out

    def test_clean_diff_passes_check(self, tmp_path):
        base = _bench_file(tmp_path, "base.json", {"aggregation/ratio": 3.0})
        cand = _bench_file(tmp_path, "cand.json", {"aggregation/ratio": 3.1})
        assert main(_args(base, cand, check=True)) == 0

    def test_regression_without_check_reports_but_passes(self, tmp_path):
        base = _bench_file(tmp_path, "base.json", {"aggregation/ratio": 3.0})
        cand = _bench_file(tmp_path, "cand.json", {"aggregation/ratio": 0.5})
        assert main(_args(base, cand, check=False)) == 0

    def test_ignored_regression_passes(self, tmp_path):
        base = _bench_file(tmp_path, "base.json", {"pingpong/rtt_mean_us": 10.0})
        cand = _bench_file(tmp_path, "cand.json", {"pingpong/rtt_mean_us": 50.0})
        assert main(_args(base, cand, check=True, ignore=["*_us"])) == 0

    def test_load_error_exits_2(self, tmp_path):
        base = _bench_file(tmp_path, "base.json", {})
        assert main(_args(base, tmp_path / "missing.json", check=True)) == 2

    def test_custom_threshold(self, tmp_path):
        base = _bench_file(tmp_path, "base.json", {"a/latency_us": 100.0})
        cand = _bench_file(tmp_path, "cand.json", {"a/latency_us": 130.0})
        assert main(_args(base, cand, check=True, threshold=0.5)) == 0
        assert main(_args(base, cand, check=True, threshold=0.1)) == 1
