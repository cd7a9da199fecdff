"""End-to-end tests: real peer processes over a loopback socket mesh.

These spawn OS processes (the same path ``python -m repro live run``
takes), so counts are small and every run carries a hard wall-clock
timeout — a hung mesh fails the test rather than the suite.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.live import run_live_scenario
from repro.runtime.metrics import SessionReport
from repro.util.errors import ConfigurationError

_TIMEOUT = 30.0


def _scenario(workloads):
    return {
        "name": "live-test",
        "cluster": {
            "n_nodes": 2,
            "networks": [["mx", 1]],
            "engine": "optimizing",
            "strategy": "aggregate",
            "seed": 0,
        },
        "workloads": workloads,
    }


class TestValidation:
    def test_bad_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            run_live_scenario(_scenario([]), transport="carrier-pigeon")

    def test_single_node_rejected(self):
        scenario = _scenario([])
        scenario["cluster"]["n_nodes"] = 1
        with pytest.raises(ConfigurationError):
            run_live_scenario(scenario)

    def test_bad_faults_block_rejected(self):
        # Live runs accept "faults" (chaos), but the block is parsed
        # before any peer is spawned: sim-only and unknown keys fail
        # fast at the coordinator.
        scenario = _scenario([])
        scenario["faults"] = {"per_nic": {"n0.mx00": {"drop": 0.1}}}
        with pytest.raises(ConfigurationError):
            run_live_scenario(scenario)
        scenario["faults"] = {"dropp": 0.1}
        with pytest.raises(ConfigurationError):
            run_live_scenario(scenario)

    def test_die_rank_out_of_range_rejected(self):
        scenario = _scenario([])
        scenario["faults"] = {"die": {"rank": 9, "after": 0.1}}
        with pytest.raises(ConfigurationError):
            run_live_scenario(scenario)


class TestFailsBeforeFork:
    """A scenario the simulator rejects is rejected by the coordinator,
    in the simulator's words, before any peer process exists."""

    @pytest.mark.parametrize(
        "cluster_patch",
        [
            {"n_nodez": 3},
            {"policy": "round-robin"},
            {"config": {"lookahead_windw": 4}},
            {"networks": [["mx", 0]]},
        ],
        ids=["unknown-cluster-key", "unknown-policy", "bad-config-field", "zero-nics"],
    )
    def test_bad_cluster_block(self, cluster_patch, monkeypatch):
        from repro.runtime.scenario import build_scenario

        scenario = _scenario(
            [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 64, "count": 1}]
        )
        scenario["cluster"].update(cluster_patch)
        with pytest.raises(ConfigurationError) as from_sim:
            build_scenario(scenario)

        def no_spawn(*args, **kwargs):
            pytest.fail("a peer was spawned for a scenario that cannot be built")

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        with pytest.raises(ConfigurationError) as from_live:
            run_live_scenario(scenario, timeout=_TIMEOUT)
        assert str(from_live.value) == str(from_sim.value)

    @pytest.mark.parametrize(
        "tuner, trace, match",
        [
            ({"sweeps": {}}, True, "unknown tuner key 'sweeps'"),
            ({"rails": {}}, False, "observability.trace"),
        ],
        ids=["unknown-tuner-key", "rails-without-recorded-tails"],
    )
    def test_bad_tuner_block(self, tuner, trace, match, monkeypatch):
        scenario = _scenario(
            [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 64, "count": 1}]
        )
        scenario["tuner"] = tuner

        def no_spawn(*args, **kwargs):
            pytest.fail("a peer was spawned for a tuner block that cannot install")

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        with pytest.raises(ConfigurationError, match=match):
            run_live_scenario(scenario, trace=trace, timeout=_TIMEOUT)


class TestPingPong:
    def test_uds_roundtrips_byte_identical(self):
        result = run_live_scenario(
            _scenario(
                [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 64, "count": 5}]
            ),
            timeout=_TIMEOUT,
        )
        report = result.report
        assert isinstance(report, SessionReport)
        assert report.messages == 10  # 5 pings + 5 pongs
        # Each app message is payload + a 16-byte express header.
        assert report.total_bytes == 10 * (64 + 16)
        assert result.bytes_verified == report.total_bytes
        assert result.corrupt_slices == 0
        assert len(result.rtts) == 5
        assert all(rtt > 0 for rtt in result.rtts)
        # Receiver-side records: pings complete at n1, pongs at n0.
        assert {r.dst for r in result.records} == {"n0", "n1"}
        assert all(r.complete_time >= r.submit_time for r in result.records)

    def test_tcp_transport(self):
        result = run_live_scenario(
            _scenario(
                [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 32, "count": 3}]
            ),
            transport="tcp",
            timeout=_TIMEOUT,
        )
        assert result.report.messages == 6
        assert result.corrupt_slices == 0
        assert result.bytes_verified == result.report.total_bytes


class TestHolds:
    def test_auto_strategy_holds_on_the_live_clock(self):
        """``auto`` over a quiet socket holds every small message for its
        Nagle delay (the benchmark's live workloads use ``aggregate`` and
        never reach a Hold).  The clock is stretched so the 6 us delay is
        30 ms of wall time: the stream's burst lands under the ping's
        armed hold and is answered from it, so n0 counts more holds than
        its hold timer fired.  The run returning at all means no timer
        was left armed — a peer is not ``quiet`` while
        ``engine.hold_timer_armed`` or ``clock.pending_timers``."""
        scenario = _scenario(
            [
                {"app": "pingpong", "src": "n0", "dst": "n1", "size": 64, "count": 8},
                {"app": "stream", "src": "n0", "dst": "n1", "size": 32, "count": 6,
                 "interval": 0.0},
            ]
        )
        scenario["cluster"]["strategy"] = "auto"
        result = run_live_scenario(scenario, time_scale=5000.0, timeout=_TIMEOUT)
        report = result.report
        assert report.messages == 16 + 6
        assert result.bytes_verified == report.total_bytes
        assert result.corrupt_slices == 0
        engines = {p["node"]: p["engine"] for p in result.peer_reports}
        assert engines["n1"]["holds"] > 0
        assert engines["n0"]["holds"] > engines["n0"]["activations"]["nagle"] > 0


class TestAggregation:
    def test_multiflow_coalesces(self):
        result = run_live_scenario(
            _scenario(
                [
                    {"app": "stream", "src": "n0", "dst": "n1", "size": size,
                     "count": 10, "interval": 0.0}
                    for size in (512, 256, 128)
                ]
            ),
            timeout=_TIMEOUT,
        )
        report = result.report
        assert report.messages == 30
        # payload + 16-byte express header per message
        assert report.total_bytes == 10 * (512 + 256 + 128 + 3 * 16)
        assert result.bytes_verified == report.total_bytes
        assert result.corrupt_slices == 0
        # The point of the whole exercise: backlog accumulated while the
        # socket drained, and the unmodified engine coalesced it.
        assert report.aggregation_ratio > 1.0
        assert report.data_packets < 30

    def test_trace_carries_decisions(self):
        result = run_live_scenario(
            _scenario(
                [{"app": "stream", "src": "n0", "dst": "n1", "size": 256,
                  "count": 5, "interval": 0.0}]
            ),
            trace=True,
            timeout=_TIMEOUT,
        )
        kinds = {e["kind"] for e in result.trace_events}
        assert "nic.send" in kinds
        assert "nic.idle" in kinds
        times = [e["time"] for e in result.trace_events]
        assert times == sorted(times)


_GROUP = ["n0", "n1", "n2", "n3"]
#: Also what the CI ``live-smoke`` job feeds ``python -m repro live run``.
_COLLECTIVES = [
    {"app": "barrier", "nodes": _GROUP, "rounds": 5},
    {"app": "allreduce", "nodes": _GROUP, "size": 2048, "rounds": 3},
    {"app": "halo", "nodes": _GROUP, "halo_size": 1024, "iterations": 4},
    {"app": "broadcast", "nodes": _GROUP, "size": 4096, "rounds": 3},
]


class TestCollectives:
    def test_four_peer_collectives_byte_verified(self):
        """Every pair's flow is opened on every peer at START, so a
        collective's first frame always finds its flow — whichever rank
        sends first, and although no peer runs another rank's process."""
        scenario = _scenario(_COLLECTIVES)
        scenario["cluster"]["n_nodes"] = 4
        result = run_live_scenario(scenario, timeout=_TIMEOUT)
        delivered = Counter(r.flow_name.split(".")[0] for r in result.records)
        assert delivered == {
            "BarrierApp0": 40,  # 4 ranks x 2 steps x 5 rounds
            "AllReduceApp1": 24,  # 4 ranks x 2 steps x 3 rounds
            "HaloExchangeApp2": 32,  # 4 ranks x 2 neighbours x 4 iterations
            "BroadcastApp3": 18,  # (3 payloads + 3 acks) x 3 rounds
        }
        assert result.corrupt_slices == 0
        assert result.bytes_verified == result.report.total_bytes
        # Four receivers, one id space: a message is named by its flow
        # and sequence number, the same on its sender and its receiver.
        assert len({r.message_id for r in result.records}) == len(result.records)

    def test_peer_hosting_neither_endpoint_installs_cleanly(self):
        scenario = _scenario(
            [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 64, "count": 3}]
        )
        scenario["cluster"]["n_nodes"] = 3  # n2 builds the flows, runs nothing
        result = run_live_scenario(scenario, timeout=_TIMEOUT)
        assert result.report.messages == 6
        assert len(result.rtts) == 3
        assert {r.dst for r in result.records} == {"n0", "n1"}
        assert result.corrupt_slices == 0


class TestCli:
    def test_live_run_json(self, tmp_path):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(
            json.dumps(
                _scenario(
                    [{"app": "pingpong", "src": "n0", "dst": "n1",
                      "size": 64, "count": 3}]
                )
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "live", "run", str(scenario_path),
             "--json", "--timeout", "30"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        payload = json.loads(proc.stdout)
        assert payload["scenario"] == "live-test"
        assert payload["report"]["messages"] == 6
        assert payload["bytes_verified"] == payload["report"]["total_bytes"]
        assert payload["corrupt_slices"] == 0
        assert payload["rtt_samples"] == 3
        # Tail telemetry rides the payload; no tracing means the tail
        # families exist but stay empty.
        assert payload["tails"]["edges"] == {}
        assert payload["tails"]["rails"] == {}
        assert payload["report"]["latency_p99_us"] is None
