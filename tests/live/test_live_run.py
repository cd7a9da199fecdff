"""End-to-end tests: real peer processes over a loopback socket mesh.

These spawn OS processes (the same path ``python -m repro live run``
takes), so counts are small and every run carries a hard wall-clock
timeout — a hung mesh fails the test rather than the suite.
"""

import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

from repro.live import cluster as live_cluster
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


def _cluster(**patch):
    """The test scenario's cluster block with ``patch`` applied."""
    return {**_scenario([])["cluster"], **patch}


def _stream(**patch):
    """A one-message stream workload list with ``patch`` applied."""
    return [{"app": "stream", "src": "n0", "dst": "n1", "count": 1, **patch}]


def _slo(**patch):
    """An observability block with one SLO objective, ``patch`` applied."""
    return {"slo": [{"edge": "*", "threshold_us": 5000, **patch}]}


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
            ({"rails": {"min_samples": 1025}}, False, "min_samples"),
            ({"rails": None}, False, "tuner.rails must be an object"),
            ([], False, "tuner must be an object"),
            ({"rails": {"p99_budget_us": "x"}}, False, "p99_budget_us"),
            ({"rails": {"p99_budget_us": float("nan")}}, False, "p99_budget_us"),
            ({"rails": {"min_samples": 2.5}}, False, "min_samples"),
            ({"rails": {"refresh_every": 1.5}}, False, "refresh_every"),
        ],
        ids=[
            "unknown-tuner-key", "min-samples-beyond-the-window", "null-rails",
            "list-block", "string-budget", "nan-budget", "fractional-min-samples",
            "fractional-refresh",
        ],
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

    @pytest.mark.parametrize(
        "block, value, key",
        [
            ("observability", {"trace": "false"}, "observability.trace"),
            ("observability", {"sample_interval": "1e-5"}, "observability.sample_interval"),
            ("observability", {"ring_buffer": 2.5}, "observability.ring_buffer"),
            ("observability", {"sampel_interval": 1e-5}, "sampel_interval"),
            ("observability", _slo(threshold_us="5000"), "observability.slo[0].threshold_us"),
            ("observability", _slo(threshold_us=True), "observability.slo[0].threshold_us"),
            ("observability", _slo(threshold_us="abc"), "observability.slo[0].threshold_us"),
            ("observability", _slo(windows=5), "observability.slo[0].windows"),
            ("observability", _slo(name=5), "observability.slo[0].name"),
            ("faults", {"seed": 1.5}, "faults.seed"),
            ("faults", {"disconnect": {"every": 2.7}}, "faults.disconnect.every"),
            ("faults", {"drop": "x"}, "faults.drop"),
            ("faults", {"die": {"rank": "one"}}, "faults.die.rank"),
            ("faults", {"heartbeat": {"interval": "fast"}}, "faults.heartbeat.interval"),
            ("faults", {"outages": {"nic": "n0.mx00", "at": 0.1}}, "faults.outages"),
            ("faults", {"bogus": 1}, "bogus"),
            ("faults", {"outages": [{"nic": "n0.ib00", "at": 0.1}]}, "n0.ib00"),
            ("faults", {"outages": [{"network": "mx", "at": 0.1}]}, "network 'mx'"),
            ("faults", {"die": {"rank": 9}}, "die rank 9"),
            ("run", {"stop_at": 1.0}, "stop_at"),
            ("run", {"until": "soon"}, "run.until"),
            ("cluster", _cluster(seed=1.5), "cluster.seed"),
            ("cluster", _cluster(seed="x"), "cluster.seed"),
            ("cluster", _cluster(n_nodes=2.5), "cluster.n_nodes"),
            ("cluster", _cluster(networks="mx"), "cluster.networks"),
            ("cluster", _cluster(networks=[["mx", 1.5]]), "cluster.networks"),
            ("cluster", _cluster(strategy=3), "cluster.strategy"),
            ("cluster", _cluster(strategy="bogus"), "unknown strategy 'bogus'"),
            ("cluster", _cluster(config=[]), "cluster.config"),
            ("cluster", _cluster(config={"lookahead_window": "8"}),
             "cluster.config.lookahead_window"),
            ("cluster", _cluster(config={"nagle_delay": "x"}), "cluster.config.nagle_delay"),
            ("cluster", _cluster(config={"search_budget": 2.5}), "cluster.config.search_budget"),
            ("workloads", _stream(size="64"), "workloads[0].size"),
            ("workloads", _stream(count=2.5), "workloads[0].count"),
            ("workloads", _stream(mode="bogus"), "workloads[0].mode"),
            ("workloads", _stream(traffic_class="fast"), "workloads[0].traffic_class"),
            ("workloads", [{"app": "pingpong", "src": "n0", "count": 1}], "'dst'"),
        ],
        ids=[
            "trace-string", "interval-string", "fractional-ring", "unknown-obs-key",
            "string-slo-threshold", "bool-slo-threshold", "word-slo-threshold",
            "scalar-slo-windows", "int-slo-name",
            "fractional-seed", "fractional-disconnect", "string-drop", "string-die-rank",
            "string-heartbeat", "outages-object", "unknown-faults-key", "unknown-nic",
            "network-prefix", "die-rank-beyond-cluster", "unknown-run-key", "string-until",
            "fractional-cluster-seed", "string-cluster-seed", "fractional-n-nodes",
            "string-networks", "fractional-nics", "int-strategy", "unknown-strategy",
            "list-config",
            "string-window", "string-nagle-delay", "fractional-search-budget",
            "string-size", "fractional-count", "unknown-mode", "unknown-traffic-class",
            "pair-without-dst",
        ],
    )
    def test_same_verdict_on_both_planes(self, block, value, key, monkeypatch):
        """One reader per block: a bad block is the same
        ``ConfigurationError``, naming its key, from the simulator and
        from the coordinator before it forks."""
        from repro.runtime.scenario import build_scenario

        scenario = _scenario(
            [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 64, "count": 1}]
        )
        scenario[block] = value
        with pytest.raises(ConfigurationError, match=re.escape(key)) as from_sim:
            build_scenario(scenario)

        def no_spawn(*args, **kwargs):
            pytest.fail("a peer was spawned for a scenario that cannot be built")

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        with pytest.raises(ConfigurationError) as from_live:
            run_live_scenario(scenario, timeout=_TIMEOUT)
        assert str(from_live.value) == str(from_sim.value)

    @pytest.mark.parametrize(
        "block, value, plane",
        [
            ("faults", {"die": {"rank": 1}}, "sim"),
            ("faults", {"disconnect": {"every": 5}}, "sim"),
            ("faults", {"heartbeat": {}}, "sim"),
            ("observability", {"ring_buffer": 64}, "live"),
        ],
        ids=["die", "disconnect", "heartbeat", "ring-buffer"],
    )
    def test_each_plane_refuses_what_it_cannot_run(self, block, value, plane, monkeypatch):
        """Each plane refuses what ``runtime.cluster.REFUSED`` says it
        cannot run, and the other plane accepts the same block (the live
        refusal of ``per_nic`` / ``per_network`` is
        ``TestValidation.test_bad_faults_block_rejected``)."""
        from repro.runtime.scenario import build_scenario

        scenario = _scenario(
            [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 64, "count": 1}]
        )
        scenario[block] = value
        where = "simulator" if plane == "sim" else "live plane"
        monkeypatch.setattr(subprocess, "Popen", lambda *a, **k: pytest.fail("spawned"))
        if plane == "sim":
            with pytest.raises(ConfigurationError, match=f"not supported by the {where}"):
                build_scenario(scenario)
            live_cluster._validate(scenario)
        else:
            build_scenario(scenario)
            with pytest.raises(ConfigurationError, match=f"not supported by the {where}"):
                run_live_scenario(scenario, timeout=_TIMEOUT)

    def test_ring_buffer_rejected(self, monkeypatch):
        """A live peer's one recorder is its streaming spool: a flight
        recorder size is a simulator knob."""
        scenario = _scenario(
            [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 64, "count": 1}]
        )
        scenario["observability"] = {"trace": True, "ring_buffer": 1024}

        def no_spawn(*args, **kwargs):
            pytest.fail("a peer was spawned for a ring_buffer it cannot keep")

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        with pytest.raises(ConfigurationError, match="ring_buffer"):
            run_live_scenario(scenario, timeout=_TIMEOUT)


class TestOutages:
    def test_outage_of_one_nodes_rail_arms_on_that_node_only(self):
        """An outage names a rail of one node; every other peer has no
        such NIC and arms nothing, instead of failing the run."""
        scenario = _scenario(
            [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 64, "count": 3}]
        )
        scenario["faults"] = {"outages": [{"nic": "n0.mx00", "at": 100.0}]}
        result = run_live_scenario(scenario, timeout=_TIMEOUT)
        assert result.report.messages == 6
        assert not result.report.degraded


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
        kinds = {e[2] for e in result.aligned_events}
        assert "nic.send" in kinds
        assert "nic.idle" in kinds
        times = [e[0] for e in result.aligned_events]
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
        # Both peers' CPU up to STOP, summed: what a message costs.
        assert 0 < payload["cpu_s"] < 60
        # Tail telemetry rides the payload; no tracing means the tail
        # families exist but stay empty.  The report's exact tails come
        # from the records either way.
        assert payload["tails"]["edges"] == {}
        assert payload["tails"]["rails"] == {}
        latency = payload["report"]["latency"]
        assert latency["p999"] >= latency["p99"] > 0
